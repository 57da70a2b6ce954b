package stableleader

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"stableleader/id"
	"stableleader/internal/clock"
	"stableleader/internal/core"
	"stableleader/internal/election"
	"stableleader/internal/group"
	"stableleader/internal/metrics"
	"stableleader/internal/obs"
	"stableleader/internal/outbound"
	"stableleader/internal/subs"
	"stableleader/internal/timerwheel"
	"stableleader/internal/wire"
	"stableleader/qos"
	"stableleader/transport"
)

// ErrClosed is returned by operations on a closed Service.
var ErrClosed = errors.New("stableleader: service closed")

// MaxShards bounds WithShards: the steering stage partitions each
// datagram with a fixed-size scratch table, and no deployment needs more
// event loops than this per process.
const MaxShards = 64

// Service is a real-time host for the leader election protocol. It runs
// the paper's Command Handler architecture N times over: the runtime is
// partitioned into shards, each owning one event-loop goroutine, one
// timer wheel with its own driver, one RNG and one protocol node hosting
// the groups hashed onto it. Protocol work for groups on different shards
// runs truly in parallel; a group never migrates between shards, so
// within a group every guarantee of the single-loop architecture is
// preserved verbatim.
// The shards meet in one place, on the way out: they share one outbound
// scheduler, so that what they owe one peer at one instant leaves as one
// datagram — a per-peer lock, taken only by shards addressing that peer at
// that instant and never held across a syscall. With one shard (the
// default on single-core hosts) the service behaves exactly like the
// classic single-loop build.
type Service struct {
	self id.Process
	tr   transport.Transport
	inc  int64 // one process lifetime, shared by every shard's node

	// vec is the one send door, chosen once at New: tr's own vectored door
	// where it has one (UDP: one sendmmsg per loop wakeup instead of one
	// syscall per datagram), otherwise a loop of tr.Send. Every shard
	// stages its sends and flushes them through it.
	vec transport.VectorSender

	// shards are the event-loop shards; groups map onto them by stable
	// hash (shardIndex). Immutable after New.
	shards []*serviceShard

	done     chan struct{} // closed once EVERY shard loop has exited
	closing  chan struct{}
	finished chan struct{} // closed after subscribers and transport are down

	// counters instruments the packet plane; written on the shard loops
	// (the outbound scheduler, and inbound dispatch — see onDatagram),
	// snapshot by PacketStats from anywhere. The counters are atomic, so
	// shards share one set without coordination.
	counters metrics.PacketCounters

	// shared is what the shards' nodes hold in common, being one process:
	// the one outbound scheduler (every node a port of it, staging into
	// per-peer queues all shards share), the link estimates and the
	// intervals asked of each peer.
	shared core.Shared

	// obs is the sharded protocol observability registry: one plain-store
	// slot per shard, written only by the owning loop, aggregated at
	// scrape time through sh.call. Immutable after New.
	obs *obs.Registry

	// learner, when non-nil, is the SourceAware transport the client
	// plane learns client addresses through (see onDatagram).
	learner transport.SourceAware

	// strings is the one interning table every receiver goroutine decodes
	// through (see wire.Interner); all other decode storage travels with
	// each datagram's wire.Carrier.
	strings wire.Interner

	mu       sync.Mutex
	groups   map[id.Group]*Group
	closed   bool
	closeErr error // transport close outcome; readable once finished is closed
}

// serviceShard is one event-loop shard: the single-threaded world one
// subset of the service's groups lives in. Everything a shard owns —
// its node, wheel, RNG, command queue and inbound ring — is touched only
// by its own loop goroutine (plus the MPSC producers of the two queues).
type serviceShard struct {
	svc  *Service
	idx  int
	node *core.Node
	rt   *serviceRuntime
	// obs is this shard's observability slot — loop-written counters,
	// the leaderless-window histogram and the flight-recorder ring.
	obs *obs.Shard

	commands chan func()
	// inbound is the shard's half of the steered inbound plane: a bounded
	// MPSC ring of decoded datagram parts, fed by the transport receiver
	// goroutines and drained by the loop. Keeping it separate from
	// commands spares the receive path the closure allocation a func()
	// envelope would cost per datagram.
	inbound chan inboundPart
	done    chan struct{}
}

// inboundPart is one shard's contiguous share of a decoded datagram:
// messages c.Msgs[lo:hi] all belong to groups this shard owns, and the
// part holds one claim on the carrier, released once they are dispatched.
// datagram marks the single part that carries the datagram-level counters.
type inboundPart struct {
	c        *wire.Carrier
	lo, hi   int
	datagram bool
}

// New creates and starts a Service for process self on the given
// transport. Options refine construction; the zero-option call is a fully
// functional service.
//
//leadervet:init
func New(self id.Process, tr transport.Transport, opts ...Option) (*Service, error) {
	if self == "" {
		return nil, errors.New("stableleader: a process id is required")
	}
	if tr == nil {
		return nil, errors.New("stableleader: a transport is required")
	}
	cfg := serviceConfig{}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	seed := cfg.seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	nshards := cfg.shards
	if nshards <= 0 {
		nshards = defaultShards()
	}
	s := &Service{
		self:     self,
		tr:       tr,
		inc:      time.Now().UnixNano(),
		done:     make(chan struct{}),
		closing:  make(chan struct{}),
		finished: make(chan struct{}),
		groups:   make(map[id.Group]*Group),
	}
	if vs, ok := tr.(transport.VectorSender); ok {
		s.vec = vs
	} else {
		s.vec = sendLoop{tr}
	}
	s.obs = obs.NewRegistry(nshards, obs.FlightDepthDefault)
	s.shared.Out = outbound.New(outbound.Config{Counters: &s.counters})
	s.shards = make([]*serviceShard, nshards)
	for i := range s.shards {
		sh := &serviceShard{
			svc:      s,
			idx:      i,
			obs:      s.obs.Shard(i),
			commands: make(chan func(), 256),
			inbound:  make(chan inboundPart, 256),
			done:     make(chan struct{}),
		}
		// Per-shard RNG, deterministically derived from the service seed:
		// shard 0 sees exactly the stream a single-loop service would, so
		// one-shard runs reproduce the historical behavior bit for bit.
		rt := &serviceRuntime{
			sh:      sh,
			rng:     rand.New(rand.NewSource(seed + int64(i))),
			pend:    make([]transport.Datagram, 0, sendVector),
			pendBuf: make([]*[]byte, 0, sendVector),
		}
		// Ticks fall on whole wall-clock milliseconds — where the beat grid
		// puts its deadlines — so every shard's wheel is due at the same
		// instants and a beat fires on its tick, not up to one tick after.
		start := time.Now()
		start = start.Add(-time.Duration(start.UnixNano() % int64(timerwheel.DefaultTick)))
		rt.wheel = timerwheel.New(start, timerwheel.DefaultTick)
		rt.advanceFn = rt.advance
		sh.rt = rt
		nodeOpts := []core.NodeOption{
			core.WithShared(&s.shared),
			core.WithIncarnation(s.inc),
			core.WithObs(sh.obs),
		}
		if cfg.clientPlane {
			nodeOpts = append(nodeOpts, core.WithClientPlane())
		}
		sh.node = core.NewNode(self, rt, nodeOpts...)
		s.shards[i] = sh
	}
	if sa, ok := tr.(transport.SourceAware); ok && cfg.clientPlane {
		// Clients are a dynamic population no static address book can
		// anticipate: learn each one's address from its own client-plane
		// traffic and answer through the learned mapping.
		s.learner = sa
		sa.ReceiveFrom(s.onDatagram)
	} else {
		tr.Receive(func(payload []byte) { s.onDatagram(payload, netip.AddrPort{}) })
	}
	for _, sh := range s.shards {
		go sh.loop()
	}
	// done aggregates the shard exits so shutdown waits on one channel.
	go func() {
		for _, sh := range s.shards {
			<-sh.done
		}
		close(s.done)
	}()
	return s, nil
}

// defaultShards derives the shard count from the hardware: one event loop
// per schedulable CPU, so a multi-group service saturates the machine
// without configuration, capped at MaxShards.
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > MaxShards {
		n = MaxShards
	}
	return n
}

// Shards reports the number of event-loop shards this service runs.
func (s *Service) Shards() int { return len(s.shards) }

// shardIndex maps a group onto its owning shard — a stable FNV-1a hash,
// so the assignment never changes for the life of the service and every
// host (steering stage, Join, queries) agrees without coordination.
func (s *Service) shardIndex(g id.Group) int {
	if len(s.shards) == 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(g); i++ {
		h ^= uint64(g[i])
		h *= prime64
	}
	return int(h % uint64(len(s.shards)))
}

// shardFor returns the shard owning group g.
func (s *Service) shardFor(g id.Group) *serviceShard { return s.shards[s.shardIndex(g)] }

// ClientStats reports the client-plane subscriber registry's state:
// Enabled mirrors WithClientPlane, Clients/Leases the current remote
// registrations, aggregated across shards. Serialised through each
// shard's event loop (the registries are loop-owned), so it honours ctx
// like any loop query. A client subscribed to groups on k shards counts
// once per shard in Clients.
func (s *Service) ClientStats(ctx context.Context) (ClientStats, error) {
	var total ClientStats
	for _, sh := range s.shards {
		var st subs.Stats
		var enabled bool
		if err := sh.call(ctx, func() { st, enabled = sh.node.ClientStats() }); err != nil {
			return ClientStats{}, err
		}
		total.Enabled = enabled
		total.Clients += st.Clients
		total.Leases += st.Leases
	}
	return total, nil
}

// loop is a shard's event loop: every entry point of the shard's node
// funnels through here — commands, steered inbound traffic, and (via the
// driver's enqueued advance) timer deadlines.
//
//leadervet:onLoop
func (sh *serviceShard) loop() {
	defer close(sh.done)
	defer sh.rt.stopDriver()
	for {
		// Every arm ends by flushing the shard's staged sends: whatever a
		// command (timer advance, API call) or an inbound burst produced
		// leaves as one vectored send before the loop blocks again, so
		// staging adds batching without adding latency.
		select {
		case fn := <-sh.commands:
			sh.obs.Inc(obs.CLoopWakeups)
			fn()
		case p := <-sh.inbound:
			sh.obs.Inc(obs.CLoopWakeups)
			sh.handleInbound(p)
		case <-sh.svc.closing:
			// Drain whatever is already queued, then stop. Only this
			// shard's queues are touched, so one shard's drain can never
			// block on (or be blocked by) another's.
			for {
				select {
				case fn := <-sh.commands:
					fn()
					sh.rt.flushSends()
				case p := <-sh.inbound:
					sh.handleInbound(p)
					sh.rt.flushSends()
				default:
					sh.node.Stop()
					sh.rt.flushSends()
					return
				}
			}
		}
		sh.rt.flushSends()
	}
}

// handleInbound dispatches one steered datagram part on the shard loop.
//
//leadervet:hotpath
func (sh *serviceShard) handleInbound(p inboundPart) {
	c := p.c
	sh.svc.counters.CountInPart(p.hi-p.lo, c.Bytes, p.datagram, len(c.Msgs) > 1)
	sh.obs.Inc(obs.CInboundParts)
	if !p.datagram {
		// A continuation part of a datagram split across shards by the
		// steering stage — the cross-shard coalescing the batch envelope
		// induces, visible only here.
		sh.obs.Inc(obs.CInboundSplitParts)
	}
	for _, m := range c.Msgs[p.lo:p.hi] {
		sh.node.HandleMessage(m)
		sh.rt.flushIfFull()
	}
	c.Release()
}

// enqueue schedules fn on the shard's event loop; it drops work once the
// service is closing.
//
//leadervet:runsOnLoop fn
func (sh *serviceShard) enqueue(fn func()) {
	select {
	case sh.commands <- fn:
	case <-sh.svc.closing:
	}
}

// enqueueInbound hands one datagram part to the shard, blocking (bounded
// ring backpressure) while the loop catches up; once the service is
// closing the part is dropped and its claim released, like any command.
func (sh *serviceShard) enqueueInbound(p inboundPart) {
	select {
	case sh.inbound <- p:
	case <-sh.svc.closing:
		p.c.Release()
	}
}

// call runs fn on the shard's event loop and waits for it, honouring ctx:
// a cancelled or expired context returns ctx.Err() promptly instead of
// blocking on the loop. When call returns a context error the command may
// or may not still execute; callers needing certainty enqueue idempotent
// compensation.
//
//leadervet:runsOnLoop fn
func (sh *serviceShard) call(ctx context.Context, fn func()) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	donec := make(chan struct{})
	select {
	case sh.commands <- func() { fn(); close(donec) }:
	case <-ctx.Done():
		return ctx.Err()
	case <-sh.svc.closing:
		return ErrClosed
	}
	select {
	case <-donec:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-sh.done:
		return ErrClosed
	}
}

// onDatagram decodes and steers one received datagram — a bare message
// or a batch envelope. Decoding happens here (the transport reuses the
// payload buffer after we return) into a pooled wire.Carrier; the decoded
// messages are partitioned by owning shard, handed to the shard loops
// over the bounded inbound rings, and taken back by the carrier once
// every part has been dispatched. The protocol handlers copy everything
// they keep, so the recycle-after-handle contract holds by construction.
// Safe for concurrent delivery, which the Transport contract allows.
//
// src is the datagram's network source where the transport exposes it
// (SourceAware) and the client plane is on, invalid otherwise: only
// SUBSCRIBE/LEASE_RENEW/UNSUBSCRIBE teach it to the transport's address
// book — member traffic never rewrites the static book, so a spoofed
// heartbeat cannot redirect protocol traffic.
//
//leadervet:hotpath
func (s *Service) onDatagram(payload []byte, src netip.AddrPort) {
	c := wire.GetCarrier()
	unknown, err := c.Decode(&s.strings, payload)
	if errors.Is(err, wire.ErrUnknownKind) {
		// A bare datagram of a future kind: dropped whole, but counted as
		// forward traffic, not as silent garbage.
		unknown++
	}
	s.counters.CountUnknown(unknown)
	if err != nil || len(c.Msgs) == 0 {
		// Garbage on the wire is dropped, as a UDP service must.
		c.Release()
		return
	}
	if s.learner != nil && src.IsValid() {
		for _, m := range c.Msgs {
			switch m.(type) {
			case *wire.Subscribe, *wire.LeaseRenew, *wire.Unsubscribe:
				s.learner.LearnPeer(m.From(), src)
			}
		}
	}
	// Counted at dispatch on the shard loop, not here: a datagram the
	// closing service drops between decode and dispatch must not inflate
	// the delivered-traffic counters.
	s.steer(c)
}

// steer partitions one decoded datagram's messages into shard-contiguous
// runs and hands each run to its owning shard. The outbound coalescer
// freely mixes groups bound for one peer into one datagram, so a received
// batch routinely spans shards; a stable scatter (two passes over the
// messages, scratch tables on the stack, destination slice owned by the
// carrier) keeps per-message order inside each shard identical to wire
// order, which is what preserves the per-peer FIFO the protocol relies
// on. The datagram-level counters ride with the part holding the first
// message.
//
//leadervet:hotpath
//leadervet:releases c
func (s *Service) steer(c *wire.Carrier) {
	var counts [MaxShards]int32
	for _, m := range c.Msgs {
		counts[s.shardIndex(m.GroupID())]++
	}
	// A datagram whose messages all landed on one shard (always, with one
	// shard; otherwise the common case: member traffic between two nodes
	// sharing one group) skips the scatter entirely: one part, exactly the
	// classic single-loop delivery.
	first := s.shardIndex(c.Msgs[0].GroupID())
	if int(counts[first]) == len(c.Msgs) {
		s.shards[first].enqueueInbound(inboundPart{c: c, hi: len(c.Msgs), datagram: true})
		return
	}
	var offsets [MaxShards]int32 // where each shard's run ends so far
	parts := 0
	pos := int32(0)
	for i := range s.shards {
		offsets[i] = pos
		pos += counts[i]
		if counts[i] > 0 {
			parts++
		}
	}
	for _, m := range c.Scatter() {
		i := s.shardIndex(m.GroupID())
		c.Msgs[offsets[i]] = m
		offsets[i]++
	}
	c.Share(parts)
	for i := range s.shards {
		if counts[i] == 0 {
			continue
		}
		s.shards[i].enqueueInbound(inboundPart{
			c:        c,
			lo:       int(offsets[i] - counts[i]),
			hi:       int(offsets[i]),
			datagram: i == first,
		})
	}
}

// ID returns the service's process id.
func (s *Service) ID() id.Process { return s.self }

// PacketStats snapshots the packet-plane counters: datagrams, batches and
// coalesced messages in both directions, plus — on transports that
// account their kernel crossings, like UDP — the syscall columns behind
// them. Safe from any goroutine.
func (s *Service) PacketStats() PacketStats {
	ps := s.counters.Snapshot()
	if st, ok := s.tr.(transport.IOStatser); ok {
		io := st.IOStats()
		ps.RecvSyscalls = io.RecvSyscalls
		ps.SendSyscalls = io.SendSyscalls
	}
	return ps
}

// Incarnation returns this service instance's incarnation number. Every
// shard's node announces this same number: a sharded service is still one
// process lifetime to the rest of the cluster.
func (s *Service) Incarnation() int64 { return s.inc }

// Join enters group g and returns its handle. Joining is asynchronous by
// nature — the group converges through gossip — but the local registration
// itself honours ctx: a cancelled context returns ctx.Err() promptly (any
// partially applied registration is rolled back in the background). The
// group is served by the event-loop shard its id hashes onto, for the
// life of the service.
func (s *Service) Join(ctx context.Context, g id.Group, opts ...JoinOption) (*Group, error) {
	cfg := defaultJoinConfig()
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := s.groups[g]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("stableleader: already joined %q", g)
	}
	sh := s.shardFor(g)
	grp := newGroup(s, sh, g)
	s.groups[g] = grp
	s.mu.Unlock()

	var joinErr error
	err := sh.call(ctx, func() {
		joinErr = sh.node.Join(g, core.JoinOptions{
			Candidate:           cfg.candidate,
			Algorithm:           election.Kind(cfg.algorithm),
			QoS:                 cfg.spec,
			Seeds:               cfg.seeds,
			HelloInterval:       cfg.helloInterval,
			ReconfigureInterval: cfg.reconfigureInterval,
			OnLeaderChange: func(li core.LeaderInfo) {
				grp.publish(LeaderChanged{Info: publicInfo(li)})
			},
			OnMembership: func(m group.Member, joined bool) {
				if joined {
					grp.publish(MemberJoined{
						Group:       g,
						Member:      m.ID,
						Incarnation: m.Incarnation,
						Candidate:   m.Candidate,
						At:          time.Now(),
					})
				} else {
					grp.publish(MemberLeft{
						Group:       g,
						Member:      m.ID,
						Incarnation: m.Incarnation,
						At:          time.Now(),
					})
				}
			},
			OnTrustChange: func(p id.Process, inc int64, trusted bool) {
				if trusted {
					grp.publish(MemberTrusted{
						Group: g, Member: p, Incarnation: inc, At: time.Now(),
					})
				} else {
					grp.publish(MemberSuspected{
						Group: g, Member: p, Incarnation: inc, At: time.Now(),
					})
				}
			},
			OnStandbyChange: func(p id.Process, inc int64) {
				grp.storeStandby(p, inc)
				grp.publish(StandbyChanged{
					Group: g, Standby: p, Incarnation: inc, At: time.Now(),
				})
			},
			OnReconfigured: func(p id.Process, params qos.Params) {
				grp.publish(QoSReconfigured{
					Group:    g,
					Member:   p,
					Interval: params.Interval,
					Timeout:  params.Timeout,
					At:       time.Now(),
				})
			},
			OnStatus: grp.storeStatus,
		})
		if joinErr == nil {
			// Seed the read plane so Leader/Status answer wait-free from
			// the first instant after Join (OnStatus already stored the
			// initial membership snapshot during core join).
			if li, lerr := sh.node.Leader(g); lerr == nil {
				grp.seedLeader(publicInfo(li))
			}
		}
	})
	if err == nil {
		err = joinErr
	}
	if err != nil {
		if !errors.Is(err, ErrClosed) && ctx != nil && ctx.Err() != nil {
			// The context expired mid-flight: the join may still land on
			// the loop after we report failure. Undo it; a leave of a
			// never-joined group is a harmless no-op. Enqueued BEFORE the
			// map delete so a concurrent re-Join of g serialises after
			// the rollback rather than being torn down by it.
			sh.enqueue(func() { _ = sh.node.Leave(g) })
		}
		s.mu.Lock()
		delete(s.groups, g)
		s.mu.Unlock()
		grp.closeSubscribers()
		return nil, err
	}
	return grp, nil
}

// Close shuts the service down gracefully: LEAVE messages are announced
// for every joined group so peers re-elect immediately rather than waiting
// for failure detection, then the event-loop shards drain and the
// transport closes. ctx bounds how long Close waits; on cancellation it
// returns ctx.Err() promptly while the shutdown completes in the
// background. Close is idempotent.
func (s *Service) Close(ctx context.Context) error {
	return s.shutdown(ctx, true)
}

// Crash shuts the service down abruptly, announcing nothing — crash
// semantics, as a fault injector or test wants. Peers notice through
// failure detection. Crash is idempotent with Close.
func (s *Service) Crash() error {
	return s.shutdown(context.Background(), false)
}

// shutdown implements Close and Crash.
func (s *Service) shutdown(ctx context.Context, leave bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Repeat closer: done only once teardown truly completed (every
		// shard loop exited, subscribers closed, transport closed),
		// reporting the transport's close outcome so a nil return always
		// means the listen address is free again. Deterministic: a
		// finished service reports that outcome regardless of ctx;
		// otherwise a dead ctx wins over waiting.
		select {
		case <-s.finished:
			return s.closeErr
		default:
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case <-s.finished:
			return s.closeErr
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.closed = true
	groups := make([]*Group, 0, len(s.groups))
	for _, g := range s.groups {
		groups = append(groups, g)
	}
	s.mu.Unlock()

	if leave {
		// Departures run on the owning shard of each group: one leaveAll
		// command per shard that has groups, so every LEAVE is announced
		// by the loop that owns the group's protocol state.
		perShard := make(map[*serviceShard][]*Group)
		for _, g := range groups {
			perShard[g.sh] = append(perShard[g.sh], g)
		}
		for sh, ggs := range perShard {
			sh, ggs := sh, ggs
			leaveAll := func() {
				for _, g := range ggs {
					_ = sh.node.Leave(g.id)
				}
			}
			if err := sh.call(ctx, leaveAll); err != nil && !errors.Is(err, ErrClosed) {
				// The context died before the loop ran the departures.
				// Queue them anyway — the loop drains queued commands
				// after closing, and leaving twice is a harmless no-op —
				// so a graceful Close never silently degrades to crash
				// semantics.
				sh.enqueue(leaveAll)
			}
		}
	}
	close(s.closing)

	// finish runs exactly once (only the first closer reaches here) and
	// unblocks repeat closers by closing s.finished at the very end.
	finish := func() error {
		<-s.done
		for _, g := range groups {
			g.closeSubscribers()
		}
		err := s.tr.Close()
		s.closeErr = err // sequenced before close(finished); readers wait on it
		close(s.finished)
		return err
	}
	if err := ctx.Err(); err != nil {
		// Deterministic on an already-dead context: report the context
		// error and complete the shutdown in the background.
		go finish()
		return err
	}
	select {
	case <-s.done:
		return finish()
	case <-ctx.Done():
		go finish()
		return ctx.Err()
	}
}

// serviceRuntime adapts one shard to core.Runtime: real clock, timers
// multiplexed onto one runtime timer through the shard's hashed timer
// wheel, transport sends, and the shard RNG (used only on the shard's
// event loop).
//
// The wheel is owned by the shard loop: every protocol-side arm/re-arm
// and every Advance happens there, so wheel state needs no locking and
// wheel callbacks run directly on the loop (satisfying the clock.Clock
// delivery contract with zero hops). The only cross-goroutine edge is the
// driver timer's callback, which merely enqueues an advance onto its own
// shard — it can never touch, block, or be blocked by another shard.
type serviceRuntime struct {
	sh  *serviceShard
	rng *rand.Rand

	// wheel holds every pending protocol deadline of this shard; driver
	// is the single runtime timer that wakes the loop at wheel.Next.
	// armed caches the instant driver is set for, so a re-arm is skipped
	// when the earliest deadline did not move. All three fields are
	// loop-owned.
	wheel  *timerwheel.Wheel //leadervet:loopOwned
	driver *time.Timer       //leadervet:loopOwned
	armed  time.Time         //leadervet:loopOwned
	// advancing suppresses per-callback driver re-arms while Advance
	// fires a batch of deadlines; the single kick afterwards covers them.
	advancing bool //leadervet:loopOwned
	// advanceFn is advance bound once at construction: the driver enqueues
	// it on every fire, and a method value built there would allocate.
	advanceFn func()

	// Send staging: marshalled datagrams accumulate here during one loop
	// wakeup and leave as one vectored send — flushSends runs at the end
	// of every loop arm, and flushIfFull between the handlers of one arm.
	// pendBuf keeps the pooled marshal buffer of each staged payload so the
	// flush can recycle it.
	pend    []transport.Datagram //leadervet:loopOwned
	pendBuf []*[]byte            //leadervet:loopOwned
}

// sendVector is the per-shard send staging depth, matching what one
// sendmmsg comfortably carries; a wakeup producing more flushes mid-arm,
// between two handlers (a single handler that emits more — a departure's
// goodbyes to thousands of clients — grows the vector for the occasion,
// and flushSends gives the memory back).
const sendVector = 32

var _ core.Runtime = (*serviceRuntime)(nil)
var _ clock.TimerFactory = (*serviceRuntime)(nil)

// Now implements clock.Clock.
func (r *serviceRuntime) Now() time.Time { return time.Now() }

// AfterFunc implements clock.Clock: the deadline goes onto the wheel (one
// entry allocation — one-shot timers are rare, re-armed paths use
// NewTimer), and fires on the shard loop via the driver. Like every
// core.Runtime entry point, it is invoked on the shard's loop.
//
//leadervet:onLoop
func (r *serviceRuntime) AfterFunc(d time.Duration, fn func()) clock.Timer {
	t := r.NewTimer(fn)
	t.Reset(d)
	return t
}

// NewTimer implements clock.TimerFactory: a re-armable wheel entry,
// allocated once and re-armed in place — the zero-allocation path the
// failure detector, pacer and outbound scheduler run per heartbeat.
func (r *serviceRuntime) NewTimer(fn func()) clock.Rearmer {
	t := &wheelRearmer{rt: r, fn: fn}
	t.e = timerwheel.NewEntry(t.fire)
	return t
}

// wheelRearmer is a clock.Rearmer over a shard wheel. Its methods run
// on the shard's event loop, like every other wheel operation.
type wheelRearmer struct {
	rt *serviceRuntime
	fn func()
	e  *timerwheel.Entry
}

// fire runs the deadline's callback; the return from it is where a tick
// that fires many deadlines sends a full vector before staging more.
//
//leadervet:onLoop
func (t *wheelRearmer) fire() {
	t.fn()
	t.rt.flushIfFull()
}

//leadervet:onLoop
func (t *wheelRearmer) Reset(d time.Duration) bool {
	stopped := t.e.Pending()
	at := time.Now().Add(d)
	t.rt.wheel.Schedule(t.e, at)
	// Driver invariant: armed ≤ the earliest pending deadline. A re-arm
	// to a later instant preserves it as-is (at worst the driver wakes
	// once with nothing due and re-kicks), so only a new earliest
	// deadline pays the kick — the per-heartbeat deadline *extensions* on
	// the hot path skip it entirely.
	if !t.rt.advancing && (t.rt.armed.IsZero() || at.Before(t.rt.armed)) {
		t.rt.kick()
	}
	return stopped
}

//leadervet:onLoop
func (t *wheelRearmer) Stop() bool {
	// No driver re-arm: a wake-up with nothing due is harmless and rarer
	// than Stops.
	return t.rt.wheel.Stop(t.e)
}

// kick re-arms the driver timer at the wheel's earliest deadline. Called
// on the loop after any schedule; the advance path calls it after every
// wheel movement.
func (r *serviceRuntime) kick() {
	next, ok := r.wheel.Next()
	if !ok {
		r.armed = time.Time{}
		if r.driver != nil {
			r.driver.Stop()
		}
		return
	}
	if !r.armed.IsZero() && r.armed.Equal(next) {
		return
	}
	r.armed = next
	d := time.Until(next)
	if r.driver == nil {
		r.driver = time.AfterFunc(d, r.wake)
		return
	}
	// A Reset racing a fired-but-not-yet-run callback at worst produces a
	// spurious advance, which fires nothing and re-kicks — never a missed
	// deadline, because this Reset always covers the earliest one.
	r.driver.Reset(d)
}

// wake runs on the driver timer's goroutine: it only hops back onto its
// own shard's event loop (dropped once the service is closing, like any
// command) — so a timer firing during Close on one shard can neither
// deadlock nor touch another shard's drain.
//
//leadervet:hotpath
func (r *serviceRuntime) wake() {
	r.sh.enqueue(r.advanceFn)
}

// advance moves the wheel to the present, firing due protocol deadlines
// inline on the loop, then re-arms the driver.
//
//leadervet:onLoop
//leadervet:hotpath
func (r *serviceRuntime) advance() {
	r.sh.obs.Inc(obs.CTimerFires)
	r.armed = time.Time{}
	r.advancing = true
	r.wheel.Advance(time.Now())
	r.advancing = false
	r.kick()
}

// stopDriver releases the runtime timer when the shard loop exits.
func (r *serviceRuntime) stopDriver() {
	if r.driver != nil {
		r.driver.Stop()
	}
}

// sendBufPool recycles marshal buffers across sends: transports do not
// retain the payload after the send call returns (see the Transport
// contract), so flushSends puts each buffer straight back and the send
// hot path stays allocation-free. Shared across shards (sync.Pool scales
// with Ps).
var sendBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 2048); return &b },
}

// sendLoop is the vectored send door of a Send-only transport: a batch
// is that many Sends, in order.
type sendLoop struct{ tr transport.Transport }

func (l sendLoop) SendBatch(batch []transport.Datagram) (sent int, err error) {
	for _, d := range batch {
		if serr := l.tr.Send(d.To, d.Payload); serr == nil {
			sent++
		} else if err == nil {
			err = serr
		}
	}
	return sent, err
}

// Send implements core.Runtime. m is a bare message or a *wire.Batch the
// outbound scheduler flushed; either way it is one datagram, marshalled
// here and staged for flushSends. It runs with the destination's outbound
// queue locked, so it never sends: the loop does, between handlers. Once
// marshalled the message is dead, so pool-managed kinds (heartbeats,
// envelopes, the client plane's fan-out snapshots) are recycled here — the
// release half of the send pool that keeps a beat, and a 10k-subscriber
// fan-out, allocation-free.
//
//leadervet:onLoop
//leadervet:hotpath
func (r *serviceRuntime) Send(to id.Process, m wire.Message) {
	bp := sendBufPool.Get().(*[]byte)
	*bp = wire.MarshalAppend((*bp)[:0], m)
	r.pend = append(r.pend, transport.Datagram{To: to, Payload: *bp})
	r.pendBuf = append(r.pendBuf, bp)
	wire.ReleaseOutbound(m)
}

// flushIfFull sends the staged datagrams once they fill a vector. The
// loop calls it wherever one handler has returned and the next has not
// begun, where no outbound lock is held.
//
//leadervet:onLoop
//leadervet:hotpath
func (r *serviceRuntime) flushIfFull() {
	if len(r.pend) >= sendVector {
		r.flushSends()
	}
}

// flushSends transmits the staged datagrams as one batch through the
// service's send door, then recycles the marshal buffers. Runs on the
// shard loop; the loop calls it before blocking, so nothing ever lingers
// staged across a wait.
//
//leadervet:onLoop
func (r *serviceRuntime) flushSends() {
	if len(r.pend) == 0 {
		return
	}
	// Best effort, like every send of this protocol: a datagram the
	// transport could not send is one the network lost.
	_, _ = r.sh.svc.vec.SendBatch(r.pend)
	for i, bp := range r.pendBuf {
		*bp = (*bp)[:0]
		sendBufPool.Put(bp)
		r.pendBuf[i] = nil
		r.pend[i] = transport.Datagram{}
	}
	r.pend, r.pendBuf = r.pend[:0], r.pendBuf[:0]
	if cap(r.pend) > sendVector {
		// One handler outgrew the vector (see sendVector): a rare occasion,
		// whose memory a shard does not keep for life.
		r.pend = make([]transport.Datagram, 0, sendVector)
		r.pendBuf = make([]*[]byte, 0, sendVector)
	}
}

// Rand implements core.Runtime.
func (r *serviceRuntime) Rand() *rand.Rand { return r.rng }
