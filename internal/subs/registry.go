// Package subs implements the server half of the client plane: a sharded
// registry of remote subscribers that the election service keeps informed
// of leadership through lease-bounded LeaderSnapshot messages.
//
// The paper frames leader election as a *service* consulted by
// applications; members consult their in-process Group handle, but a
// production deployment also has non-member processes — frontends, load
// balancers, schedulers — that only need to know who leads. The registry
// turns those into cheap subscriptions:
//
//   - SUBSCRIBE registers a client under a lease and answers immediately
//     with the node's current view;
//   - every local leader-change edge fans a fresh snapshot out to the
//     group's subscribers;
//   - a staggered per-shard sweep re-advertises snapshots so a lost
//     change datagram heals well inside the lease;
//   - LEASE_RENEW extends the lease without data traffic; a lease that
//     expires unrenewed is dropped silently (the client crashed);
//   - leaving a group publishes tombstone snapshots so clients fail over
//     to another service node instead of timing out.
//
// Fan-out cost is what makes this viable at 10k+ subscribers per node:
// every non-urgent send goes through the node's outbound coalescing
// scheduler, so a client subscribed to G groups receives one datagram
// carrying G snapshots per re-advertisement round, and the sweep itself is
// sharded so no single tick touches more than 1/shards of the population.
// Lease expiry rides the host's timer plane: each lease owns one
// re-armable timer (a hashed-timer-wheel entry in the real-time service)
// that subscribe and renew re-arm in place — O(1) per protocol event and
// one entry per lease, however often it renews.
//
// Like the protocol core, a Registry is single-threaded by contract: the
// host serialises message handlers, timer callbacks and publications onto
// one event loop.
package subs

import (
	"time"

	"stableleader/id"
	"stableleader/internal/clock"
	"stableleader/internal/obs"
	"stableleader/internal/wire"
)

// Defaults for Config fields left zero.
const (
	DefaultShards = 8
	DefaultTTL    = 10 * time.Second
	DefaultMinTTL = time.Second
	DefaultMaxTTL = time.Minute
	// DefaultMaxLeases bounds the registry: a flood of subscriptions
	// (hostile or misconfigured) degrades to tombstone refusals instead of
	// unbounded memory.
	DefaultMaxLeases = 65536
)

// View is one group's leadership as the node currently sees it — the
// payload of a snapshot, decoupled from the core's internal types.
type View struct {
	Leader      id.Process
	Incarnation int64
	Elected     bool
	At          time.Time
	// Successor, when set, names the member a departing leader handed the
	// group to (the warm standby). Tombstone publications carry it so
	// clients re-pin to the successor immediately instead of probing.
	Successor    id.Process
	SuccessorInc int64
}

// Config parameterises a Registry.
type Config struct {
	// Self and Incarnation identify the serving node in snapshots.
	Self        id.Process
	Incarnation int64
	// Clock provides time and timers (the host's event-loop clock; the
	// real-time service backs timers with its wheel).
	Clock clock.Clock
	// Send transmits one client-bound message. Urgent sends flush the
	// destination immediately (tombstones racing a transport close);
	// everything else takes the coalescing path.
	Send func(to id.Process, m wire.Message, urgent bool)
	// Leader returns the node's current view of g, and whether the node
	// serves g at all.
	Leader func(g id.Group) (View, bool)
	// Shards is the number of sweep shards (default DefaultShards).
	Shards int
	// MaxLeases caps registered (client, group) leases (default
	// DefaultMaxLeases). Excess subscribers get tombstones: "go elsewhere".
	MaxLeases int
	// TTL bounds: requested leases clamp into [MinTTL, MaxTTL]; zero
	// requests get DefaultLease.
	DefaultLease, MinTTL, MaxTTL time.Duration
	// Obs, when set, receives the client-plane counters (subscribes,
	// renews, fan-outs, lease expiries) on the host's event loop. Every
	// obs.Shard method is nil-safe, so the field may stay unset.
	Obs *obs.Shard
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.MaxLeases <= 0 {
		c.MaxLeases = DefaultMaxLeases
	}
	if c.DefaultLease <= 0 {
		c.DefaultLease = DefaultTTL
	}
	if c.MinTTL <= 0 {
		c.MinTTL = DefaultMinTTL
	}
	if c.MaxTTL <= 0 {
		c.MaxTTL = DefaultMaxTTL
	}
	if c.MaxTTL < c.MinTTL {
		c.MaxTTL = c.MinTTL
	}
	return c
}

// clientSub is one remote client's registration: its current lifetime and
// its per-group leases. Grouping leases client-major is what lets the
// sweep emit one coalesced datagram per client.
type clientSub struct {
	client id.Process
	inc    int64
	leases map[id.Group]*lease
}

// lease is one (client, group) subscription.
type lease struct {
	sub   *clientSub
	group id.Group
	ttl   time.Duration
	// timer drops the lease once it has gone a whole ttl unrenewed.
	timer clock.Rearmer
	// lastSnap is when this client last got a snapshot for the group (any
	// reason); the sweep re-advertises once it ages past ttl/3.
	lastSnap time.Time
	removed  bool
}

// shard is one sweep unit of the client population.
type shard struct {
	clients map[id.Process]*clientSub
}

// groupPub is the per-group publication state: the snapshot sequence and
// the reverse index from group to subscribed clients.
type groupPub struct {
	seq  uint64
	subs map[id.Process]*lease
}

// Stats is a point-in-time summary of the registry.
type Stats struct {
	// Clients is the number of distinct subscribed client processes.
	Clients int
	// Leases is the number of (client, group) subscriptions.
	Leases int
}

// Registry is the sharded subscriber registry of one service node.
type Registry struct {
	cfg    Config
	shards []*shard
	groups map[id.Group]*groupPub
	leases int

	sweepTimer clock.Rearmer
	sweepShard int
	sweepOn    bool
	// minTTL is the smallest lease granted since the registry last
	// emptied: the sweep cadence derives from it, so short-lease clients
	// are re-advertised inside THEIR ttl/3, not the default one. It only
	// shrinks (re-deriving a rising minimum on every expiry would buy
	// little and cost a scan); an empty registry resets it.
	minTTL time.Duration

	// clientScratch and groupScratch are reusable sorted-key buffers for
	// the fan-out and sweep iterations: a leader-change under 10k
	// subscribers must not allocate a fresh key slice per publication.
	// Safe as registry fields because the registry is single-threaded and
	// nothing downstream of a send re-enters the iterations.
	clientScratch []id.Process
	groupScratch  []id.Group

	stopped bool
}

// New returns an empty registry.
func New(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	r := &Registry{cfg: cfg, groups: make(map[id.Group]*groupPub)}
	r.shards = make([]*shard, cfg.Shards)
	for i := range r.shards {
		r.shards[i] = &shard{clients: make(map[id.Process]*clientSub)}
	}
	r.sweepTimer = clock.NewTimer(cfg.Clock, r.sweep)
	return r
}

// sweepEvery is the sweep timer period: each shard is visited once per
// minTTL/3 — the re-advertisement cadence that keeps every client's
// cache fresh through one lost datagram inside its own lease (the
// per-lease now-lastSnap check prevents over-sending to longer leases).
func (r *Registry) sweepEvery() time.Duration {
	ttl := r.minTTL
	if ttl <= 0 {
		ttl = r.cfg.DefaultLease
	}
	return ttl / 3 / time.Duration(r.cfg.Shards)
}

// shardFor hashes a client id onto a shard (FNV-1a).
func (r *Registry) shardFor(p id.Process) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= prime64
	}
	return r.shards[h%uint64(len(r.shards))]
}

// clampTTL applies the registry's lease bounds.
func (r *Registry) clampTTL(ns int64) time.Duration {
	ttl := time.Duration(ns)
	if ttl <= 0 {
		return r.cfg.DefaultLease
	}
	if ttl < r.cfg.MinTTL {
		return r.cfg.MinTTL
	}
	if ttl > r.cfg.MaxTTL {
		return r.cfg.MaxTTL
	}
	return ttl
}

// Stats summarises the current registration state.
func (r *Registry) Stats() Stats {
	s := Stats{Leases: r.leases}
	for _, sh := range r.shards {
		s.Clients += len(sh.clients)
	}
	return s
}

// HandleSubscribe registers (or refreshes) one client's subscription and
// answers with an immediate snapshot. Unserved groups and a full registry
// answer with a tombstone: the client's cue to try another endpoint. A
// subscribe from a superseded client lifetime is dropped silently — a
// tombstone would reach the client's CURRENT lifetime (tombstones carry
// no client incarnation) and tear down its healthy subscription.
func (r *Registry) HandleSubscribe(m *wire.Subscribe) {
	if r.stopped {
		return
	}
	r.cfg.Obs.Inc(obs.CSubscribes)
	view, ok := r.cfg.Leader(m.Group)
	if !ok {
		r.sendTombstone(m.Sender, m.Group, View{}, false)
		return
	}
	l, staleLifetime := r.ensureLease(m.Group, m.Sender, m.Incarnation, m.TTL)
	if staleLifetime {
		return
	}
	if l == nil {
		r.sendTombstone(m.Sender, m.Group, view, false)
		return
	}
	gp := r.groups[m.Group]
	gp.seq++
	r.sendSnapshot(l, gp.seq, view)
}

// HandleRenew extends a lease. An unknown registration (expired, or from a
// restarted node) is healed by treating the renew as a fresh subscribe —
// the client keeps working across server restarts without tracking them.
func (r *Registry) HandleRenew(m *wire.LeaseRenew) {
	if r.stopped {
		return
	}
	r.cfg.Obs.Inc(obs.CRenews)
	sh := r.shardFor(m.Sender)
	cs := sh.clients[m.Sender]
	if cs != nil && cs.inc == m.Incarnation {
		if l := cs.leases[m.Group]; l != nil {
			l.ttl = r.clampTTL(m.TTL)
			l.timer.Reset(l.ttl)
			return
		}
	}
	r.HandleSubscribe(&wire.Subscribe{
		Group: m.Group, Sender: m.Sender, Incarnation: m.Incarnation, TTL: m.TTL,
	})
}

// HandleUnsubscribe withdraws one lease. The incarnation must match: a
// reordered unsubscribe from a client's previous lifetime must not tear
// down its successor.
func (r *Registry) HandleUnsubscribe(m *wire.Unsubscribe) {
	if r.stopped {
		return
	}
	r.cfg.Obs.Inc(obs.CUnsubscribes)
	sh := r.shardFor(m.Sender)
	cs := sh.clients[m.Sender]
	if cs == nil || cs.inc != m.Incarnation {
		return
	}
	if l := cs.leases[m.Group]; l != nil {
		r.dropLease(l)
	}
}

// PublishLeaderChange fans the new view out to every subscriber of g on
// the coalescing path — the interrupt-mode notification of the client
// plane, fired from the node's leader-change edge.
func (r *Registry) PublishLeaderChange(g id.Group, v View) {
	if r.stopped {
		return
	}
	gp := r.groups[g]
	if gp == nil || len(gp.subs) == 0 {
		return
	}
	gp.seq++
	r.clientScratch = id.AppendSortedMapKeys(r.clientScratch[:0], gp.subs)
	for _, c := range r.clientScratch {
		r.sendSnapshot(gp.subs[c], gp.seq, v)
	}
}

// PublishTombstone tells every subscriber of g that this node stopped
// serving it (graceful leave or shutdown), urgently — the transport may be
// about to close — and drops their leases.
func (r *Registry) PublishTombstone(g id.Group, v View) {
	if r.stopped {
		return
	}
	gp := r.groups[g]
	if gp == nil || len(gp.subs) == 0 {
		return
	}
	// The scratch snapshot (not live map iteration) is what makes the
	// dropLease mutations below safe.
	r.clientScratch = id.AppendSortedMapKeys(r.clientScratch[:0], gp.subs)
	for _, c := range r.clientScratch {
		l := gp.subs[c]
		if v.Successor != "" {
			r.sendSuccessorHint(l, v)
		}
		r.sendTombstone(c, g, v, true)
		r.dropLease(l)
	}
}

// sendSuccessorHint emits the where-to-next half of a goodbye: the member
// the departing leader handed the group to. It stages on the coalescing
// path so the urgent tombstone that follows flushes both in one datagram,
// hint first — a client that receives the pair fails over to the successor
// with no stale window, and one that sees only a lone or reordered
// tombstone (the hint's lower sequence is then rejected) degrades to the
// plain probing failover.
func (r *Registry) sendSuccessorHint(l *lease, v View) {
	gp := r.groups[l.group]
	gp.seq++
	r.cfg.Send(l.sub.client, &wire.SuccessorHint{
		Group:        l.group,
		Sender:       r.cfg.Self,
		Incarnation:  r.cfg.Incarnation,
		Seq:          gp.seq,
		Successor:    v.Successor,
		SuccessorInc: v.SuccessorInc,
		At:           viewAt(v),
		Lease:        int64(l.ttl),
	}, false)
}

// Stop halts the registry's timers without announcing anything (crash
// semantics; graceful paths publish tombstones through the core's leave).
func (r *Registry) Stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	r.sweepTimer.Stop()
	for _, sh := range r.shards {
		for _, cs := range sh.clients {
			for _, l := range cs.leases {
				l.timer.Stop()
			}
		}
	}
}

// ensureLease finds or creates the lease for (client, g) under the client
// lifetime inc, extending its expiry. A nil lease means the registry is
// full; staleLifetime reports a message from before the client's restart,
// which callers must ignore entirely.
func (r *Registry) ensureLease(g id.Group, client id.Process, inc int64, ttlNS int64) (l *lease, staleLifetime bool) {
	sh := r.shardFor(client)
	cs := sh.clients[client]
	if cs != nil && inc < cs.inc {
		return nil, true
	}
	if cs != nil && inc > cs.inc {
		// The client restarted: its old leases die with the old lifetime.
		for _, gid := range id.SortedMapKeys(cs.leases) {
			r.dropLease(cs.leases[gid])
		}
		cs = nil
	}
	if cs == nil {
		if r.leases >= r.cfg.MaxLeases {
			return nil, false
		}
		cs = &clientSub{client: client, inc: inc, leases: make(map[id.Group]*lease)}
		sh.clients[client] = cs
	}
	l = cs.leases[g]
	if l == nil {
		if r.leases >= r.cfg.MaxLeases {
			if len(cs.leases) == 0 {
				delete(sh.clients, client)
			}
			return nil, false
		}
		l = &lease{sub: cs, group: g}
		l.timer = clock.NewTimer(r.cfg.Clock, func() { r.expire(l) })
		cs.leases[g] = l
		gp := r.groups[g]
		if gp == nil {
			gp = &groupPub{subs: make(map[id.Process]*lease)}
			r.groups[g] = gp
		}
		gp.subs[client] = l
		r.leases++
	}
	l.ttl = r.clampTTL(ttlNS)
	l.timer.Reset(l.ttl)
	if r.minTTL == 0 || l.ttl < r.minTTL {
		shrunk := r.sweepOn && r.minTTL != 0
		r.minTTL = l.ttl
		if shrunk {
			// A finer cadence is now owed; the pending tick may be a full
			// old period away.
			r.sweepTimer.Reset(r.sweepEvery())
		}
	}
	if !r.sweepOn {
		r.sweepOn = true
		r.sweepTimer.Reset(r.sweepEvery())
	}
	return l, false
}

// dropLease removes one lease and stops its timer (idempotent).
func (r *Registry) dropLease(l *lease) {
	if l.removed {
		return
	}
	l.removed = true
	l.timer.Stop()
	delete(l.sub.leases, l.group)
	if len(l.sub.leases) == 0 {
		delete(r.shardFor(l.sub.client).clients, l.sub.client)
	}
	if gp := r.groups[l.group]; gp != nil {
		delete(gp.subs, l.sub.client)
		// gp itself stays for the node's lifetime even with no
		// subscribers: its Seq must never restart, or a client that
		// re-subscribes mid-stream would reject the fresh snapshots as
		// reordered duplicates of its higher last-seen sequence.
	}
	r.leases--
	if r.leases == 0 {
		r.minTTL = 0
		if r.sweepOn {
			r.sweepOn = false
			r.sweepTimer.Stop()
		}
	}
}

// expire is a lease timer's callback: the lease went a whole ttl
// unrenewed, so its client is presumed gone. A lease already dropped (a
// timer whose Stop lost the race with its fire, on a clock that allows
// one) is left alone.
func (r *Registry) expire(l *lease) {
	if r.stopped || l.removed {
		return
	}
	r.cfg.Obs.Inc(obs.CLeaseExpiries)
	r.dropLease(l)
}

// sweep visits one shard per tick, re-advertising the current view to
// every lease that has not seen a snapshot for ttl/3 — loss repair and
// freshness bound in one staggered pass, never touching more than
// 1/shards of the population at once.
func (r *Registry) sweep() {
	if r.stopped {
		return
	}
	sh := r.shards[r.sweepShard]
	r.sweepShard = (r.sweepShard + 1) % len(r.shards)
	now := r.cfg.Clock.Now()
	// One tick of slack on the due check: a shard is revisited every
	// ticks×shards ≈ ttl/3, and without the slack a lease aging to
	// threshold just after its visit (or a rounding hair under it) waits
	// a whole extra round — halving the cadence its staleness bound needs.
	slack := r.sweepEvery()
	// Views and sequence bumps are resolved at most once per group per
	// tick; a nil entry marks a group the Leader callback disowned.
	type tickView struct {
		seq uint64
		v   View
		ok  bool
	}
	views := make(map[id.Group]*tickView)
	r.clientScratch = id.AppendSortedMapKeys(r.clientScratch[:0], sh.clients)
	for _, c := range r.clientScratch {
		cs := sh.clients[c]
		if cs == nil {
			continue // dropped by an earlier iteration of this tick
		}
		r.groupScratch = id.AppendSortedMapKeys(r.groupScratch[:0], cs.leases)
		for _, g := range r.groupScratch {
			l := cs.leases[g]
			if l == nil {
				continue
			}
			if now.Sub(l.lastSnap) < l.ttl/3-slack {
				continue
			}
			tv := views[g]
			if tv == nil {
				tv = &tickView{}
				tv.v, tv.ok = r.cfg.Leader(g)
				if tv.ok {
					gp := r.groups[g]
					gp.seq++
					tv.seq = gp.seq
				}
				views[g] = tv
			}
			if !tv.ok {
				// The node no longer serves g (shouldn't happen: leave
				// publishes tombstones and drops leases) — heal anyway.
				r.sendTombstone(c, g, View{}, false)
				r.dropLease(l)
				continue
			}
			r.sendSnapshot(l, tv.seq, tv.v)
		}
	}
	if r.sweepOn {
		r.sweepTimer.Reset(r.sweepEvery())
	}
}

// viewAt encodes a view's adoption time, mapping the zero time to zero.
func viewAt(v View) int64 {
	if v.At.IsZero() {
		return 0
	}
	return v.At.UnixNano()
}

// sendSnapshot emits one lease-stamped snapshot on the coalescing path.
// The struct comes from the send pool: under a 10k-subscriber fan-out the
// per-subscriber snapshot is the dominant allocation, and the consuming
// host recycles it the moment the bytes hit the wire (the view itself is
// shared by value — only the lease stamp differs per subscriber).
func (r *Registry) sendSnapshot(l *lease, seq uint64, v View) {
	r.cfg.Obs.Inc(obs.CSnapshotsSent)
	l.lastSnap = r.cfg.Clock.Now()
	m := wire.GetLeaderSnapshot()
	*m = wire.LeaderSnapshot{
		Group:             l.group,
		Sender:            r.cfg.Self,
		Incarnation:       r.cfg.Incarnation,
		Seq:               seq,
		Elected:           v.Elected,
		Leader:            v.Leader,
		LeaderIncarnation: v.Incarnation,
		At:                viewAt(v),
		Lease:             int64(l.ttl),
	}
	r.cfg.Send(l.sub.client, m, false) //leadervet:handoff — the host's send path releases it
}

// sendTombstone emits a final "not serving this group" snapshot. The last
// known view rides along as a stale hint for the client's failover. Each
// tombstone bumps the group's sequence so it passes the client's
// ordering guard like any snapshot — a duplicated old tombstone must not
// be able to tear down a later, healthy subscription. Unknown groups
// deliberately get seq 0 rather than a groupPub allocation: a spray of
// subscribes for unique group names must not grow server state, and the
// receiving client is necessarily on a fresh stream (no guard to pass).
func (r *Registry) sendTombstone(to id.Process, g id.Group, v View, urgent bool) {
	r.cfg.Obs.Inc(obs.CTombstones)
	var seq uint64
	if gp := r.groups[g]; gp != nil {
		gp.seq++
		seq = gp.seq
	}
	m := wire.GetLeaderSnapshot()
	*m = wire.LeaderSnapshot{
		Group:             g,
		Sender:            r.cfg.Self,
		Incarnation:       r.cfg.Incarnation,
		Seq:               seq,
		Elected:           v.Elected,
		Leader:            v.Leader,
		LeaderIncarnation: v.Incarnation,
		Tombstone:         true,
		At:                viewAt(v),
	}
	r.cfg.Send(to, m, urgent) //leadervet:handoff — the host's send path releases it
}
