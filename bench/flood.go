package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	stableleader "stableleader"
	"stableleader/id"
	"stableleader/internal/wire"
	"stableleader/transport"
)

// The flood workloads: one Service saturated over real UDP by four synthetic
// peers, closed loop. flood_coalesced sends batch envelopes of 16 ALIVEs
// (846 B), so decode and the protocol handlers do most of the work and the
// syscall is amortised 16 times; flood_bare sends one ALIVE per datagram
// (81 B, the smallest packet), so the receive syscall, steering and the ring
// hop do most of the work and the handlers little. A gain in wire or core
// should move the first and leave the second flat, and the other way round
// for transport.
const (
	floodGroups  = 16
	floodPeers   = 4
	floodSenders = 2 // sender goroutines, one socket each, two peers each
	floodSockBuf = 4 << 20
	// floodBurst datagrams go out per SendBatch; at most floodWindow are
	// in flight per sender before it waits for the Service to catch up.
	floodBurst  = 32
	floodWindow = 256
	// floodStall is how long the dispatched count may stand still with
	// datagrams in flight before they are declared lost.
	floodStall = 200 * time.Millisecond
	floodDrain = 2 * time.Second
	floodSUT   = id.Process("sut")
	// floodInterval is the heartbeat interval the synthetic peers claim.
	floodInterval = 100 * time.Millisecond
)

type flood struct {
	o         *runOpts
	name      string
	perDgram  int // ALIVEs per datagram
	tr        *transport.UDP
	svc       *stableleader.Service
	groups    []*stableleader.Group
	senders   []*floodSender
	watchers  sync.WaitGroup
	armed     atomic.Bool
	spurious  atomic.Int64 // suspicions of peers that never stopped sending
	demotions atomic.Int64 // leader changes during the measured window
}

// floodSender is one generator goroutine: a socket and the ALIVE streams of
// two synthetic peers.
type floodSender struct {
	tr *transport.UDP
	// alive[p][g] is peer p's heartbeat for group g, updated in place.
	alive [][]*wire.Alive
	batch wire.Batch
	bufs  [floodBurst][]byte
	dgs   [floodBurst]transport.Datagram
	next  int // bare mode: which (peer, group) stream sends next
}

func setupFlood(name string, perDgram int) func(context.Context, *runOpts) (instance, error) {
	return func(ctx context.Context, o *runOpts) (instance, error) {
		f := &flood{o: o, name: name, perDgram: perDgram}
		if err := f.setup(ctx); err != nil {
			f.close(ctx)
			return nil, err
		}
		return f, nil
	}
}

func peerName(p int) id.Process { return id.Process(fmt.Sprintf("p%d", p)) }

func floodGroup(g int) id.Group { return id.Group(fmt.Sprintf("g%02d", g)) }

func newFloodSender(tr *transport.UDP) *floodSender {
	s := &floodSender{tr: tr}
	for i := range s.bufs {
		s.bufs[i] = make([]byte, 0, 1024)
	}
	return s
}

// addPeer gives the sender synthetic peer p's heartbeat streams, one per
// group, and returns the JOINs that announce the peer. Its accusation time
// is its incarnation, "now": later than the Service's own join time, so the
// Service leads every group and keeps serving while flooded.
func (s *floodSender) addPeer(p int, inc int64) (joins []wire.Message) {
	var streams []*wire.Alive
	for g := 0; g < floodGroups; g++ {
		joins = append(joins, &wire.Join{Group: floodGroup(g), Sender: peerName(p), Incarnation: inc, Candidate: true})
		streams = append(streams, &wire.Alive{Group: floodGroup(g), Sender: peerName(p), Incarnation: inc,
			Interval: int64(floodInterval), AccTime: inc})
	}
	s.alive = append(s.alive, streams)
	return joins
}

func (f *flood) setup(ctx context.Context) error {
	tr, err := transport.NewUDP(loopback, nil, transport.WithSocketBuffers(floodSockBuf))
	if err != nil {
		return fmt.Errorf("open socket: %w", err)
	}
	f.tr = tr
	sut := tr.LocalAddr().String()
	for s := 0; s < floodSenders; s++ {
		gtr, err := transport.NewUDP(loopback, map[id.Process]string{floodSUT: sut},
			transport.WithSocketBuffers(floodSockBuf))
		if err != nil {
			return fmt.Errorf("open generator socket: %w", err)
		}
		f.senders = append(f.senders, newFloodSender(gtr))
		for p := s * floodPeers / floodSenders; p < (s+1)*floodPeers/floodSenders; p++ {
			if err := tr.SetPeer(peerName(p), gtr.LocalAddr().String()); err != nil {
				return err
			}
		}
	}
	if f.svc, err = stableleader.New(floodSUT, tr); err != nil {
		return fmt.Errorf("start service: %w", err)
	}
	for g := 0; g < floodGroups; g++ {
		grp, err := f.svc.Join(ctx, floodGroup(g), stableleader.AsCandidate())
		if err != nil {
			return fmt.Errorf("join %s: %w", floodGroup(g), err)
		}
		f.groups = append(f.groups, grp)
		events := grp.Watch(context.Background(),
			stableleader.WithEventFilter(stableleader.KindLeaderChanged, stableleader.KindMemberSuspected))
		f.watchers.Add(1)
		go func() {
			defer f.watchers.Done()
			for ev := range events {
				if !f.armed.Load() {
					continue
				}
				switch ev.(type) {
				case stableleader.LeaderChanged:
					f.demotions.Add(1)
				case stableleader.MemberSuspected:
					f.spurious.Add(1)
				}
			}
		}()
	}
	// The peers join with a seed-rotated id order, then heartbeat.
	inc := time.Now().UnixNano()
	const perSender = floodPeers / floodSenders
	for s, snd := range f.senders {
		var joins []transport.Datagram
		for k := 0; k < perSender; k++ {
			for _, j := range snd.addPeer(s*perSender+(k+int(f.o.seed))%perSender, inc) {
				joins = append(joins, transport.Datagram{To: floodSUT, Payload: wire.Marshal(j)})
			}
		}
		if _, err := snd.tr.SendBatch(joins); err != nil {
			return fmt.Errorf("send JOINs: %w", err)
		}
	}
	// Ready when the Service knows all four peers in every group and has
	// elected (itself) everywhere; one heartbeat per stream makes the
	// failure detector trust each peer before the flood starts.
	deadline := time.Now().Add(10 * time.Second)
	for _, grp := range f.groups {
		for {
			rows, err := grp.Status(ctx)
			li, lerr := grp.Leader(ctx)
			if err == nil && lerr == nil && len(rows) == floodPeers+1 && li.Elected {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("group %s never absorbed its peers (%d rows, elected=%v)", grp.ID(), len(rows), li.Elected)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// fill marshals the next burst of datagrams with live send times and
// sequence numbers and returns how many ALIVEs it carries.
func (s *floodSender) fill(perDgram int) int {
	now := time.Now().UnixNano()
	streams := len(s.alive) * floodGroups
	for i := range s.dgs {
		var m wire.Message
		if perDgram == 1 {
			a := s.alive[s.next%len(s.alive)][(s.next/len(s.alive))%floodGroups]
			s.next = (s.next + 1) % streams
			a.Seq++
			a.SendTime = now
			m = a
		} else {
			// One envelope carries one heartbeat per group of one peer:
			// batches never mix senders.
			peer := s.alive[s.next%len(s.alive)]
			s.next++
			s.batch.Msgs = s.batch.Msgs[:0]
			for _, a := range peer[:perDgram] {
				a.Seq++
				a.SendTime = now
				s.batch.Msgs = append(s.batch.Msgs, a)
			}
			m = &s.batch
		}
		s.bufs[i] = wire.MarshalAppend(s.bufs[i][:0], m)
		s.dgs[i] = transport.Datagram{To: floodSUT, Payload: s.bufs[i]}
	}
	return len(s.dgs) * perDgram
}

func (f *flood) measure(ctx context.Context, r *result) error {
	// Warm up: every stream trusted, pools filled, then quiesce so the
	// measured window starts with nothing in flight.
	warm, cancel := context.WithTimeout(ctx, f.o.scale(500*time.Millisecond))
	if _, lost := f.pump(warm); lost > 0 {
		cancel()
		return fmt.Errorf("%d messages lost during warm-up", lost)
	}
	cancel()
	f.armed.Store(true)

	m := &meter{nodes: 1, stats: f.svc.PacketStats}
	p := &prober{agreed: f.agreed}
	in0 := f.svc.PacketStats().MessagesIn
	m.start(f.o.measure)
	p.start()
	t0 := time.Now()
	run, cancel := context.WithTimeout(ctx, f.o.measure)
	sent, lost := f.pump(run)
	cancel()
	elapsed := time.Since(t0)
	p.stop()
	m.stop(r)
	f.armed.Store(false)

	dispatched := f.svc.PacketStats().MessagesIn - in0
	spurious, demotions := f.spurious.Load(), f.demotions.Load()
	r.Attempted = sent
	r.Failed = lost + spurious + demotions
	if dispatched != sent-lost {
		r.fail(fmt.Sprintf("MessagesIn grew by %d, want %d sent - %d lost", dispatched, sent, lost))
	}
	r.Metrics["inbound_msgs_per_s"] = float64(dispatched) / elapsed.Seconds()
	r.Metrics["leader_availability"] = p.availability()
	r.Metrics["heap_live_mb"] = heapLiveMB()
	r.Metrics["flood.spurious_suspicions"] = float64(spurious)
	r.Metrics["flood.demotions"] = float64(demotions)
	r.Metrics["flood.lost_msgs"] = float64(lost)
	if spurious+demotions > 0 {
		f.o.dumpFlight(ctx, f.name, f.svc)
	}
	if f.o.traced && f.perDgram > 1 {
		r.Metrics["trace.overhead_pct"] = f.traceOverhead(ctx)
	}
	return nil
}

// traceOverhead floods the same Service in short alternating segments with
// span recording off and on, and returns by how much the traced segments'
// median CPU per message exceeds the untraced ones', in percent. The
// coalesced flood records a span per send burst, more than any other
// workload, and alternating on one instance keeps the host's slow drift out
// of the difference.
func (f *flood) traceOverhead(ctx context.Context) float64 {
	const segments = 8
	tr := f.o.tr
	defer func() { f.o.tr = tr }()
	var on, off []float64
	for i := 0; i < segments; i++ {
		if f.o.tr = nil; i%2 == 1 {
			f.o.tr = tr
		}
		seg, cancel := context.WithTimeout(ctx, f.o.scale(500*time.Millisecond))
		cpu0 := processCPU()
		sent, lost := f.pump(seg)
		cancel()
		perMsg := float64(processCPU()-cpu0) / float64(max(sent-lost, 1))
		if i%2 == 1 {
			on = append(on, perMsg)
		} else {
			off = append(off, perMsg)
		}
	}
	return 100 * (median(on) - median(off)) / median(off)
}

// agreed: the flooded Service still names an elected leader in every group.
func (f *flood) agreed() bool {
	for _, grp := range f.groups {
		if li, err := grp.Leader(context.Background()); err != nil || !li.Elected {
			return false
		}
	}
	return true
}

// pump floods the Service from every sender until ctx ends, then waits for
// the Service to dispatch what is in flight. It returns the ALIVEs sent and
// the ALIVEs that never arrived.
func (f *flood) pump(ctx context.Context) (sent, lost int64) {
	base := f.svc.PacketStats().MessagesIn
	var sentA, lostA atomic.Int64
	// inFlight is what the generator has sent and the Service has neither
	// dispatched nor been declared to have lost.
	inFlight := func() int64 {
		return sentA.Load() - lostA.Load() - (f.svc.PacketStats().MessagesIn - base)
	}
	limit := int64(floodSenders * floodWindow * f.perDgram)
	var wg sync.WaitGroup
	for si, s := range f.senders {
		wg.Add(1)
		go func(si int, s *floodSender) {
			defer wg.Done()
			var round int64
			for ctx.Err() == nil {
				stalled := time.Now()
				last := inFlight()
				for last > limit-int64(floodBurst*f.perDgram) && ctx.Err() == nil {
					time.Sleep(50 * time.Microsecond)
					now := inFlight()
					switch {
					case now != last:
						last, stalled = now, time.Now()
					case si == 0 && time.Since(stalled) > floodStall:
						// Nothing moved: the kernel dropped them. Write
						// them off so the loop keeps going; they count as
						// failed operations.
						lostA.Add(now)
						last = 0
					}
				}
				sp := f.o.tr.begin("gen.marshal_send."+f.name, -1, round)
				n := s.fill(f.perDgram)
				ok, _ := s.tr.SendBatch(s.dgs[:])
				f.o.tr.end(sp)
				sentA.Add(int64(n))
				// What the socket refused was never sent: a failed operation.
				lostA.Add(int64((len(s.dgs) - ok) * f.perDgram))
				round++
			}
		}(si, s)
	}
	wg.Wait()
	deadline := time.Now().Add(f.o.scale(floodDrain))
	for inFlight() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rest := inFlight(); rest > 0 {
		lostA.Add(rest)
	}
	return sentA.Load(), lostA.Load()
}

func (f *flood) close(ctx context.Context) {
	if f.svc != nil {
		_ = f.svc.Close(ctx)
	} else if f.tr != nil {
		_ = f.tr.Close()
	}
	f.watchers.Wait()
	for _, s := range f.senders {
		_ = s.tr.Close()
	}
}
