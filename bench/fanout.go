package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	stableleader "stableleader"
	"stableleader/id"
	"stableleader/internal/wire"
	"stableleader/transport"
)

// The client_fanout workload: the write side of the packet plane. Three
// Services with the client plane on — n00 and n01 candidates, n02 a
// non-candidate member and the node under test. 2000 synthetic clients hold
// leases on all four groups at n02 through one generator socket and renew
// them every TTL/3. Every 100 ms the leader deposes itself in all four
// groups at once; n02 learns of it in one HANDOVER per group and fans 8000
// snapshots out (subs → outbound coalescing → marshal → sendmmsg/GSO). The
// floods load the read side; a receive-path gain bought at the send path's
// expense shows here. It is also the only workload where subs dominates.
const (
	fanoutNodes   = 3
	fanoutGroups  = 4
	fanoutSUT     = 2
	fanoutTdU     = time.Second
	fanoutClients = 2000
	fanoutLeases  = fanoutClients * fanoutGroups
	fanoutTTL     = 3 * time.Second
	fanoutPeriod  = 100 * time.Millisecond
	fanoutLimit   = time.Second
	// renewals go out in ticks of renewTick; every client renews all its
	// leases once per TTL/3.
	renewTick = 10 * time.Millisecond
)

type fanout struct {
	o   *runOpts
	c   *cluster
	gen *transport.UDP
	// subscribe[k] and renew[k] are client k's pre-marshalled datagrams:
	// one batch envelope with a message per group.
	subscribe, renew []transport.Datagram

	dec  *wire.Decoder // generator receive path, read-loop goroutine only
	msgs []wire.Message

	mu sync.Mutex
	// curAt[g] and have[g] count the snapshots of group g's latest view
	// (keyed by its adoption time at n02) that reached the generator, and
	// leaderOf[g] is the leader they name.
	curAt    [fanoutGroups]int64
	have     [fanoutGroups]int
	leaderOf [fanoutGroups]id.Process
	wrong    int64
	round    *fanoutRound
}

// fanoutRound is one "depose everything" change being timed.
type fanoutRound struct {
	t0        time.Time
	old       id.Process
	noticed   int       // n02's LeaderChanged events naming the successor
	noticeAt  time.Time // the last of them
	firstAt   time.Time // first snapshot naming the successor
	lastAt    time.Time // the snapshot that completed the fan-out
	done      chan struct{}
	completed bool
}

func setupFanout(ctx context.Context, o *runOpts) (instance, error) {
	f := &fanout{o: o, dec: wire.NewDecoder()}
	first := int(o.seed) % 2
	c, err := startCluster(ctx, clusterConfig{
		nodes:       fanoutNodes,
		groups:      fanoutGroups,
		tdu:         fanoutTdU,
		candidate:   func(n int) bool { return n != fanoutSUT },
		firstJoiner: func(int) int { return first },
		svcOpts:     []stableleader.Option{stableleader.WithClientPlane()},
		udpOpts:     []transport.UDPOption{transport.WithSocketBuffers(floodSockBuf)},
		onEvent:     f.onEvent,
	})
	if err != nil {
		return nil, err
	}
	f.c = c
	fail := func(err error) (instance, error) {
		f.close(ctx)
		return nil, err
	}
	sut := c.nodes[fanoutSUT]
	if f.gen, err = transport.NewUDP(loopback, map[id.Process]string{sut.name: sut.addr},
		transport.WithSocketBuffers(floodSockBuf)); err != nil {
		return fail(fmt.Errorf("open generator socket: %w", err))
	}
	f.gen.Receive(f.onDatagram)
	if err := c.waitAgreed(ctx, 20*fanoutTdU); err != nil {
		return fail(err)
	}

	inc := time.Now().UnixNano()
	for k := 0; k < fanoutClients; k++ {
		// The seed permutes client ids, and with them the registry's shard
		// and sort order.
		name := id.Process(fmt.Sprintf("c%04d", (k*7919+int(o.seed))%10000))
		var sub, ren wire.Batch
		for _, gid := range c.gids {
			sub.Msgs = append(sub.Msgs, &wire.Subscribe{Group: gid, Sender: name, Incarnation: inc, TTL: int64(fanoutTTL)})
			ren.Msgs = append(ren.Msgs, &wire.LeaseRenew{Group: gid, Sender: name, Incarnation: inc, TTL: int64(fanoutTTL)})
		}
		f.subscribe = append(f.subscribe, transport.Datagram{To: sut.name, Payload: wire.Marshal(&sub)})
		f.renew = append(f.renew, transport.Datagram{To: sut.name, Payload: wire.Marshal(&ren)})
	}
	// Subscribe in paced chunks; a SUBSCRIBE is idempotent, so whatever a
	// full socket buffer dropped is simply sent again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		for i := 0; i < len(f.subscribe); i += 64 {
			if _, err := f.gen.SendBatch(f.subscribe[i:min(i+64, len(f.subscribe))]); err != nil {
				return fail(fmt.Errorf("send SUBSCRIBEs: %w", err))
			}
			time.Sleep(200 * time.Microsecond)
		}
		var st stableleader.ClientStats
		for wait := time.Now().Add(200 * time.Millisecond); time.Now().Before(wait); time.Sleep(time.Millisecond) {
			if st, err = sut.svc.ClientStats(ctx); err != nil {
				return fail(err)
			}
			if st.Leases == fanoutLeases {
				break
			}
		}
		if st.Leases == fanoutLeases {
			break
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("%d of %d leases registered", st.Leases, fanoutLeases))
		}
	}
	return f, nil
}

// onEvent watches n02 notice each change.
func (f *fanout) onEvent(n, _ int, ev stableleader.Event, at time.Time) {
	lc, ok := ev.(stableleader.LeaderChanged)
	if !ok || n != fanoutSUT {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if r := f.round; r != nil && lc.Info.Elected && lc.Info.Leader != r.old {
		r.noticed++
		r.noticeAt = at
	}
}

// onDatagram is the generator's receive path: every snapshot n02 sends to
// any of the 2000 clients lands here.
func (f *fanout) onDatagram(payload []byte) {
	at := time.Now()
	var err error
	if f.msgs, err = f.dec.DecodeAppend(f.msgs[:0], payload); err != nil {
		return
	}
	f.mu.Lock()
	for _, m := range f.msgs {
		if s, ok := m.(*wire.LeaderSnapshot); ok {
			f.onSnapshot(s, at)
		}
	}
	f.mu.Unlock()
	for _, m := range f.msgs {
		f.dec.Release(m)
	}
}

func (f *fanout) onSnapshot(s *wire.LeaderSnapshot, at time.Time) {
	g := f.c.groupIndex(s.Group)
	if g < 0 || s.Tombstone || !s.Elected || f.c.index(s.Leader) < 0 || f.c.index(s.Leader) == fanoutSUT {
		f.wrong++
		return
	}
	switch {
	case s.At > f.curAt[g]:
		f.curAt[g], f.have[g], f.leaderOf[g] = s.At, 1, s.Leader
	case s.At == f.curAt[g]:
		f.have[g]++
	default:
		return // a snapshot of an older view, overtaken on the way
	}
	r := f.round
	if r == nil || r.completed || s.Leader == r.old {
		return
	}
	if r.firstAt.IsZero() {
		r.firstAt = at
	}
	for g := range f.have {
		if f.have[g] < fanoutClients || f.leaderOf[g] == r.old {
			return
		}
	}
	r.lastAt, r.completed = at, true
	close(r.done)
}

func (f *fanout) measure(ctx context.Context, res *result) error {
	sut := f.c.nodes[fanoutSUT]
	m := &meter{nodes: fanoutNodes, stats: f.c.packetStats}
	p := &prober{agreed: func() bool { return f.c.agreed(ctx) }, also: f.current}
	m.start(f.o.measure)
	p.start()

	// Renewals: an open-loop schedule of their own, independent of the
	// change rounds.
	rctx, stopRenew := context.WithCancel(ctx)
	var renewing sync.WaitGroup
	renewing.Add(1)
	go func() {
		defer renewing.Done()
		f.renewLoop(rctx)
	}()

	var complete, notice, first, drain []float64
	start := time.Now()
	for k := int64(0); ; k++ {
		due := start.Add(time.Duration(k) * fanoutPeriod)
		if !due.Add(fanoutPeriod).Before(start.Add(f.o.measure)) {
			break
		}
		sleepCtx(ctx, time.Until(due))
		leader, ok := f.c.leaderOf(ctx, 0)
		if !ok {
			continue
		}
		res.Attempted += fanoutLeases
		root := f.o.tr.begin("fanout.round", -1, k)
		r := &fanoutRound{old: f.c.names[leader], done: make(chan struct{})}
		f.mu.Lock()
		f.round = r
		r.t0 = time.Now()
		f.mu.Unlock()
		call := f.o.tr.begin("service.Depose", root, k)
		var derr error
		for g := range f.c.gids {
			if err := f.c.nodes[leader].groups[g].Depose(ctx); err != nil {
				derr = err
			}
		}
		f.o.tr.end(call)
		wait := f.o.tr.begin("fanout.await_snapshots", root, k)
		t := time.NewTimer(fanoutLimit)
		select {
		case <-r.done:
		case <-t.C:
		}
		t.Stop()
		f.o.tr.end(wait)
		f.o.tr.end(root)
		f.mu.Lock()
		f.round = nil
		missing := 0
		for g := range f.have {
			if f.leaderOf[g] == r.old {
				missing += fanoutClients
			} else if f.have[g] < fanoutClients {
				missing += fanoutClients - f.have[g]
			}
		}
		f.mu.Unlock()
		if !r.completed {
			res.Failed += int64(missing)
			if derr != nil {
				fmt.Fprintf(os.Stderr, "bench: client_fanout: round %d: Depose: %v\n", k, derr)
			}
			continue
		}
		ms := func(t time.Time) float64 { return float64(t.Sub(r.t0)) / float64(time.Millisecond) }
		complete = append(complete, ms(r.lastAt))
		first = append(first, ms(r.firstAt))
		drain = append(drain, ms(r.lastAt)-ms(r.firstAt))
		if r.noticed >= fanoutGroups {
			notice = append(notice, ms(r.noticeAt))
		}
	}
	sleepCtx(ctx, time.Until(start.Add(f.o.measure)))
	stopRenew()
	renewing.Wait()
	p.stop()
	m.stop(res)

	f.mu.Lock()
	wrong := f.wrong
	f.mu.Unlock()
	res.Failed += wrong
	if wrong > 0 {
		res.fail(fmt.Sprintf("%d snapshots named no member as leader", wrong))
	}
	st, err := sut.svc.ClientStats(ctx)
	if err != nil {
		return err
	}
	if st.Leases != fanoutLeases {
		res.fail(fmt.Sprintf("%d leases at n02 after the run, want %d", st.Leases, fanoutLeases))
	}
	put := res.putPercentile
	put("fanout_complete_ms_p50", complete, 50)
	put("fanout_complete_ms_p90", complete, 90)
	put("fanout.sut_notice_ms_p50", notice, 50)
	put("fanout.first_snapshot_ms_p50", first, 50)
	put("fanout.drain_ms_p50", drain, 50)
	res.Metrics["leader_availability"] = p.availability()
	res.Metrics["fanout.clients_current"] = float64(p.alsoUp) / float64(max(p.probes, 1))
	res.Metrics["heap_live_mb"] = heapLiveMB()
	res.Metrics["gen.inject_late_ms_max"] = float64(p.lateMax) / float64(time.Millisecond)
	return nil
}

// current reports whether every lease has been told of every group's
// current leader: the clients' half of "the system is doing its job",
// sampled beside leader_availability and reported as fanout.clients_current.
func (f *fanout) current() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for g := range f.have {
		l, ok := f.c.leaderOf(context.Background(), g)
		if !ok || f.have[g] < fanoutClients || f.leaderOf[g] != f.c.names[l] {
			return false
		}
	}
	return true
}

// renewLoop renews every client's leases once per TTL/3, spread evenly
// over ticks of renewTick.
func (f *fanout) renewLoop(ctx context.Context) {
	ticksPerCycle := int((fanoutTTL / 3) / renewTick)
	perTick := (fanoutClients + ticksPerCycle - 1) / ticksPerCycle
	tick := time.NewTicker(renewTick)
	defer tick.Stop()
	next := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		end := min(next+perTick, fanoutClients)
		_, _ = f.gen.SendBatch(f.renew[next:end]) // a lost renewal is renewed again in TTL/3
		if next = end; next == fanoutClients {
			next = 0
		}
	}
}

func (f *fanout) close(ctx context.Context) {
	f.c.close(ctx)
	if f.gen != nil {
		_ = f.gen.Close()
	}
}
