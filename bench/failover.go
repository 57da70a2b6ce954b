package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	stableleader "stableleader"
	"stableleader/client"
	"stableleader/id"
	"stableleader/transport"
)

// The failover workload: time without a leader is what users of an election
// service pay for. Five Services, four groups, TdU = 200 ms. A quarter of
// the measured time deposes group 0's leader every 20 ms (planned handover:
// one urgent message through outbound, transport, steering and election);
// the rest crashes group 0's leader every 3 × TdU at a seeded phase and
// restarts it on the same port as soon as the survivors re-agree (recovery
// is set by the failure detector's η + δ and must stay just under TdU).
// Every timing is taken from Watch event arrival.
const (
	failoverNodes   = 5
	failoverGroups  = 4
	failoverTdU     = 200 * time.Millisecond
	handoverPeriod  = 20 * time.Millisecond
	handoverLimit   = 50 * time.Millisecond
	handoverWarmup  = 5 // unmeasured handovers before the window opens
	crashPeriod     = 3 * failoverTdU
	crashLimit      = 2 * failoverTdU
	crashJitter     = 100 * time.Millisecond
	handoverShare   = 4 // 1/handoverShare of the measured time is handovers
	failoverClients = 2
	clientLeaseTTL  = time.Second
)

type failover struct {
	o       *runOpts
	c       *cluster
	rng     *rand.Rand
	clients []*benchClient

	// mu guards everything below: the picture of the cluster as its Watch
	// streams paint it, and the fault round in progress.
	mu    sync.Mutex
	views [][]stableleader.LeaderInfo // [node][group], last LeaderChanged
	live  []bool
	inc   []int64
	round *faultRound
}

// benchClient is a real remote client watching group 0; wg waits for the
// goroutine draining its Watch stream.
type benchClient struct {
	cli *client.Client
	wg  sync.WaitGroup
}

// faultRound is one injected fault being timed.
type faultRound struct {
	t0 time.Time
	// old is the node deposed or crashed.
	old int
	// handover rounds wait for group 0 only; crash rounds for every group.
	handover    bool
	suspectedAt time.Time // first MemberSuspected naming old
	firstAt     time.Time // first follower's elected view of a successor
	lastAt      time.Time // the event that completed agreement
	// selfEdges are group 0's LeaderChanged events of the round as edges of
	// "this node reports itself leader", stamped by the node (LeaderInfo.At).
	selfEdges []selfEdge
	clientAt  []time.Time // per client: LeaderUpdated naming the successor
	done      chan struct{}
	closed    bool
}

func setupFailover(ctx context.Context, o *runOpts) (instance, error) {
	f := &failover{o: o, rng: rand.New(rand.NewSource(o.seed))}
	// Allocated before the cluster starts: its Watch streams call onEvent
	// from the first join on.
	f.views = make([][]stableleader.LeaderInfo, failoverNodes)
	f.live = make([]bool, failoverNodes)
	f.inc = make([]int64, failoverNodes)
	for i := range f.views {
		f.views[i] = make([]stableleader.LeaderInfo, failoverGroups)
	}
	c, err := startCluster(ctx, clusterConfig{
		nodes:       failoverNodes,
		groups:      failoverGroups,
		tdu:         failoverTdU,
		firstJoiner: func(g int) int { return (g + int(o.seed)) % failoverNodes },
		svcOpts:     []stableleader.Option{stableleader.WithClientPlane()},
		onEvent:     f.onEvent,
	})
	if err != nil {
		return nil, err
	}
	f.c = c
	if err := c.waitAgreed(ctx, 20*failoverTdU); err != nil {
		c.close(ctx)
		return nil, err
	}
	f.mu.Lock()
	for i, n := range c.nodes {
		f.live[i], f.inc[i] = true, n.svc.Incarnation()
		for g, grp := range n.groups {
			// Events that raced set-up are already in; fill in the rest.
			if !f.views[i][g].Elected {
				f.views[i][g], _ = grp.Leader(ctx)
			}
		}
	}
	f.mu.Unlock()
	for k := 0; k < failoverClients; k++ {
		if err := f.startClient(ctx, k); err != nil {
			f.close(ctx)
			return nil, err
		}
	}
	return f, nil
}

// startClient attaches real client k, preferring a different endpoint per
// client, and waits for its first lease.
func (f *failover) startClient(ctx context.Context, k int) error {
	peers := map[id.Process]string{}
	var eps []id.Process
	for i := range f.c.nodes {
		n := f.c.nodes[(i+k+1)%failoverNodes]
		peers[n.name] = n.addr
		eps = append(eps, n.name)
	}
	tr, err := transport.NewUDP(loopback, peers)
	if err != nil {
		return fmt.Errorf("client %d: open socket: %w", k, err)
	}
	cli, err := client.New(tr,
		client.WithID(id.Process(fmt.Sprintf("c%02d", k))),
		client.WithEndpoints(eps...), client.WithOrderedEndpoints(),
		client.WithLeaseTTL(clientLeaseTTL), client.WithSeed(f.o.seed+int64(k)))
	if err != nil {
		_ = tr.Close()
		return fmt.Errorf("client %d: %w", k, err)
	}
	bc := &benchClient{cli: cli}
	f.clients = append(f.clients, bc)
	lctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := cli.Leader(lctx, f.c.gids[0]); err != nil {
		return fmt.Errorf("client %d: first lease: %w", k, err)
	}
	events := cli.Watch(context.Background(), f.c.gids[0])
	bc.wg.Add(1)
	go func() {
		defer bc.wg.Done()
		for ev := range events {
			if lu, ok := ev.(client.LeaderUpdated); ok {
				f.onClientEvent(k, lu, time.Now())
			}
		}
	}()
	return nil
}

// onEvent folds one Watch event into the picture and advances the round.
func (f *failover) onEvent(n, g int, ev stableleader.Event, at time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.round
	switch e := ev.(type) {
	case stableleader.MemberSuspected:
		if r != nil && !r.handover && e.Member == f.c.names[r.old] && r.suspectedAt.IsZero() {
			r.suspectedAt = at
		}
	case stableleader.LeaderChanged:
		f.views[n][g] = e.Info
		if r == nil || r.closed || (r.handover && g != 0) {
			return
		}
		l := f.c.index(e.Info.Leader)
		if e.Info.Elected && l >= 0 && l != r.old && f.live[l] && n != r.old && r.firstAt.IsZero() {
			r.firstAt = at
		}
		if g == 0 {
			r.selfEdges = append(r.selfEdges, selfEdge{at: e.Info.At, node: n, self: e.Info.Elected && l == n})
		}
		if succ, ok := f.agreedLocked(r.handover); ok && succ != r.old {
			r.lastAt, r.closed = at, true
			close(r.done)
		}
	}
}

func (f *failover) onClientEvent(k int, lu client.LeaderUpdated, at time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.round
	if r == nil || !r.handover || !lu.Lease.Elected || !r.clientAt[k].IsZero() {
		return
	}
	if l := f.c.index(lu.Lease.Leader); l >= 0 && l != r.old {
		r.clientAt[k] = at
	}
}

// agreedLocked reports whether every live node's last event names the same
// live leader, in group 0 (and the leader) or in every group.
func (f *failover) agreedLocked(group0Only bool) (leader0 int, ok bool) {
	groups := failoverGroups
	if group0Only {
		groups = 1
	}
	leader0 = -1
	for g := 0; g < groups; g++ {
		leader := -1
		for n := range f.views {
			if !f.live[n] {
				continue
			}
			v := f.views[n][g]
			l := f.c.index(v.Leader)
			if !v.Elected || l < 0 || !f.live[l] || f.inc[l] != v.Incarnation || (leader >= 0 && l != leader) {
				return -1, false
			}
			leader = l
		}
		if g == 0 {
			leader0 = leader
		}
	}
	return leader0, leader0 >= 0
}

// begin opens a fault round against node old.
func (f *failover) begin(old int, handover bool) *faultRound {
	r := &faultRound{old: old, handover: handover,
		clientAt: make([]time.Time, len(f.clients)), done: make(chan struct{})}
	f.mu.Lock()
	f.round = r
	r.t0 = time.Now()
	f.mu.Unlock()
	return r
}

// wait blocks until the round's agreement event or the limit.
func (f *failover) wait(ctx context.Context, r *faultRound, limit time.Duration) bool {
	t := time.NewTimer(limit - time.Since(r.t0))
	defer t.Stop()
	select {
	case <-r.done:
		return true
	case <-t.C:
	case <-ctx.Done():
	}
	return false
}

func (f *failover) end() {
	f.mu.Lock()
	f.round = nil
	f.mu.Unlock()
}

// selfEdge is one node starting or ceasing to report itself leader.
type selfEdge struct {
	at   time.Time
	node int
	self bool
}

// dualLeaderTime is how long two nodes reported themselves leader of group
// 0 at once during the round, by the nodes' own stamps: the round starts
// with old alone, and the events are replayed in stamp order (they arrive
// on one stream per node, in no particular order across nodes).
func (r *faultRound) dualLeaderTime() time.Duration {
	sort.SliceStable(r.selfEdges, func(i, j int) bool { return r.selfEdges[i].at.Before(r.selfEdges[j].at) })
	self := map[int]bool{r.old: true}
	var dual time.Duration
	var since time.Time // when a second node joined, zero while at most one
	for _, e := range r.selfEdges {
		if e.self {
			self[e.node] = true
		} else {
			delete(self, e.node)
		}
		switch {
		case len(self) > 1 && since.IsZero():
			since = e.at
		case len(self) <= 1 && !since.IsZero():
			dual += e.at.Sub(since)
			since = time.Time{}
		}
	}
	return dual
}

// since is t's distance from the round start in unit; ok is false if t was
// never set.
func (r *faultRound) since(t time.Time, unit time.Duration) (float64, bool) {
	if t.IsZero() {
		return 0, false
	}
	return float64(t.Sub(r.t0)) / float64(unit), true
}

func (f *failover) measure(ctx context.Context, res *result) error {
	if f.o.traced {
		// A guard rail, taken before the faults start: the remote client's
		// cached read must stay a single atomic load.
		cli, g := f.clients[0].cli, f.c.gids[0]
		ns, _ := timeOp(100000, func() { _, _ = cli.Leader(ctx, g) })
		res.Metrics["client.leader_read_ns"] = ns
	}
	// Warm-up: a few handovers outside the measured window. The first
	// planned handover of a group's lifetime is not like the rest — the
	// followers have never heard each other — and at this commit it can
	// leave several nodes electing themselves for a millisecond or two.
	// That is reported as a metric of its own, not hidden and not allowed
	// to fail every run of a benchmark that must not change the program.
	var warm failoverSamples
	var warmDual time.Duration
	for k := 0; k < handoverWarmup; k++ {
		warmDual += f.handoverRound(ctx, int64(k-handoverWarmup), newResult(wlFailover, 0), &warm)
		sleepCtx(ctx, handoverPeriod)
	}
	f.harvestClients(&warm)
	res.Metrics["failover.warmup_dual_leader_us"] = float64(warmDual) / float64(time.Microsecond)
	if warmDual > 0 {
		fmt.Fprintf(os.Stderr, "bench: failover: two nodes reported themselves leader for %v during the %d warm-up handovers\n", warmDual, handoverWarmup)
	}

	m := &meter{nodes: failoverNodes, stats: f.c.packetStats}
	p := &prober{agreed: func() bool { return f.c.agreed(ctx) }}
	m.start(f.o.measure)
	p.start()
	start := time.Now()

	var samples failoverSamples
	handoverEnd := start.Add(f.o.measure / handoverShare)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * handoverPeriod)
		if !due.Before(handoverEnd) {
			break
		}
		sleepCtx(ctx, time.Until(due))
		f.harvestClients(&samples)
		if dual := f.handoverRound(ctx, int64(k), res, &samples); dual > 0 {
			res.Failed++
			res.fail(fmt.Sprintf("two nodes reported themselves leader for %v across handover round %d", dual, k))
		}
	}
	sleepCtx(ctx, handoverPeriod)
	f.harvestClients(&samples)
	end := start.Add(f.o.measure)
	// The number of rounds depends on the run length only, not on the
	// seeded phases, so availability is comparable across seeds.
	rounds := int((end.Sub(handoverEnd) - crashJitter) / crashPeriod)
	for k := 0; k < rounds; k++ {
		due := handoverEnd.Add(time.Duration(k)*crashPeriod + time.Duration(f.rng.Int63n(int64(crashJitter))))
		sleepCtx(ctx, time.Until(due))
		if err := f.crashRound(ctx, int64(k), res, &samples); err != nil {
			return err
		}
	}
	sleepCtx(ctx, time.Until(end))
	p.stop()
	m.stop(res)

	res.Metrics["leader_availability"] = p.availability()
	res.Metrics["heap_live_mb"] = heapLiveMB()
	res.Metrics["gen.inject_late_ms_max"] = float64(p.lateMax) / float64(time.Millisecond)
	samples.report(res)
	return nil
}

// failoverSamples collects the per-round timings.
type failoverSamples struct {
	handoverWindow, handoverCall, handoverFirst, handoverSpread, clientUpdate []float64 // µs
	crashRecovery, crashDetect, crashElect, crashCall, join, rejoin           []float64 // ms
	// awaitingClients is the last successful handover round, kept open so
	// the clients' updates can still be attributed to it.
	awaitingClients *faultRound
}

func (s *failoverSamples) report(res *result) {
	put := res.putPercentile
	put("handover_window_us_p50", s.handoverWindow, 50)
	put("handover_window_us_p95", s.handoverWindow, 95)
	put("client_update_us_p50", s.clientUpdate, 50)
	put("handover.depose_call_us_p50", s.handoverCall, 50)
	put("handover.first_elect_us_p50", s.handoverFirst, 50)
	put("handover.spread_us_p50", s.handoverSpread, 50)
	put("crash_recovery_ms_p50", s.crashRecovery, 50)
	put("crash_recovery_ms_p80", s.crashRecovery, 80)
	put("failover.detect_ms_p50", s.crashDetect, 50)
	put("failover.elect_ms_p50", s.crashElect, 50)
	put("failover.agree_ms_p50", s.crashRecovery, 50)
	put("service.crash_call_ms", s.crashCall, 50)
	put("service.join_ms", s.join, 50)
	put("failover.rejoin_ms_p50", s.rejoin, 50)
}

// handoverRound deposes group 0's leader and times the window until the
// last live node has elected the successor. It returns for how long two
// nodes reported themselves leader at once, which must be zero.
func (f *failover) handoverRound(ctx context.Context, k int64, res *result, s *failoverSamples) (dual time.Duration) {
	old, ok := f.c.leaderOf(ctx, 0)
	if !ok {
		return 0 // a previous round has not settled; it was counted there
	}
	res.Attempted++
	root := f.o.tr.begin("handover.round", -1, k)
	r := f.begin(old, true)
	call := f.o.tr.begin("service.Depose", root, k)
	err := f.c.nodes[old].groups[0].Depose(ctx)
	f.o.tr.end(call)
	called := time.Now()
	agreed := err == nil && f.wait(ctx, r, handoverLimit)
	f.o.tr.end(root)
	if !agreed {
		f.end()
		res.Failed++
		// No standby nominated yet, or the lead lost to a suspicion, means
		// there was nothing to hand over; anything else is a defect.
		if err != nil && !errors.Is(err, stableleader.ErrNoStandby) && !errors.Is(err, stableleader.ErrNotLeader) {
			res.fail(fmt.Sprintf("Depose: %v", err))
		}
		return 0
	}
	window, _ := r.since(r.lastAt, time.Microsecond)
	s.handoverWindow = append(s.handoverWindow, window)
	callUS, _ := r.since(called, time.Microsecond)
	s.handoverCall = append(s.handoverCall, callUS)
	if first, ok := r.since(r.firstAt, time.Microsecond); ok {
		s.handoverFirst = append(s.handoverFirst, first)
		s.handoverSpread = append(s.handoverSpread, window-first)
	}
	// The clients get the rest of the period: the round stays registered
	// until the next one begins, which harvests their arrival times.
	s.awaitingClients = r
	return r.dualLeaderTime()
}

// harvestClients collects when the real clients learned of the previous
// handover's successor; their snapshot rides the same leader-change edge on
// whichever node serves them.
func (f *failover) harvestClients(s *failoverSamples) {
	r := s.awaitingClients
	if r == nil {
		return
	}
	s.awaitingClients = nil
	f.mu.Lock()
	defer f.mu.Unlock()
	f.round = nil
	for _, at := range r.clientAt {
		if us, ok := r.since(at, time.Microsecond); ok {
			s.clientUpdate = append(s.clientUpdate, us)
		}
	}
}

// crashRound crashes group 0's leader, times re-agreement among the
// survivors, restarts the node on its old port and waits until it is back
// in agreement.
func (f *failover) crashRound(ctx context.Context, k int64, res *result, s *failoverSamples) error {
	old, ok := f.c.leaderOf(ctx, 0)
	if !ok || !f.c.agreed(ctx) {
		return nil // still recovering from the previous round, counted there
	}
	res.Attempted++
	root := f.o.tr.begin("crash.round", -1, k)
	f.mu.Lock()
	f.live[old] = false
	f.mu.Unlock()
	r := f.begin(old, false)
	call := f.o.tr.begin("service.Crash", root, k)
	f.c.crash(old)
	f.o.tr.end(call)
	crashed := time.Now()
	wait := f.o.tr.begin("crash.await_agreement", root, k)
	agreed := f.wait(ctx, r, crashLimit)
	f.o.tr.end(wait)
	f.end()
	if agreed {
		rec, _ := r.since(r.lastAt, time.Millisecond)
		s.crashRecovery = append(s.crashRecovery, rec)
		if d, ok := r.since(r.suspectedAt, time.Millisecond); ok {
			s.crashDetect = append(s.crashDetect, d)
		}
		if e, ok := r.since(r.firstAt, time.Millisecond); ok {
			s.crashElect = append(s.crashElect, e)
		}
	} else {
		res.Failed++
	}
	callMS, _ := r.since(crashed, time.Millisecond)
	s.crashCall = append(s.crashCall, callMS)

	re := f.o.tr.begin("service.restart", root, k)
	t0 := time.Now()
	f.mu.Lock()
	for g := range f.views[old] {
		f.views[old][g] = stableleader.LeaderInfo{}
	}
	f.mu.Unlock()
	joins, err := f.c.restart(ctx, old)
	if err != nil {
		return err
	}
	s.join = append(s.join, float64(joins)/float64(time.Millisecond)/failoverGroups)
	f.o.tr.end(re)
	// The node counts as live again once it has caught up with the group:
	// until its first heartbeat from each leader it is still joining, like
	// the nodes during set-up.
	catchUp := f.o.tr.begin("crash.await_rejoin", root, k)
	err = f.c.awaitRejoin(ctx, old, crashPeriod)
	f.o.tr.end(catchUp)
	f.o.tr.end(root)
	if err != nil {
		res.Failed++
		return nil
	}
	s.rejoin = append(s.rejoin, float64(time.Since(t0))/float64(time.Millisecond))
	f.mu.Lock()
	f.live[old], f.inc[old] = true, f.c.nodes[old].svc.Incarnation()
	f.mu.Unlock()
	return nil
}

func (f *failover) close(ctx context.Context) {
	for _, bc := range f.clients {
		_ = bc.cli.Close(ctx)
		bc.wg.Wait()
	}
	f.c.close(ctx)
}
