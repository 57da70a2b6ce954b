package core

import (
	"testing"
	"time"

	"stableleader/id"
	"stableleader/internal/election"
	"stableleader/internal/simnet"
	"stableleader/internal/wire"
	"stableleader/qos"
)

const testGroup id.Group = "g"

// cluster is a small white-box harness: real Nodes over a simulated LAN.
type cluster struct {
	t     *testing.T
	eng   *simnet.Engine
	net   *simnet.Network
	nodes map[id.Process]*Node
	rts   map[id.Process]*simnet.NodeRuntime
	procs []id.Process
	// onSend, when set before start, sees every datagram a node emits.
	onSend func(from, to id.Process, m wire.Message)
}

// tapRuntime shows a node's datagrams to the harness on their way out.
type tapRuntime struct {
	*simnet.NodeRuntime
	self id.Process
	tap  func(from, to id.Process, m wire.Message)
}

func (r tapRuntime) Send(to id.Process, m wire.Message) {
	r.tap(r.self, to, m)
	r.NodeRuntime.Send(to, m)
}

func newCluster(t *testing.T, model simnet.LinkModel, procs ...id.Process) *cluster {
	t.Helper()
	c := &cluster{
		t:     t,
		eng:   simnet.NewEngine(1),
		nodes: make(map[id.Process]*Node),
		rts:   make(map[id.Process]*simnet.NodeRuntime),
		procs: procs,
	}
	c.net = simnet.NewNetwork(c.eng, model)
	for _, p := range procs {
		c.net.Attach(p)
	}
	return c
}

// start boots a node and joins it to the test group.
func (c *cluster) start(p id.Process, opts JoinOptions) *Node {
	c.t.Helper()
	rt := simnet.NewNodeRuntime(c.net, p)
	var host Runtime = rt
	if c.onSend != nil {
		host = tapRuntime{rt, p, c.onSend}
	}
	n := NewNode(p, host)
	c.net.SetUp(p, true, n)
	c.nodes[p] = n
	c.rts[p] = rt
	if opts.Seeds == nil {
		opts.Seeds = c.procs
	}
	if err := n.Join(testGroup, opts); err != nil {
		c.t.Fatalf("join %s: %v", p, err)
	}
	return n
}

// crash kills p like the fault injector does.
func (c *cluster) crash(p id.Process) {
	c.rts[p].Shutdown()
	c.net.SetUp(p, false, nil)
	delete(c.nodes, p)
	delete(c.rts, p)
}

// leaders returns the leader view of every live node.
func (c *cluster) leaders() map[id.Process]LeaderInfo {
	out := make(map[id.Process]LeaderInfo)
	for p, n := range c.nodes {
		li, err := n.Leader(testGroup)
		if err != nil {
			c.t.Fatalf("Leader(%s): %v", p, err)
		}
		out[p] = li
	}
	return out
}

// commonLeader asserts every live node agrees on one elected alive leader
// and returns it.
func (c *cluster) commonLeader() (id.Process, bool) {
	var leader id.Process
	first := true
	for _, li := range c.leaders() {
		if !li.Elected {
			return "", false
		}
		if first {
			leader, first = li.Leader, false
		} else if li.Leader != leader {
			return "", false
		}
	}
	if first {
		return "", false
	}
	if _, alive := c.nodes[leader]; !alive {
		return "", false
	}
	return leader, true
}

// waitCommonLeader runs the simulation until agreement or the deadline.
func (c *cluster) waitCommonLeader(d time.Duration) id.Process {
	c.t.Helper()
	deadline := c.eng.Now().Add(d)
	for c.eng.Now().Before(deadline) {
		if l, ok := c.commonLeader(); ok {
			return l
		}
		c.eng.RunFor(10 * time.Millisecond)
	}
	c.t.Fatalf("no common leader within %v; views: %+v", d, c.leaders())
	return ""
}

func defaultOpts(algo election.Kind, candidate bool) JoinOptions {
	return JoinOptions{Candidate: candidate, Algorithm: algo, QoS: qos.Default()}
}

func TestElectionHappyPathAllAlgorithms(t *testing.T) {
	for _, algo := range []election.Kind{election.OmegaL, election.OmegaLC, election.OmegaID} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			c := newCluster(t, simnet.LAN(), "a", "b", "c")
			for _, p := range c.procs {
				c.start(p, defaultOpts(algo, true))
			}
			l := c.waitCommonLeader(5 * time.Second)
			if algo == election.OmegaID && l != "a" {
				t.Errorf("omega-id must elect the smallest id, got %q", l)
			}
			// Leadership must then hold steady.
			c.eng.RunFor(30 * time.Second)
			if got, ok := c.commonLeader(); !ok || got != l {
				t.Errorf("leadership flapped from %q to %q (ok=%v)", l, got, ok)
			}
		})
	}
}

func TestLeaderCrashTriggersReelection(t *testing.T) {
	for _, algo := range []election.Kind{election.OmegaL, election.OmegaLC, election.OmegaID} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			c := newCluster(t, simnet.LAN(), "a", "b", "c", "d")
			for _, p := range c.procs {
				c.start(p, defaultOpts(algo, true))
			}
			old := c.waitCommonLeader(5 * time.Second)
			crashAt := c.eng.Now()
			c.crash(old)
			newLeader := c.waitCommonLeader(5 * time.Second)
			if newLeader == old {
				t.Fatalf("dead process %q still leads", old)
			}
			elapsed := c.eng.Now().Sub(crashAt)
			// Detection bound (1s) plus an agreement allowance.
			if elapsed > 2*time.Second {
				t.Errorf("re-election took %v, want well under 2s", elapsed)
			}
		})
	}
}

func TestLeaderLeaveReelectsQuickly(t *testing.T) {
	c := newCluster(t, simnet.LAN(), "a", "b", "c")
	for _, p := range c.procs {
		c.start(p, defaultOpts(election.OmegaL, true))
	}
	old := c.waitCommonLeader(5 * time.Second)
	leaveAt := c.eng.Now()
	if err := c.nodes[old].Leave(testGroup); err != nil {
		t.Fatal(err)
	}
	delete(c.nodes, old) // it no longer answers queries for the group
	newLeader := c.waitCommonLeader(5 * time.Second)
	if newLeader == old {
		t.Fatal("departed process still leads")
	}
	// A LEAVE announcement re-elects without waiting for failure
	// detection: far faster than the 1s QoS bound.
	if elapsed := c.eng.Now().Sub(leaveAt); elapsed > 500*time.Millisecond {
		t.Errorf("re-election after LEAVE took %v, want < 500ms", elapsed)
	}
}

func TestNonCandidatesObserveButNeverLead(t *testing.T) {
	for _, algo := range []election.Kind{election.OmegaL, election.OmegaLC, election.OmegaID} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			c := newCluster(t, simnet.LAN(), "a", "b", "c")
			// Only "c" (largest id!) is a candidate.
			c.start("a", defaultOpts(algo, false))
			c.start("b", defaultOpts(algo, false))
			c.start("c", defaultOpts(algo, true))
			l := c.waitCommonLeader(5 * time.Second)
			if l != "c" {
				t.Fatalf("leader = %q, want the only candidate c", l)
			}
			// And with the candidate gone, nobody may claim leadership.
			c.crash("c")
			c.eng.RunFor(5 * time.Second)
			for p, li := range c.leaders() {
				if li.Elected {
					t.Errorf("%s elected %q with no candidates left", p, li.Leader)
				}
			}
		})
	}
}

// TestStabilityOnRecovery is the paper's stability headline at the service
// level: the smallest-id process crashes and recovers; omega-l and omega-lc
// keep the interim leader, omega-id demotes it.
func TestStabilityOnRecovery(t *testing.T) {
	cases := []struct {
		algo       election.Kind
		wantDemote bool
	}{
		{election.OmegaL, false},
		{election.OmegaLC, false},
		{election.OmegaID, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.algo.String(), func(t *testing.T) {
			c := newCluster(t, simnet.LAN(), "a", "b", "c")
			for _, p := range c.procs {
				c.start(p, defaultOpts(tc.algo, true))
			}
			first := c.waitCommonLeader(5 * time.Second)
			c.crash(first)
			interim := c.waitCommonLeader(5 * time.Second)
			// The crashed process recovers with a fresh incarnation.
			c.start(first, defaultOpts(tc.algo, true))
			c.eng.RunFor(10 * time.Second)
			final, ok := c.commonLeader()
			if !ok {
				t.Fatalf("no common leader after recovery; views: %+v", c.leaders())
			}
			if tc.wantDemote && final != first {
				t.Errorf("omega-id should have re-elected the recovered %q, got %q", first, final)
			}
			if !tc.wantDemote && final != interim {
				t.Errorf("%v demoted the healthy interim leader %q for %q", tc.algo, interim, final)
			}
		})
	}
}

func TestGossipSpreadsMembershipFromPartialSeeds(t *testing.T) {
	c := newCluster(t, simnet.LAN(), "a", "b", "c", "d")
	// Star bootstrap: everyone only knows "a".
	c.start("a", JoinOptions{Candidate: true, Algorithm: election.OmegaL, Seeds: []id.Process{"a"}})
	c.start("b", JoinOptions{Candidate: true, Algorithm: election.OmegaL, Seeds: []id.Process{"a"}})
	c.start("c", JoinOptions{Candidate: true, Algorithm: election.OmegaL, Seeds: []id.Process{"a"}})
	c.start("d", JoinOptions{Candidate: true, Algorithm: election.OmegaL, Seeds: []id.Process{"a"}})
	c.waitCommonLeader(10 * time.Second)
	for p, n := range c.nodes {
		gs := n.groups[testGroup]
		if got := len(gs.table.Active()); got != 4 {
			t.Errorf("%s sees %d members, want 4 (gossip did not spread)", p, got)
		}
	}
}

func TestRateRequestsReachSenders(t *testing.T) {
	c := newCluster(t, simnet.LAN(), "a", "b")
	c.start("a", defaultOpts(election.OmegaLC, true))
	c.start("b", defaultOpts(election.OmegaLC, true))
	c.waitCommonLeader(5 * time.Second)
	// Give the estimators time to accumulate enough evidence that the
	// conservative loss prior washes out (the configurator only relaxes to
	// the cheapest rate once the link has proven itself over hundreds of
	// gap-free heartbeats).
	c.eng.RunFor(8 * time.Minute)
	// On a clean LAN with the paper QoS the configurator's optimum is
	// TdU/4 = 250ms; the senders must have adopted a rate within the 10%
	// hysteresis band of it via RATE (exact convergence is deliberately
	// not chased — RATE traffic has a change threshold).
	for p, n := range c.nodes {
		gs := n.groups[testGroup]
		for dest, ds := range gs.dests {
			if ds.interval < 225*time.Millisecond || ds.interval > 250*time.Millisecond {
				t.Errorf("%s -> %s heartbeat interval = %v, want within 10%% of 250ms", p, dest, ds.interval)
			}
		}
	}
}

func TestEstimatorSharedAcrossGroups(t *testing.T) {
	c := newCluster(t, simnet.LAN(), "a", "b")
	n := c.start("a", defaultOpts(election.OmegaLC, true))
	if e1, e2 := n.estimatorFor("b", 5), n.estimatorFor("b", 5); e1 != e2 {
		t.Fatal("same remote must share one estimator across groups")
	}
	e1 := n.estimatorFor("b", 5)
	e1.Observe("g", 1, time.Millisecond)
	// A newer incarnation resets the shared estimator.
	e2 := n.estimatorFor("b", 6)
	if e2 != e1 {
		t.Fatal("reset must reuse the estimator instance")
	}
	if e2.Snapshot().Samples != 0 {
		t.Error("estimator not reset on a newer incarnation")
	}
}

func TestMultiGroupIndependentLeaders(t *testing.T) {
	c := newCluster(t, simnet.LAN(), "a", "b", "c")
	for _, p := range c.procs {
		c.start(p, defaultOpts(election.OmegaL, true))
	}
	// Join a second group where only "c" is a candidate.
	for _, p := range c.procs {
		err := c.nodes[p].Join("g2", JoinOptions{
			Candidate: p == "c",
			Algorithm: election.OmegaL,
			QoS:       qos.Default(),
			Seeds:     c.procs,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	c.waitCommonLeader(5 * time.Second)
	c.eng.RunFor(5 * time.Second)
	for p, n := range c.nodes {
		li, err := n.Leader("g2")
		if err != nil {
			t.Fatal(err)
		}
		if !li.Elected || li.Leader != "c" {
			t.Errorf("%s: g2 leader = %+v, want c", p, li)
		}
	}
}

func TestNotificationsMatchQueries(t *testing.T) {
	c := newCluster(t, simnet.LAN(), "a", "b")
	var fromCallback []LeaderInfo
	opts := defaultOpts(election.OmegaL, true)
	opts.OnLeaderChange = func(li LeaderInfo) { fromCallback = append(fromCallback, li) }
	n := c.start("a", opts)
	c.start("b", defaultOpts(election.OmegaL, true))
	c.waitCommonLeader(5 * time.Second)
	c.eng.RunFor(2 * time.Second) // let the pending notification timers fire
	if len(fromCallback) == 0 {
		t.Fatal("no interrupt notifications delivered")
	}
	last := fromCallback[len(fromCallback)-1]
	q, err := n.Leader(testGroup)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Same(last) {
		t.Errorf("query %+v disagrees with last notification %+v", q, last)
	}
	// Consecutive notifications never repeat the same view.
	for i := 1; i < len(fromCallback); i++ {
		if fromCallback[i].Same(fromCallback[i-1]) {
			t.Errorf("duplicate notification at %d: %+v", i, fromCallback[i])
		}
	}
}

func TestAPIErrors(t *testing.T) {
	c := newCluster(t, simnet.LAN(), "a")
	n := c.start("a", defaultOpts(election.OmegaL, true))
	if err := n.Join(testGroup, defaultOpts(election.OmegaL, true)); err == nil {
		t.Error("double join must fail")
	}
	if _, err := n.Leader("nope"); err == nil {
		t.Error("Leader of an unjoined group must fail")
	}
	if err := n.Leave("nope"); err == nil {
		t.Error("Leave of an unjoined group must fail")
	}
	badQoS := defaultOpts(election.OmegaL, true)
	badQoS.QoS = qos.Spec{DetectionTime: -1}
	if err := n.Join("g2", badQoS); err == nil {
		t.Error("invalid QoS must be rejected")
	}
	n.Stop()
	if err := n.Join("g3", defaultOpts(election.OmegaL, true)); err == nil {
		t.Error("join on a stopped node must fail")
	}
}

func TestStaleIncarnationAliveDropped(t *testing.T) {
	c := newCluster(t, simnet.LAN(), "a", "b")
	c.start("a", defaultOpts(election.OmegaL, true))
	c.start("b", defaultOpts(election.OmegaL, true))
	c.waitCommonLeader(5 * time.Second)
	// Restart b with a new incarnation; a's monitors must follow the new
	// incarnation, and the old one's heartbeats (none will come, but the
	// monitor entry itself) must be replaced.
	c.crash("b")
	c.eng.RunFor(3 * time.Second)
	c.start("b", defaultOpts(election.OmegaL, true))
	c.eng.RunFor(5 * time.Second)
	na := c.nodes["a"]
	gs := na.groups[testGroup]
	entry, ok := gs.monitors["b"]
	if !ok {
		t.Fatal("a has no monitor for b")
	}
	if entry.inc != c.nodes["b"].Incarnation() {
		t.Errorf("monitor tracks incarnation %d, want %d", entry.inc, c.nodes["b"].Incarnation())
	}
}

func TestStatusReportsTrustAndFDParams(t *testing.T) {
	c := newCluster(t, simnet.LAN(), "a", "b", "c")
	for _, p := range c.procs {
		c.start(p, defaultOpts(election.OmegaLC, true))
	}
	c.waitCommonLeader(5 * time.Second)
	c.eng.RunFor(10 * time.Second) // let configurators settle
	rows, err := c.nodes["a"].Status(testGroup)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("status rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r.ID == "a" {
			if !r.Self || !r.Trusted {
				t.Errorf("self row = %+v", r)
			}
			continue
		}
		if !r.Trusted {
			t.Errorf("%s untrusted on a clean LAN: %+v", r.ID, r)
		}
		if r.Interval <= 0 || r.Timeout <= 0 {
			t.Errorf("%s has no FD parameters: %+v", r.ID, r)
		}
		if got := r.Interval + r.Timeout; got > time.Second {
			t.Errorf("%s: η+δ = %v exceeds the 1s QoS bound", r.ID, got)
		}
	}
	if _, err := c.nodes["a"].Status("nope"); err == nil {
		t.Error("Status of an unjoined group must fail")
	}
}

func TestStatusShowsSuspectedCrashedPeer(t *testing.T) {
	c := newCluster(t, simnet.LAN(), "a", "b")
	c.start("a", defaultOpts(election.OmegaLC, true))
	c.start("b", defaultOpts(election.OmegaLC, true))
	c.waitCommonLeader(5 * time.Second)
	c.crash("b")
	c.eng.RunFor(3 * time.Second)
	rows, err := c.nodes["a"].Status(testGroup)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ID == "b" && r.Trusted {
			t.Error("crashed peer still trusted after 3x the detection bound")
		}
	}
}

// TestPacerSharesOneTimerAcrossGroups is the outbound packet plane's
// timer-side claim: a node in G groups runs one heartbeat pacer per peer,
// not G independent timers, and the per-group streams align onto one phase.
func TestPacerSharesOneTimerAcrossGroups(t *testing.T) {
	c := newCluster(t, simnet.LAN(), "a", "b")
	na := c.start("a", defaultOpts(election.OmegaLC, true))
	c.start("b", defaultOpts(election.OmegaLC, true))
	groups := []id.Group{"g2", "g3", "g4"}
	for _, g := range groups {
		for _, p := range c.procs {
			opts := defaultOpts(election.OmegaLC, true)
			opts.Seeds = c.procs
			if err := c.nodes[p].Join(g, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.waitCommonLeader(5 * time.Second)
	c.eng.RunFor(10 * time.Second)
	pp := na.pacers["b"]
	if pp == nil {
		t.Fatal("a has no pacer toward b")
	}
	if len(na.pacers) != 1 {
		t.Errorf("a runs %d pacers, want 1 (single peer)", len(na.pacers))
	}
	if got := len(pp.streams); got != 4 {
		t.Fatalf("pacer carries %d streams, want 4 (one per group)", got)
	}
	// All equal-interval streams must have converged onto one wake-up.
	var due time.Time
	first := true
	for _, st := range pp.streams {
		if first {
			due, first = st.due, false
			continue
		}
		if !st.due.Equal(due) {
			t.Errorf("streams not aligned: %v vs %v", st.due, due)
		}
	}
}

// TestCoalesceDelayTracksHeartbeatInterval checks the flush-policy
// derivation: the coalescing delay follows the fastest heartbeat interval
// toward the peer, capped at 2ms.
func TestCoalesceDelayTracksHeartbeatInterval(t *testing.T) {
	c := newCluster(t, simnet.LAN(), "a", "b")
	na := c.start("a", defaultOpts(election.OmegaL, true))
	c.start("b", defaultOpts(election.OmegaL, true))
	c.waitCommonLeader(5 * time.Second)
	// Default interval is TdU/5 = 200ms; an eighth is 25ms, capped at 2ms.
	if got := na.coalesceDelayFor("b"); got != 2*time.Millisecond {
		t.Errorf("coalesce delay = %v, want the 2ms cap", got)
	}
	// A peer never heartbeated gets the conservative default.
	if got := na.coalesceDelayFor("nope"); got != time.Millisecond {
		t.Errorf("default coalesce delay = %v, want 1ms", got)
	}
	// A fast RATE-requested interval drops the delay below the cap.
	gs := na.groups[testGroup]
	ds := gs.dests["b"]
	ds.interval = 8 * time.Millisecond
	na.pacers["b"].refresh()
	if got := na.coalesceDelayFor("b"); got != time.Millisecond {
		t.Errorf("coalesce delay = %v, want interval/8 = 1ms", got)
	}
}

// TestStopCancelsPacers: a stopped node must leave no live pacer state
// behind (timers are invalidated by generation and the stopped flag).
func TestStopCancelsPacers(t *testing.T) {
	c := newCluster(t, simnet.LAN(), "a", "b")
	na := c.start("a", defaultOpts(election.OmegaL, true))
	c.start("b", defaultOpts(election.OmegaL, true))
	c.waitCommonLeader(5 * time.Second)
	na.Stop()
	if len(na.pacers) != 0 {
		t.Errorf("%d pacers survive Stop", len(na.pacers))
	}
	c.eng.RunFor(5 * time.Second) // any stale timer callback must be inert
}
