package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"stableleader/id"
	"stableleader/internal/election"
	"stableleader/internal/group"
	"stableleader/internal/simnet"
	"stableleader/internal/wire"
)

// rewriteRuntime passes every message a node sends through rw on its way
// out: rw returns what to send instead, or nil to drop the message.
type rewriteRuntime struct {
	Runtime
	rw func(to id.Process, m wire.Message) wire.Message
}

func (r rewriteRuntime) Send(to id.Process, m wire.Message) {
	b, ok := m.(*wire.Batch)
	if !ok {
		if m = r.rw(to, m); m != nil {
			r.Runtime.Send(to, m)
		}
		return
	}
	out := &wire.Batch{}
	for _, inner := range b.Msgs {
		if inner = r.rw(to, inner); inner != nil {
			out.Msgs = append(out.Msgs, inner)
		}
	}
	if len(out.Msgs) > 0 {
		r.Runtime.Send(to, out)
	}
}

// startRewriting boots p like start, with its outbound traffic rewritten
// by rw before the tap (if any) and the network see it.
func (c *cluster) startRewriting(p id.Process, opts JoinOptions, rw func(to id.Process, m wire.Message) wire.Message) *Node {
	c.t.Helper()
	rt := simnet.NewNodeRuntime(c.net, p)
	var host Runtime = rt
	if c.onSend != nil {
		host = tapRuntime{rt, p, c.onSend}
	}
	n := NewNode(p, rewriteRuntime{host, rw})
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

// fullHellos counts the full HELLOs of the test group in the datagrams
// logged since index i, from from to to ("" = anyone, either side).
func fullHellos(log []sent, i int, from, to id.Process) int {
	n := 0
	for _, s := range log[i:] {
		if (from != "" && s.from != from) || (to != "" && s.to != to) {
			continue
		}
		for _, m := range s.msgs {
			if h, ok := m.(*wire.Hello); ok && h.Group == testGroup {
				n++
			}
		}
	}
	return n
}

// tablesEqual reports whether every live node holds the same table of the
// test group, and names the first that differs.
func (c *cluster) tablesEqual() (bool, string) {
	var want []group.Member
	first := true
	for _, p := range c.procs {
		n, ok := c.nodes[p]
		if !ok {
			continue
		}
		rows := n.groups[testGroup].table.Snapshot()
		if first {
			want, first = rows, false
		} else if !reflect.DeepEqual(rows, want) {
			return false, fmt.Sprintf("%s: %+v, %s: %+v", c.procs[0], want, p, rows)
		}
	}
	return true, ""
}

// converged6 boots six ΩL candidates and runs them until the JOIN retries
// are over and every table is the same.
func converged6(t *testing.T) (*cluster, *[]sent) {
	c, log := tapCluster(t, "a", "b", "c", "d", "e", "f")
	for _, p := range c.procs {
		c.start(p, defaultOpts(election.OmegaL, true))
	}
	c.waitCommonLeader(5 * time.Second)
	c.eng.RunFor(5 * time.Second)
	if ok, diff := c.tablesEqual(); !ok {
		t.Fatalf("tables differ after 10s: %s", diff)
	}
	return c, log
}

// TestConvergedGroupGossipsOnlyDigests: once every table is the same, a
// gossip round costs a digest per target and no full HELLO at all.
func TestConvergedGroupGossipsOnlyDigests(t *testing.T) {
	c, log := converged6(t)
	from := len(*log)
	c.eng.RunFor(20 * time.Second) // 20 rounds at the default HelloInterval
	if n := fullHellos(*log, from, "", ""); n != 0 {
		t.Errorf("a converged group sent %d full HELLOs in 20 gossip rounds, want 0", n)
	}
	digests := 0
	for _, p := range c.procs {
		digests += hellos(*log, from, p, "", testGroup)
	}
	if min := 20 * gossipFanout * len(c.procs) / 2; digests < min {
		t.Errorf("%d digests in 20 rounds of 6 nodes, want at least %d: the test observed no gossip", digests, min)
	}
}

// TestRestartWithLostJoinsConvergesByDigests: a process restarts and every
// JOIN it sends is lost. Its table knows only itself, so it has nobody to
// gossip to; the others' digests reach it, its answers carry the new
// incarnation, and within two gossip periods every table holds it — and it
// holds every table.
func TestRestartWithLostJoinsConvergesByDigests(t *testing.T) {
	c, _ := converged6(t)
	c.crash("f")
	c.eng.RunFor(time.Second)
	n := c.startRewriting("f", defaultOpts(election.OmegaL, true), func(_ id.Process, m wire.Message) wire.Message {
		if _, ok := m.(*wire.Join); ok {
			return nil
		}
		return m
	})
	period := n.groups[testGroup].opts.HelloInterval
	deadline := c.eng.Now().Add(2 * period)
	for c.eng.Now().Before(deadline) {
		if ok, _ := c.tablesEqual(); ok {
			break
		}
		c.eng.RunFor(10 * time.Millisecond)
	}
	if ok, diff := c.tablesEqual(); !ok {
		t.Fatalf("tables still differ two gossip periods after the restart: %s", diff)
	}
	row, _ := c.nodes["a"].groups[testGroup].table.Get("f")
	if row.Incarnation != n.Incarnation() {
		t.Fatalf("a holds f at incarnation %d, want the restart's %d", row.Incarnation, n.Incarnation())
	}
}

// TestLegacyPeerConverges: a peer built before HELLO_DIGEST gossips full
// HELLOs, answers none, and never sees a digest (its build skips them).
// Membership still spreads both ways: what only it knows rides its own
// gossip, and what it lacks comes back in the answers its HELLOs draw.
func TestLegacyPeerConverges(t *testing.T) {
	const legacy = "l"
	c := newCluster(t, simnet.LAN(), "a", "b", "c", "d", legacy)
	for _, p := range c.procs[:4] {
		c.start(p, defaultOpts(election.OmegaL, true))
	}
	var ln *Node
	ln = c.startRewriting(legacy, defaultOpts(election.OmegaL, true), func(_ id.Process, m wire.Message) wire.Message {
		switch m.(type) {
		case *wire.HelloDigest:
			return ln.groups[testGroup].hello() // its round sends the table
		case *wire.Hello:
			return nil // it answers nothing
		}
		return m
	})
	c.net.SetUp(legacy, true, legacyHandler{ln})
	c.waitCommonLeader(5 * time.Second)
	c.eng.RunFor(5 * time.Second)
	if ok, diff := c.tablesEqual(); !ok {
		t.Fatalf("tables differ before the test begins: %s", diff)
	}

	// x joins through a only, y through the legacy peer only: neither
	// exists, so nothing but gossip carries them further.
	c.nodes["a"].HandleMessage(&wire.Join{Group: testGroup, Sender: "x", Incarnation: 1})
	ln.HandleMessage(&wire.Join{Group: testGroup, Sender: "y", Incarnation: 1})
	deadline := c.eng.Now().Add(10 * time.Second)
	for c.eng.Now().Before(deadline) {
		if ok, _ := c.tablesEqual(); ok {
			break
		}
		c.eng.RunFor(10 * time.Millisecond)
	}
	if ok, diff := c.tablesEqual(); !ok {
		t.Fatalf("tables differ 10s after the joins: %s", diff)
	}
	for _, p := range []id.Process{"x", "y"} {
		if _, ok := c.nodes["b"].groups[testGroup].table.Get(p); !ok {
			t.Errorf("the converged tables lack %s", p)
		}
	}
}

// legacyHandler is the receive side of a peer built before HELLO_DIGEST:
// its decoder skips the kind, so no digest reaches the node.
type legacyHandler struct{ n *Node }

func (h legacyHandler) HandleMessage(m wire.Message) {
	if b, ok := m.(*wire.Batch); ok {
		kept := &wire.Batch{}
		for _, inner := range b.Msgs {
			if _, digest := inner.(*wire.HelloDigest); !digest {
				kept.Msgs = append(kept.Msgs, inner)
			}
		}
		m = kept
	} else if _, digest := m.(*wire.HelloDigest); digest {
		return
	}
	h.n.HandleMessage(m)
}

// TestWrongDigestAnswersAreBounded: a peer whose digest never matches —
// hostile, colliding or skewed — draws at most one full HELLO per
// HelloInterval, however often it sends.
func TestWrongDigestAnswersAreBounded(t *testing.T) {
	c, log := converged6(t)
	na, nb := c.nodes["a"], c.nodes["b"]
	period := na.groups[testGroup].opts.HelloInterval
	from := len(*log)
	const window = 10 * time.Second
	for end := c.eng.Now().Add(window); c.eng.Now().Before(end); c.eng.RunFor(50 * time.Millisecond) {
		na.HandleMessage(&wire.HelloDigest{Group: testGroup, Sender: "b", Incarnation: nb.Incarnation(), Digest: 1})
	}
	c.eng.RunFor(period / 4) // the last answer's background delay
	limit := int(window/period) + 1
	if n := fullHellos(*log, from, "a", "b"); n == 0 || n > limit {
		t.Errorf("a sent b %d full HELLOs for %v of wrong digests, want 1..%d", n, window, limit)
	}
}

// TestDigestExchangeConvergesInTwoHellos is the push-pull property: for
// random pairs of tables, a digest from one side leads to at most two
// full HELLOs — none when the tables already agree — and ends with both
// tables equal.
func TestDigestExchangeConvergesInTwoHellos(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		c, log := tapCluster(t, "a", "b")
		isolated := defaultOpts(election.OmegaL, true)
		isolated.Seeds = []id.Process{} // neither knows the other
		na, nb := c.start("a", isolated), c.start("b", isolated)
		ga, gb := na.groups[testGroup], nb.groups[testGroup]
		for _, gs := range []*groupState{ga, gb} {
			gs.helloTimer.Stop()
			gs.joinTimer.Stop()
		}
		self := func(n *Node) group.Member { return group.Member{ID: n.self, Incarnation: n.inc, Candidate: true} }
		if rng.Intn(4) == 0 {
			ga.table.Upsert(self(nb))
			gb.table.Upsert(self(na))
		}
		for i := 0; i < 6; i++ {
			row := group.Member{
				ID:          id.Process(fmt.Sprintf("m%d", i)),
				Incarnation: int64(1 + rng.Intn(3)),
				Candidate:   rng.Intn(2) == 0,
				Left:        rng.Intn(3) == 0,
			}
			switch rng.Intn(4) {
			case 0: // a only
				ga.table.Upsert(row)
			case 1: // b only
				gb.table.Upsert(row)
			case 2: // both
				ga.table.Upsert(row)
				gb.table.Upsert(row)
			default: // both, in versions that may differ
				ga.table.Upsert(row)
				row.Incarnation += int64(rng.Intn(2))
				row.Left = rng.Intn(3) == 0
				gb.table.Upsert(row)
			}
		}
		agreed := reflect.DeepEqual(ga.table.Snapshot(), gb.table.Snapshot())
		from := len(*log)
		nb.HandleMessage(ga.digest())
		c.eng.RunFor(2 * ga.opts.HelloInterval)
		if a, b := ga.table.Snapshot(), gb.table.Snapshot(); !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: tables differ after the exchange:\n a %+v\n b %+v", trial, a, b)
		}
		n := fullHellos(*log, from, "", "")
		if n > 2 || (agreed && n != 0) {
			t.Fatalf("trial %d: the exchange took %d full HELLOs (tables agreed before: %v)", trial, n, agreed)
		}
	}
}

// TestDigestsKeepSilentFollowerNominable guards the liveness half of
// handleHelloDigest: an ΩL follower sends no heartbeats, so the leader
// distrusts it, and when all that reaches the leader from it is its gossip
// digests, those alone keep it eligible as the warm standby.
func TestDigestsKeepSilentFollowerNominable(t *testing.T) {
	c := newCluster(t, simnet.LAN(), "a", "b", "c")
	// Once the group has converged, the digester reaches the leader with
	// nothing but its digests, and the muted follower not at all.
	var leader, digester id.Process
	muted := false
	for _, p := range c.procs {
		c.startRewriting(p, defaultOpts(election.OmegaL, true), func(to id.Process, m wire.Message) wire.Message {
			if !muted || to != leader {
				return m
			}
			if _, ok := m.(*wire.HelloDigest); ok && p == digester {
				return m
			}
			return nil
		})
	}
	leader = c.waitCommonLeader(5 * time.Second)
	c.eng.RunFor(5 * time.Second)
	var followers []id.Process
	for _, p := range c.procs {
		if p != leader {
			followers = append(followers, p)
		}
	}
	// The larger id: a tie would go to the muted follower, were it eligible.
	digester, muted = followers[1], true

	gl := c.nodes[leader].groups[testGroup]
	window := time.Duration(standbyLivenessFactor) * gl.opts.HelloInterval
	c.eng.RunFor(window) // what the muted follower sent falls out of the window
	for i := 0; i < 40; i++ {
		c.eng.RunFor(250 * time.Millisecond)
		if gl.monitors[digester].mon.Trusted() {
			t.Fatalf("%s trusts %s, which sends it no heartbeats: the test exercises nothing", leader, digester)
		}
		if p, _ := gl.bestFollower(); p != digester {
			t.Fatalf("%v: best follower = %q, want %s, heard from through its digests",
				c.eng.Now().Sub(simnet.Epoch()), p, digester)
		}
	}
}
