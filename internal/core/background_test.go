package core

import (
	"fmt"
	"testing"
	"time"

	"stableleader/id"
	"stableleader/internal/election"
	"stableleader/internal/simnet"
	"stableleader/internal/wire"
)

// sent is one datagram a tapped node emitted.
type sent struct {
	at       time.Time
	from, to id.Process
	msgs     []wire.Message
}

// background reports whether the datagram carries nothing but traffic of
// the background delay class.
func (s sent) background() bool {
	for _, m := range s.msgs {
		switch m.(type) {
		case *wire.Hello, *wire.Rate:
		default:
			return false
		}
	}
	return true
}

// tapCluster is a cluster recording every datagram its nodes emit.
func tapCluster(t *testing.T, procs ...id.Process) (*cluster, *[]sent) {
	c := newCluster(t, simnet.LAN(), procs...)
	var log []sent
	c.onSend = func(from, to id.Process, m wire.Message) {
		msgs := []wire.Message{m}
		if b, ok := m.(*wire.Batch); ok {
			msgs = append([]wire.Message(nil), b.Msgs...)
		}
		log = append(log, sent{at: c.eng.Now(), from: from, to: to, msgs: msgs})
	}
	return c, &log
}

// hellos counts the HELLOs of group g that from sent to to ("" = anyone)
// in the datagrams logged since index i.
func hellos(log []sent, i int, from, to id.Process, g id.Group) int {
	n := 0
	for _, s := range log[i:] {
		if s.from != from || (to != "" && s.to != to) {
			continue
		}
		for _, m := range s.msgs {
			if h, ok := m.(*wire.Hello); ok && h.Group == g {
				n++
			}
		}
	}
	return n
}

// settle steps virtual time until n has nothing staged, so that what a
// test stages next shares its datagram with nothing else.
func (c *cluster) settle(n *Node) {
	for {
		if msgs, _ := n.OutboundStaged(); msgs == 0 {
			return
		}
		c.eng.RunFor(time.Millisecond)
	}
}

// leaderOfEight boots "a" as the only candidate of eight groups shared with
// five observers, so a leads them all and is the only heartbeat source.
func leaderOfEight(t *testing.T) (*cluster, *[]sent, []id.Group) {
	c, log := tapCluster(t, "a", "b", "c", "d", "e", "f")
	groups := []id.Group{testGroup}
	for _, p := range c.procs {
		c.start(p, defaultOpts(election.OmegaL, p == "a"))
	}
	for i := 2; i <= 8; i++ {
		g := id.Group(fmt.Sprintf("g%d", i))
		groups = append(groups, g)
		for _, p := range c.procs {
			opts := defaultOpts(election.OmegaL, p == "a")
			opts.Seeds = c.procs
			if err := c.nodes[p].Join(g, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	if l := c.waitCommonLeader(5 * time.Second); l != "a" {
		t.Fatalf("leader = %q, want the only candidate a", l)
	}
	return c, log, groups
}

// TestRestIsOneDatagramPerPeerPerHeartbeat is the at-rest claim of the
// background delay class: toward a peer it heartbeats, a node's gossip and
// rate requests ride the heartbeat datagrams instead of sending their own.
func TestRestIsOneDatagramPerPeerPerHeartbeat(t *testing.T) {
	c, log, _ := leaderOfEight(t)
	c.eng.RunFor(10 * time.Second) // joins, greetings and first rates settle
	na := c.nodes["a"]
	eta := func() time.Duration {
		min := time.Duration(0)
		for _, pp := range na.pacers {
			if min == 0 || pp.minIv < min {
				min = pp.minIv
			}
		}
		return min
	}
	fastest := eta()
	from := len(*log)
	const window = 20 * time.Second
	c.eng.RunFor(window)
	if e := eta(); e < fastest {
		fastest = e
	}
	perPeer := map[id.Process]int{}
	for _, s := range (*log)[from:] {
		if s.from != "a" {
			continue
		}
		perPeer[s.to]++
		if s.background() {
			t.Errorf("%v: datagram a->%s carries only background traffic: %v", s.at.Sub(simnet.Epoch()), s.to, s.msgs)
		}
	}
	if hellos(*log, from, "a", "", testGroup) == 0 {
		t.Error("a gossiped nothing in 20s: the test observed no background traffic")
	}
	limit := int(1.1 * float64(window) / float64(fastest))
	for _, p := range c.procs[1:] {
		if perPeer[p] == 0 || perPeer[p] > limit {
			t.Errorf("a->%s: %d datagrams in %v at η=%v, want 1..%d", p, perPeer[p], window, fastest, limit)
		}
	}
}

// TestBackgroundWithoutHeartbeatsIsBoundedByItsPeriod: a node that sends a
// peer no heartbeats still delivers its gossip within an eighth of the
// gossip period plus the coalescing delay, and a message staged behind a
// heartbeat that then never comes leaves by the deadline armed for it.
func TestBackgroundWithoutHeartbeatsIsBoundedByItsPeriod(t *testing.T) {
	c, log, groups := leaderOfEight(t)
	c.eng.RunFor(5 * time.Second)

	nb := c.nodes["b"]
	if len(nb.pacers) != 0 {
		t.Fatalf("observer b runs %d pacers, want none", len(nb.pacers))
	}
	gs := nb.groups[testGroup]
	// b's groups gossip in the same eighths of the period: hold their own
	// rounds, so that what is staged after the bound is this round's.
	for _, g := range nb.groups {
		g.helloTimer.Stop()
	}
	from := len(*log)
	asked := c.eng.Now()
	gs.gossip()
	bound := gs.opts.HelloInterval/8 + nb.coalesceDelayFor("a")
	c.eng.RunFor(bound)
	if n := hellos(*log, from, "b", "", testGroup); n < gossipFanout {
		t.Errorf("%d of %d gossip HELLOs left b within %v of the round", n, gossipFanout, bound)
	}
	if msgs, _ := nb.OutboundStaged(); msgs != 0 {
		t.Errorf("%d messages still staged on b %v after the round", msgs, c.eng.Now().Sub(asked))
	}

	// On the leader: stage a HELLO behind the next beat toward f, then drop
	// every stream toward f before that beat.
	na := c.nodes["a"]
	c.settle(na)
	beat, _ := na.pacers["f"].earliest()
	deadline := beat.Add(na.coalesceDelayFor("f"))
	from = len(*log)
	hello := na.groups[testGroup].hello()
	na.sendBackground("f", hello, time.Second)
	if len(*log) != from {
		t.Fatal("a background message left at once instead of waiting for the beat")
	}
	for _, g := range groups {
		na.dropStream(g, "f")
	}
	if na.pacers["f"] != nil {
		t.Fatal("pacer toward f survived dropping its streams")
	}
	c.eng.RunUntil(deadline)
	left := false
	for _, s := range (*log)[from:] {
		for _, m := range s.msgs {
			if m == wire.Message(hello) {
				left = true
			}
		}
	}
	if !left {
		t.Errorf("HELLO staged behind a dropped heartbeat stream had not left by its armed deadline")
	}
}

// TestLazyAndUrgentKeepTheirTiming: the background class changes nothing
// for the other two — a JOIN is greeted within the lazy window, and an
// urgent message drains staged background traffic ahead of itself, in
// order, as one datagram.
func TestLazyAndUrgentKeepTheirTiming(t *testing.T) {
	c, log, _ := leaderOfEight(t)
	c.eng.RunFor(5 * time.Second)
	na := c.nodes["a"]

	from := len(*log)
	lazy := na.coalesceDelayFor("z")
	na.HandleMessage(&wire.Join{Group: testGroup, Sender: "z", Incarnation: 1})
	c.eng.RunFor(lazy)
	if hellos(*log, from, "a", "z", testGroup) == 0 {
		t.Errorf("JOIN from z not answered with a HELLO within the lazy window %v", lazy)
	}

	c.settle(na)
	gs := na.groups[testGroup]
	hello := gs.hello()
	rate := &wire.Rate{Group: testGroup, Sender: "a", Incarnation: na.inc, Interval: int64(time.Second)}
	na.sendBackground("b", hello, gs.opts.HelloInterval)
	na.sendBackground("b", rate, gs.opts.ReconfigureInterval)
	from = len(*log)
	gs.SendAccuse("b", 1, 0)
	out := (*log)[from:]
	if len(out) != 1 || out[0].to != "b" {
		t.Fatalf("urgent send emitted %d datagrams, want exactly one to b: %+v", len(out), out)
	}
	got := out[0].msgs
	if len(got) != 3 || got[0] != wire.Message(hello) || got[1] != wire.Message(rate) {
		t.Fatalf("datagram = %v, want [hello rate accuse]", got)
	}
	if _, ok := got[2].(*wire.Accuse); !ok {
		t.Fatalf("urgent message is not last: %v", got)
	}
}
