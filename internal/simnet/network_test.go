package simnet

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"stableleader/id"
	"stableleader/internal/wire"
)

// collector records delivered messages.
type collector struct {
	msgs []wire.Message
	at   []time.Duration
	eng  *Engine
}

func (c *collector) HandleMessage(m wire.Message) {
	c.msgs = append(c.msgs, m)
	c.at = append(c.at, time.Duration(c.eng.NowNanos()))
}

// testMsg builds a minimal message for transport tests.
func testMsg(from id.Process) wire.Message {
	return &wire.Leave{Group: "g", Sender: from, Incarnation: 1}
}

func newPair(t *testing.T, model LinkModel) (*Engine, *Network, *collector) {
	t.Helper()
	eng := NewEngine(1)
	net := NewNetwork(eng, model)
	net.Attach("a")
	net.Attach("b")
	c := &collector{eng: eng}
	net.SetUp("a", true, nil)
	net.SetUp("b", true, c)
	return eng, net, c
}

func TestDelivery(t *testing.T) {
	eng, net, c := newPair(t, LAN())
	net.Send("a", "b", testMsg("a"))
	eng.RunFor(time.Second)
	if len(c.msgs) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(c.msgs))
	}
	if c.msgs[0].From() != "a" {
		t.Errorf("From = %q", c.msgs[0].From())
	}
}

func TestLossRate(t *testing.T) {
	eng, net, c := newPair(t, LinkModel{Loss: 0.3, MeanDelay: time.Millisecond})
	const n = 20000
	for i := 0; i < n; i++ {
		net.Send("a", "b", testMsg("a"))
	}
	eng.RunFor(time.Minute)
	got := float64(len(c.msgs)) / n
	if math.Abs(got-0.7) > 0.02 {
		t.Errorf("delivery rate = %.3f, want 0.70 ± 0.02", got)
	}
}

func TestDelayDistribution(t *testing.T) {
	mean := 10 * time.Millisecond
	eng, net, c := newPair(t, LinkModel{MeanDelay: mean})
	const n = 20000
	for i := 0; i < n; i++ {
		net.Send("a", "b", testMsg("a"))
	}
	eng.RunFor(time.Minute)
	var sum time.Duration
	for _, d := range c.at {
		sum += d
	}
	got := float64(sum) / float64(len(c.at))
	if math.Abs(got-float64(mean)) > 0.05*float64(mean) {
		t.Errorf("mean delay = %v, want %v ± 5%%", time.Duration(got), mean)
	}
}

func TestLinkDownDropsEverything(t *testing.T) {
	eng, net, c := newPair(t, LAN())
	net.SetLinkDown("a", "b", true)
	for i := 0; i < 100; i++ {
		net.Send("a", "b", testMsg("a"))
	}
	eng.RunFor(time.Second)
	if len(c.msgs) != 0 {
		t.Fatalf("crashed link delivered %d messages", len(c.msgs))
	}
	net.SetLinkDown("a", "b", false)
	net.Send("a", "b", testMsg("a"))
	eng.RunFor(time.Second)
	if len(c.msgs) != 1 {
		t.Fatal("recovered link should deliver again")
	}
}

func TestLinkDownIsDirectional(t *testing.T) {
	eng := NewEngine(1)
	net := NewNetwork(eng, LAN())
	net.Attach("a")
	net.Attach("b")
	ca, cb := &collector{eng: eng}, &collector{eng: eng}
	net.SetUp("a", true, ca)
	net.SetUp("b", true, cb)
	net.SetLinkDown("a", "b", true)
	net.Send("a", "b", testMsg("a"))
	net.Send("b", "a", testMsg("b"))
	eng.RunFor(time.Second)
	if len(cb.msgs) != 0 {
		t.Error("a->b is down, nothing should arrive at b")
	}
	if len(ca.msgs) != 1 {
		t.Error("b->a is up, b's message should arrive at a")
	}
}

func TestCrashedReceiverDropsInFlight(t *testing.T) {
	eng, net, c := newPair(t, LinkModel{MeanDelay: 10 * time.Millisecond})
	net.Send("a", "b", testMsg("a"))
	// Crash b before the message can arrive.
	net.SetUp("b", false, nil)
	eng.RunFor(time.Second)
	if len(c.msgs) != 0 {
		t.Fatal("message delivered to a crashed process")
	}
}

func TestCrashedSenderCannotSend(t *testing.T) {
	eng, net, c := newPair(t, LAN())
	net.SetUp("a", false, nil)
	net.Send("a", "b", testMsg("a"))
	eng.RunFor(time.Second)
	if len(c.msgs) != 0 {
		t.Fatal("crashed sender transmitted")
	}
	if got := net.Endpoint("a").Counters().MsgsSent; got != 0 {
		t.Errorf("crashed sender counted %d sends", got)
	}
}

func TestCountersIncludeHeaderOverhead(t *testing.T) {
	eng, net, _ := newPair(t, LAN())
	m := testMsg("a")
	net.Send("a", "b", m)
	eng.RunFor(time.Second)
	wantBytes := int64(m.WireSize() + wire.UDPOverhead)
	a := net.Endpoint("a").Counters()
	b := net.Endpoint("b").Counters()
	if a.MsgsSent != 1 || a.BytesSent != wantBytes {
		t.Errorf("sender counters = %+v, want 1 msg / %d bytes", a, wantBytes)
	}
	if b.MsgsRecv != 1 || b.BytesRecv != wantBytes {
		t.Errorf("receiver counters = %+v, want 1 msg / %d bytes", b, wantBytes)
	}
}

func TestSenderChargedForDroppedMessages(t *testing.T) {
	eng, net, _ := newPair(t, LinkModel{Loss: 1.0, MeanDelay: time.Millisecond})
	net.Send("a", "b", testMsg("a"))
	eng.RunFor(time.Second)
	a := net.Endpoint("a").Counters()
	if a.MsgsSent != 1 || a.BytesSent == 0 {
		t.Error("the wire was used even though the message was lost")
	}
	if b := net.Endpoint("b").Counters(); b.MsgsRecv != 0 {
		t.Error("lost message was delivered")
	}
}

func TestAttachTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("attaching the same process twice should panic")
		}
	}()
	eng := NewEngine(1)
	net := NewNetwork(eng, LAN())
	net.Attach("a")
	net.Attach("a")
}

func TestNodeRuntimeTimersDieOnShutdown(t *testing.T) {
	eng := NewEngine(1)
	net := NewNetwork(eng, LAN())
	net.Attach("a")
	net.SetUp("a", true, nil)
	rt := NewNodeRuntime(net, "a")
	fired := 0
	rt.AfterFunc(10*time.Millisecond, func() { fired++ })
	rt.AfterFunc(20*time.Millisecond, func() { fired++ })
	eng.RunFor(15 * time.Millisecond)
	rt.Shutdown()
	eng.RunFor(time.Second)
	if fired != 1 {
		t.Errorf("fired = %d, want exactly the pre-shutdown timer", fired)
	}
}

func TestNodeRuntimeTimersSuppressedWhileDown(t *testing.T) {
	eng := NewEngine(1)
	net := NewNetwork(eng, LAN())
	net.Attach("a")
	net.SetUp("a", true, nil)
	rt := NewNodeRuntime(net, "a")
	fired := false
	rt.AfterFunc(10*time.Millisecond, func() { fired = true })
	net.SetUp("a", false, nil) // crash without runtime shutdown
	eng.RunFor(time.Second)
	if fired {
		t.Error("timer fired while the endpoint was down")
	}
}

func TestNodeRuntimeClockMatchesEngine(t *testing.T) {
	eng := NewEngine(1)
	net := NewNetwork(eng, LAN())
	net.Attach("a")
	rt := NewNodeRuntime(net, "a")
	eng.RunFor(time.Second)
	if !rt.Now().Equal(eng.Now()) {
		t.Error("runtime clock diverged from engine clock")
	}
}

func TestNodeRuntimeCountsTimerFires(t *testing.T) {
	eng := NewEngine(1)
	net := NewNetwork(eng, LAN())
	net.Attach("a")
	net.SetUp("a", true, nil)
	rt := NewNodeRuntime(net, "a")
	rt.AfterFunc(time.Millisecond, func() {})
	eng.RunFor(time.Second)
	if got := net.Endpoint("a").Counters().TimerFires; got != 1 {
		t.Errorf("TimerFires = %d, want 1", got)
	}
}

// TestBatchCountsAsOneDatagram pins the byte-exact accounting the paper's
// KB/s figures rely on: a coalesced batch crosses the wire as one datagram
// — one UDP/IP header, one loss draw — while still counting its inner
// protocol messages individually.
func TestBatchCountsAsOneDatagram(t *testing.T) {
	eng, net, c := newPair(t, LAN())
	batch := &wire.Batch{Msgs: []wire.Message{
		&wire.Alive{Group: "g1", Sender: "a", Incarnation: 1, Seq: 1},
		&wire.Alive{Group: "g2", Sender: "a", Incarnation: 1, Seq: 1},
		&wire.Alive{Group: "g3", Sender: "a", Incarnation: 1, Seq: 1},
	}}
	net.Send("a", "b", batch)
	eng.RunFor(time.Second)
	wantBytes := int64(batch.WireSize() + wire.UDPOverhead)
	a := net.Endpoint("a").Counters()
	b := net.Endpoint("b").Counters()
	if a.DatagramsSent != 1 || a.MsgsSent != 3 || a.BytesSent != wantBytes {
		t.Errorf("sender counters = %+v, want 1 datagram / 3 msgs / %d bytes", a, wantBytes)
	}
	if b.DatagramsRecv != 1 || b.MsgsRecv != 3 || b.BytesRecv != wantBytes {
		t.Errorf("receiver counters = %+v, want 1 datagram / 3 msgs / %d bytes", b, wantBytes)
	}
	// The batch costs strictly less wire than three bare datagrams.
	var bare int64
	for _, m := range batch.Msgs {
		bare += int64(m.WireSize() + wire.UDPOverhead)
	}
	if wantBytes >= bare {
		t.Errorf("batch costs %d bytes, three bare datagrams %d: coalescing must save wire", wantBytes, bare)
	}
	// Delivery hands the whole envelope to the node in one callback.
	if len(c.msgs) != 1 {
		t.Fatalf("delivered %d times, want 1", len(c.msgs))
	}
	if got, ok := c.msgs[0].(*wire.Batch); !ok || len(got.Msgs) != 3 {
		t.Errorf("delivered %+v, want the 3-message batch", c.msgs[0])
	}
}

// TestCompactedBatchCountsWireBytes: a batch that codes its heartbeats as
// a run is charged what it marshals to — fewer bytes than the classic
// envelope of the same messages — and still counts every message,
// announcement included.
func TestCompactedBatchCountsWireBytes(t *testing.T) {
	eng, net, c := newPair(t, LAN())
	batch := &wire.Batch{Runs: true, Msgs: []wire.Message{
		&wire.Alive{Group: "g1", Sender: "a", Incarnation: 1, Seq: 7, SendTime: 5e9, Interval: 2e8, AccTime: 3},
		&wire.Alive{Group: "g2", Sender: "a", Incarnation: 1, Seq: 7, SendTime: 5e9 + 4e3, Interval: 2e8, AccTime: 4},
		&wire.Alive{Group: "g3", Sender: "a", Incarnation: 1, Seq: 7, SendTime: 5e9 + 1e3, Interval: 2e8, AccTime: 5},
		&wire.AliveRun{Sender: "a", Incarnation: 1},
	}}
	net.Send("a", "b", batch)
	eng.RunFor(time.Second)
	wantBytes := int64(len(wire.Marshal(batch)) + wire.UDPOverhead)
	a := net.Endpoint("a").Counters()
	b := net.Endpoint("b").Counters()
	if a.DatagramsSent != 1 || a.MsgsSent != 4 || a.BytesSent != wantBytes {
		t.Errorf("sender counters = %+v, want 1 datagram / 4 msgs / %d bytes", a, wantBytes)
	}
	if b.DatagramsRecv != 1 || b.MsgsRecv != 4 || b.BytesRecv != wantBytes {
		t.Errorf("receiver counters = %+v, want 1 datagram / 4 msgs / %d bytes", b, wantBytes)
	}
	classic := &wire.Batch{Msgs: batch.Msgs}
	if wantBytes >= int64(classic.WireSize()+wire.UDPOverhead) {
		t.Errorf("compacted batch charged %d bytes, classic %d: the run must save wire", wantBytes, classic.WireSize()+wire.UDPOverhead)
	}
	if len(c.msgs) != 1 || c.msgs[0] != batch {
		t.Errorf("delivered %+v, want the batch itself", c.msgs)
	}
}

func TestExpMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	const mean = 3500 * time.Microsecond
	var sum time.Duration
	for i := 0; i < n; i++ {
		v := expDuration(rng, mean)
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	got := sum / n
	if d := got - mean; d > 50*time.Microsecond || d < -50*time.Microsecond {
		t.Errorf("empirical mean = %v, want %v ± 50µs", got, mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	before := rng.Int63()
	rng.Seed(1)
	if expDuration(rng, 0) != 0 || expDuration(rng, -1) != 0 {
		t.Error("non-positive mean should yield 0")
	}
	if rng.Int63() != before {
		t.Error("non-positive mean drew from the random stream")
	}
}
