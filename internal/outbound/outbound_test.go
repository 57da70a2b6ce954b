package outbound

import (
	"testing"
	"time"

	"stableleader/id"
	"stableleader/internal/clock"
	"stableleader/internal/metrics"
	"stableleader/internal/simnet"
	"stableleader/internal/wire"
)

// engClock adapts the deterministic simulation engine to clock.Clock.
type engClock struct{ eng *simnet.Engine }

func (c engClock) Now() time.Time { return c.eng.Now() }
func (c engClock) AfterFunc(d time.Duration, fn func()) clock.Timer {
	return c.eng.After(d, fn)
}

// emitted records one flushed datagram.
type emitted struct {
	to id.Process
	m  wire.Message
}

type harness struct {
	eng      *simnet.Engine
	counters *metrics.PacketCounters
	sched    *Scheduler
	out      []emitted
}

func newHarness(t *testing.T, mutate func(*Config)) *harness {
	t.Helper()
	h := &harness{eng: simnet.NewEngine(1), counters: &metrics.PacketCounters{}}
	cfg := Config{
		Clock:    engClock{h.eng},
		Emit:     func(to id.Process, m wire.Message) { h.out = append(h.out, emitted{to, m}) },
		Counters: h.counters,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	h.sched = New(cfg)
	return h
}

func alive(g id.Group, seq uint64) *wire.Alive {
	return &wire.Alive{Group: g, Sender: "a", Incarnation: 1, Seq: seq, Interval: int64(time.Second)}
}

func TestCoalescesIntoOneBatch(t *testing.T) {
	h := newHarness(t, nil)
	h.sched.Enqueue("b", alive("g1", 1), time.Millisecond)
	h.sched.Enqueue("b", alive("g2", 1), time.Millisecond)
	h.sched.Enqueue("b", alive("g3", 1), time.Millisecond)
	if len(h.out) != 0 {
		t.Fatalf("flushed before the coalescing delay: %v", h.out)
	}
	h.eng.RunFor(time.Millisecond)
	if len(h.out) != 1 {
		t.Fatalf("emitted %d datagrams, want 1", len(h.out))
	}
	b, ok := h.out[0].m.(*wire.Batch)
	if !ok || len(b.Msgs) != 3 {
		t.Fatalf("want a 3-message batch, got %+v", h.out[0].m)
	}
	// FIFO per destination.
	for i, g := range []id.Group{"g1", "g2", "g3"} {
		if b.Msgs[i].GroupID() != g {
			t.Errorf("slot %d carries %s, want %s", i, b.Msgs[i].GroupID(), g)
		}
	}
	st := h.counters.Snapshot()
	if st.DatagramsOut != 1 || st.MessagesOut != 3 || st.BatchesOut != 1 || st.CoalescedOut != 3 {
		t.Errorf("counters = %+v", st)
	}
	if want := int64(b.WireSize() + wire.UDPOverhead); st.BytesOut != want {
		t.Errorf("BytesOut = %d, want %d", st.BytesOut, want)
	}
	// Nothing further fires.
	h.eng.RunFor(time.Second)
	if len(h.out) != 1 {
		t.Errorf("spurious late flush: %v", h.out)
	}
}

func TestSingleMessageShipsBare(t *testing.T) {
	h := newHarness(t, nil)
	m := alive("g", 7)
	h.sched.Enqueue("b", m, time.Millisecond)
	h.eng.RunFor(2 * time.Millisecond)
	if len(h.out) != 1 || h.out[0].m != wire.Message(m) {
		t.Fatalf("want the bare message, got %+v", h.out)
	}
	st := h.counters.Snapshot()
	if st.DatagramsOut != 1 || st.MessagesOut != 1 || st.BatchesOut != 0 || st.CoalescedOut != 0 {
		t.Errorf("counters = %+v", st)
	}
}

func TestImmediateKindDrainsQueueSynchronously(t *testing.T) {
	h := newHarness(t, nil)
	h.sched.Enqueue("b", alive("g1", 1), 5*time.Millisecond)
	h.sched.Enqueue("b", alive("g2", 1), 5*time.Millisecond)
	acc := &wire.Accuse{Group: "g1", Sender: "a", Incarnation: 1}
	h.sched.Enqueue("b", acc, 0)
	if len(h.out) != 1 {
		t.Fatalf("immediate enqueue did not flush synchronously: %v", h.out)
	}
	b, ok := h.out[0].m.(*wire.Batch)
	if !ok || len(b.Msgs) != 3 || b.Msgs[2] != wire.Message(acc) {
		t.Fatalf("queue must drain in order with the urgent message last: %+v", h.out[0].m)
	}
	h.eng.RunFor(time.Second)
	if len(h.out) != 1 {
		t.Errorf("cancelled timer still fired: %v", h.out)
	}
}

func TestSizeThresholdFlushes(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.MaxBytes = 200 })
	for i := 0; i < 10; i++ {
		h.sched.Enqueue("b", alive("group-with-a-name", uint64(i)), time.Second)
	}
	if len(h.out) == 0 {
		t.Fatal("size threshold never flushed")
	}
	for _, e := range h.out {
		if size := e.m.WireSize(); size > 200 {
			t.Errorf("emitted datagram of %d bytes exceeds the threshold", size)
		}
	}
}

func TestOversizedMessageShipsAlone(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.MaxBytes = 64 })
	big := &wire.Hello{Group: "g", Sender: "a", Incarnation: 1}
	for i := 0; i < 20; i++ {
		big.Members = append(big.Members, wire.MemberInfo{ID: id.Process("member-000" + string(rune('a'+i))), Incarnation: 1})
	}
	if big.WireSize() <= 64 {
		t.Fatal("test setup: hello not oversized")
	}
	h.sched.Enqueue("b", big, time.Millisecond)
	if len(h.out) != 1 || h.out[0].m != wire.Message(big) {
		t.Fatalf("oversized message must flush immediately and bare: %+v", h.out)
	}
}

func TestEarlierDeadlineWins(t *testing.T) {
	h := newHarness(t, nil)
	h.sched.Enqueue("b", alive("g1", 1), 10*time.Millisecond)
	h.sched.Enqueue("b", alive("g2", 1), time.Millisecond)
	h.eng.RunFor(time.Millisecond)
	if len(h.out) != 1 {
		t.Fatalf("queue did not flush at the earlier deadline: %v", h.out)
	}
	// A later deadline must not postpone an armed earlier one.
	h.sched.Enqueue("b", alive("g3", 1), time.Millisecond)
	h.sched.Enqueue("b", alive("g4", 1), 10*time.Millisecond)
	h.eng.RunFor(time.Millisecond)
	if len(h.out) != 2 {
		t.Fatalf("armed deadline was postponed: %v", h.out)
	}
}

func TestPerDestinationIsolation(t *testing.T) {
	h := newHarness(t, nil)
	h.sched.Enqueue("b", alive("g1", 1), time.Millisecond)
	h.sched.Enqueue("c", alive("g1", 1), time.Millisecond)
	h.eng.RunFor(time.Millisecond)
	if len(h.out) != 2 {
		t.Fatalf("emitted %d datagrams, want one per destination", len(h.out))
	}
	if h.out[0].to == h.out[1].to {
		t.Errorf("both datagrams went to %q", h.out[0].to)
	}
}

func TestDisabledBypassesCoalescing(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.Disabled = true })
	h.sched.Enqueue("b", alive("g1", 1), time.Millisecond)
	h.sched.Enqueue("b", alive("g2", 1), time.Millisecond)
	if len(h.out) != 2 {
		t.Fatalf("disabled scheduler staged messages: %v", h.out)
	}
	for _, e := range h.out {
		if _, ok := e.m.(*wire.Batch); ok {
			t.Error("disabled scheduler emitted a batch")
		}
	}
	st := h.counters.Snapshot()
	if st.DatagramsOut != 2 || st.MessagesOut != 2 || st.CoalescedOut != 0 {
		t.Errorf("counters = %+v", st)
	}
}

func TestStopDropsStagedTraffic(t *testing.T) {
	h := newHarness(t, nil)
	h.sched.Enqueue("b", alive("g1", 1), time.Millisecond)
	h.sched.Stop()
	h.sched.Enqueue("b", alive("g2", 1), 0)
	h.eng.RunFor(time.Second)
	if len(h.out) != 0 {
		t.Errorf("stopped scheduler emitted %v", h.out)
	}
}

func TestFlushAllDrainsEverything(t *testing.T) {
	h := newHarness(t, nil)
	h.sched.Enqueue("c", alive("g1", 1), time.Hour)
	h.sched.Enqueue("b", alive("g1", 1), time.Hour)
	h.sched.FlushAll()
	if len(h.out) != 2 {
		t.Fatalf("FlushAll emitted %d datagrams, want 2", len(h.out))
	}
	// Deterministic destination order.
	if h.out[0].to != "b" || h.out[1].to != "c" {
		t.Errorf("FlushAll order = %v, want sorted by id", []id.Process{h.out[0].to, h.out[1].to})
	}
}

// TestPortsShareOneQueue: what two ports stage for one peer leaves as one
// datagram, in staging order, through the port whose (earlier) deadline
// fires; the undercut port's timer then finds nothing to do.
func TestPortsShareOneQueue(t *testing.T) {
	h := &harness{eng: simnet.NewEngine(1), counters: &metrics.PacketCounters{}}
	h.sched = New(Config{Counters: h.counters})
	var via []string
	port := func(name string) *Port {
		return h.sched.Port(engClock{h.eng}, func(to id.Process, m wire.Message) {
			via = append(via, name)
			h.out = append(h.out, emitted{to, m})
		}, nil)
	}
	a, b := port("a"), port("b")
	a.Enqueue("p", alive("g1", 1), 2*time.Millisecond)
	b.Enqueue("p", alive("g2", 1), time.Millisecond)
	a.Enqueue("p", alive("g3", 1), 2*time.Millisecond) // later than the armed deadline: arms nothing
	h.eng.RunFor(time.Millisecond)
	if len(h.out) != 1 || via[0] != "b" {
		t.Fatalf("after 1ms: %d datagrams via %v, want one via b", len(h.out), via)
	}
	batch, ok := h.out[0].m.(*wire.Batch)
	if !ok || len(batch.Msgs) != 3 {
		t.Fatalf("datagram = %v, want a batch of three", h.out[0].m)
	}
	for i, g := range []id.Group{"g1", "g2", "g3"} {
		if batch.Msgs[i].GroupID() != g {
			t.Errorf("batch[%d] is %s's, want %s's: staging order lost", i, batch.Msgs[i].GroupID(), g)
		}
	}
	h.eng.RunFor(time.Second) // a's timer, armed for 2ms, fires into an empty queue
	if len(h.out) != 1 {
		t.Fatalf("the undercut port's stale timer emitted: %v", h.out[1:])
	}

	// A port that stops while its timer holds the queue's deadline leaves
	// the queue for the next enqueue to arm; the last port to stop drops
	// what is staged.
	a.Enqueue("p", alive("g1", 2), time.Millisecond)
	a.Stop()
	h.eng.RunFor(time.Second)
	if len(h.out) != 1 {
		t.Fatalf("a stopped port's timer emitted: %v", h.out[1:])
	}
	b.Enqueue("p", alive("g2", 2), time.Millisecond)
	h.eng.RunFor(time.Millisecond)
	if len(h.out) != 2 || via[1] != "b" {
		t.Fatalf("b's enqueue after a stopped: %d datagrams via %v, want a second one via b", len(h.out), via)
	}
	if batch, ok := h.out[1].m.(*wire.Batch); !ok || len(batch.Msgs) != 2 {
		t.Errorf("b carried out %v, want a's staged message and its own", h.out[1].m)
	}
	b.Enqueue("p", alive("g2", 3), time.Millisecond)
	b.Stop()
	if msgs, _ := h.sched.Staged(); msgs != 0 {
		t.Errorf("%d messages staged after the last port stopped", msgs)
	}
}

// TestCapsCodeRunsAndCarryTheNote: a port's caps decide, per datagram as
// it leaves, whether the envelope codes runs and whether the owner's
// announcement rides along — appended last, counted with the messages,
// the bytes counted as the compact envelope marshals. A lone message
// with a note becomes a two-message batch; with none it stays bare. No
// datagram is ever added.
func TestCapsCodeRunsAndCarryTheNote(t *testing.T) {
	h := &harness{eng: simnet.NewEngine(1), counters: &metrics.PacketCounters{}}
	h.sched = New(Config{Counters: h.counters})
	capable, due := map[id.Process]bool{"b": true}, map[id.Process]bool{"b": true, "c": true}
	port := h.sched.Port(engClock{h.eng}, func(to id.Process, m wire.Message) {
		h.out = append(h.out, emitted{to, m})
	}, func(to id.Process) (bool, wire.Message) {
		if !due[to] {
			return capable[to], nil
		}
		due[to] = false
		return capable[to], &wire.AliveRun{Sender: "a", Incarnation: 1}
	})
	for _, g := range []id.Group{"g1", "g2", "g3"} {
		port.Enqueue("b", alive(g, 1), time.Millisecond)
	}
	port.Enqueue("c", alive("g1", 1), time.Millisecond)
	port.Enqueue("d", alive("g1", 1), time.Millisecond)
	h.eng.RunFor(time.Millisecond)
	for _, g := range []id.Group{"g1", "g2"} {
		port.Enqueue("b", alive(g, 2), time.Millisecond)
	}
	h.eng.RunFor(time.Millisecond)
	if len(h.out) != 4 {
		t.Fatalf("emitted %d datagrams, want 4: %+v", len(h.out), h.out)
	}
	first, ok := h.out[0].m.(*wire.Batch)
	if !ok || !first.Runs || len(first.Msgs) != 4 || first.Msgs[3].Kind() != wire.KindAliveRun {
		t.Errorf("to b: %+v, want three ALIVEs coded as a run and the note last", h.out[0].m)
	}
	if lone, ok := h.out[1].m.(*wire.Batch); !ok || lone.Runs || len(lone.Msgs) != 2 {
		t.Errorf("to c: %+v, want the ALIVE and the note, classic", h.out[1].m)
	}
	if _, bare := h.out[2].m.(*wire.Alive); !bare {
		t.Errorf("to d: %+v, want the bare ALIVE", h.out[2].m)
	}
	if again, ok := h.out[3].m.(*wire.Batch); !ok || !again.Runs || len(again.Msgs) != 2 {
		t.Errorf("to b again: %+v, want a run and no second note", h.out[3].m)
	}
	var bytes int64
	for _, e := range h.out {
		bytes += int64(len(wire.Marshal(e.m)) + wire.UDPOverhead)
	}
	st := h.counters.Snapshot()
	if st.DatagramsOut != 4 || st.MessagesOut != 9 || st.BytesOut != bytes {
		t.Errorf("counters = %+v, want 4 datagrams, 9 messages, %d bytes", st, bytes)
	}
}
