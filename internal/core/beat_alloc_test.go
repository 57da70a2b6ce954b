package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"stableleader/id"
	"stableleader/internal/clock"
	"stableleader/internal/election"
	"stableleader/internal/timerwheel"
	"stableleader/internal/wire"
)

// wheelRuntime is a Runtime shaped like the real-time host's — timers on a
// hashed wheel, sends marshalled and released — on a clock the test moves.
type wheelRuntime struct {
	now   time.Time
	wheel *timerwheel.Wheel
	rng   *rand.Rand
	buf   []byte
	sent  int // datagrams
	msgs  int // messages inside them
}

func (r *wheelRuntime) Now() time.Time   { return r.now }
func (r *wheelRuntime) Rand() *rand.Rand { return r.rng }
func (r *wheelRuntime) Send(_ id.Process, m wire.Message) {
	r.sent++
	r.msgs++
	if b, ok := m.(*wire.Batch); ok {
		r.msgs += len(b.Msgs) - 1
	}
	r.buf = wire.MarshalAppend(r.buf[:0], m)
	wire.ReleaseOutbound(m)
}
func (r *wheelRuntime) NewTimer(fn func()) clock.Rearmer {
	return &wheelTimer{r, timerwheel.NewEntry(fn)}
}
func (r *wheelRuntime) AfterFunc(d time.Duration, fn func()) clock.Timer {
	t := r.NewTimer(fn)
	t.Reset(d)
	return t
}

// run moves the clock forward tick by tick, firing what comes due.
func (r *wheelRuntime) run(d time.Duration) {
	for end := r.now.Add(d); r.now.Before(end); {
		r.now = r.now.Add(timerwheel.DefaultTick)
		r.wheel.Advance(r.now)
	}
}

type wheelTimer struct {
	rt *wheelRuntime
	e  *timerwheel.Entry
}

func (t *wheelTimer) Reset(d time.Duration) bool {
	pending := t.e.Pending()
	t.rt.wheel.Schedule(t.e, t.rt.now.Add(d))
	return pending
}
func (t *wheelTimer) Stop() bool { return t.rt.wheel.Stop(t.e) }

// TestPacerBeatAllocFree: a whole heartbeat period of a node at rest —
// the pacer waking on the beat, one ALIVE per group built, staged, flushed
// as one envelope per peer, marshalled and released, the gossip round and
// the monitors' reconfiguration that fall into it — allocates nothing.
func TestPacerBeatAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; alloc counts are nondeterministic")
	}
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	rt := &wheelRuntime{now: start, wheel: timerwheel.New(start, timerwheel.DefaultTick), rng: rand.New(rand.NewSource(1))}
	n := NewNode("self", rt)
	defer n.Stop()
	peers := []id.Process{"p", "q", "r"}
	const groups = 8
	for g := 0; g < groups; g++ {
		gid := id.Group(fmt.Sprintf("g%d", g))
		opts := defaultOpts(election.OmegaL, true)
		// The standby announcement is a message a second, not a beat's.
		opts.DisableHandover = true
		if err := n.Join(gid, opts); err != nil {
			t.Fatal(err)
		}
		for _, p := range peers {
			n.HandleMessage(&wire.Join{Group: gid, Sender: p, Incarnation: 1})
		}
	}
	rt.run(5 * time.Second) // startup grace over: self leads and heartbeats
	if len(n.pacers) != len(peers) {
		t.Fatalf("node runs %d pacers, want one per peer", len(n.pacers))
	}
	period := n.groups["g0"].defaultInterval()
	before, beforeMsgs := rt.sent, rt.msgs
	allocs := testing.AllocsPerRun(50, func() { rt.run(period) })
	beats := 51 // AllocsPerRun warms up once
	if got := rt.sent - before; got < beats*len(peers) {
		t.Fatalf("%d datagrams left in %d periods, want at least one per peer per period", got, beats)
	}
	if got := rt.msgs - beforeMsgs; got < beats*len(peers)*groups {
		t.Fatalf("%d messages left in %d periods, want at least %d heartbeats", got, beats, beats*len(peers)*groups)
	}
	if allocs != 0 {
		t.Errorf("one heartbeat period costs %.2f allocations, want 0", allocs)
	}
}
