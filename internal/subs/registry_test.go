package subs

import (
	"fmt"
	"testing"
	"time"

	"stableleader/id"
	"stableleader/internal/clock"
	"stableleader/internal/obs"
	"stableleader/internal/simnet"
	"stableleader/internal/wire"
)

// clockAdapter exposes a simnet engine as a clock.Clock, so registry time
// is fully controlled by the test.
type clockAdapter struct{ eng *simnet.Engine }

func (c clockAdapter) Now() time.Time { return c.eng.Now() }
func (c clockAdapter) AfterFunc(d time.Duration, fn func()) clock.Timer {
	return c.eng.After(d, fn)
}

// sent records one registry emission.
type sent struct {
	to     id.Process
	m      *wire.LeaderSnapshot
	urgent bool
}

// harness wires a registry to a virtual clock and a capture sink.
type harness struct {
	eng    *simnet.Engine
	reg    *Registry
	out    []sent
	view   View
	served map[id.Group]bool
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{eng: simnet.NewEngine(1), served: map[id.Group]bool{"g": true}}
	h.view = View{Leader: "w01", Incarnation: 7, Elected: true, At: h.eng.Now()}
	cfg.Self = "w01"
	cfg.Incarnation = 1
	cfg.Clock = clockAdapter{h.eng}
	cfg.Send = func(to id.Process, m wire.Message, urgent bool) {
		snap, ok := m.(*wire.LeaderSnapshot)
		if !ok {
			t.Fatalf("registry sent a %T, want *wire.LeaderSnapshot", m)
		}
		cp := *snap
		h.out = append(h.out, sent{to: to, m: &cp, urgent: urgent})
	}
	cfg.Leader = func(g id.Group) (View, bool) {
		if !h.served[g] {
			return View{}, false
		}
		return h.view, true
	}
	h.reg = New(cfg)
	return h
}

func (h *harness) take() []sent {
	out := h.out
	h.out = nil
	return out
}

func TestSubscribeAnswersImmediately(t *testing.T) {
	h := newHarness(t, Config{})
	h.reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "c1", Incarnation: 5, TTL: int64(10 * time.Second)})
	out := h.take()
	if len(out) != 1 {
		t.Fatalf("subscribe produced %d sends, want 1", len(out))
	}
	m := out[0].m
	if out[0].to != "c1" || m.Group != "g" || !m.Elected || m.Leader != "w01" ||
		m.Tombstone || m.Lease != int64(10*time.Second) {
		t.Fatalf("bad subscribe answer: %+v", m)
	}
	if st := h.reg.Stats(); st.Clients != 1 || st.Leases != 1 {
		t.Fatalf("stats = %+v, want 1 client / 1 lease", st)
	}
}

func TestSubscribeUnservedGroupGetsTombstone(t *testing.T) {
	h := newHarness(t, Config{})
	h.reg.HandleSubscribe(&wire.Subscribe{Group: "nope", Sender: "c1", Incarnation: 5})
	out := h.take()
	if len(out) != 1 || !out[0].m.Tombstone {
		t.Fatalf("unserved group: got %+v, want one tombstone", out)
	}
	if st := h.reg.Stats(); st.Leases != 0 {
		t.Fatalf("unserved subscribe registered a lease: %+v", st)
	}
}

func TestLeaderChangeFansOutToSubscribersOnly(t *testing.T) {
	h := newHarness(t, Config{})
	for i := 0; i < 3; i++ {
		h.reg.HandleSubscribe(&wire.Subscribe{
			Group: "g", Sender: id.Process(fmt.Sprintf("c%d", i)), Incarnation: 1,
		})
	}
	h.take()
	h.view = View{Leader: "w02", Incarnation: 9, Elected: true, At: h.eng.Now()}
	h.reg.PublishLeaderChange("g", h.view)
	out := h.take()
	if len(out) != 3 {
		t.Fatalf("leader change fanned out %d snapshots, want 3", len(out))
	}
	// Deterministic order, same seq, fresh view.
	var lastSeq uint64
	for i, s := range out {
		if want := id.Process(fmt.Sprintf("c%d", i)); s.to != want {
			t.Errorf("fan-out %d went to %s, want %s (sorted order)", i, s.to, want)
		}
		if s.m.Leader != "w02" || s.urgent {
			t.Errorf("fan-out %d: %+v", i, s.m)
		}
		if i > 0 && s.m.Seq != lastSeq {
			t.Errorf("fan-out seq differs between clients: %d vs %d", s.m.Seq, lastSeq)
		}
		lastSeq = s.m.Seq
	}
	// A publication for a group with no subscribers is a no-op.
	h.reg.PublishLeaderChange("other", h.view)
	if out := h.take(); len(out) != 0 {
		t.Fatalf("no-subscriber publish sent %d messages", len(out))
	}
}

func TestLeaseExpiresUnrenewed(t *testing.T) {
	h := newHarness(t, Config{MinTTL: time.Second})
	h.reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "c1", Incarnation: 1, TTL: int64(2 * time.Second)})
	h.reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "c2", Incarnation: 1, TTL: int64(30 * time.Second)})
	h.take()

	// c1 renews once at 1.5s, then goes silent.
	h.eng.RunFor(1500 * time.Millisecond)
	h.reg.HandleRenew(&wire.LeaseRenew{Group: "g", Sender: "c1", Incarnation: 1, TTL: int64(2 * time.Second)})

	// At 3s c1's renewed lease (expires 3.5s) still lives.
	h.eng.RunFor(1500 * time.Millisecond)
	if st := h.reg.Stats(); st.Leases != 2 {
		t.Fatalf("leases at 3s = %d, want 2", st.Leases)
	}
	// At 4s c1 expired; c2 (30s lease) remains.
	h.eng.RunFor(time.Second)
	if st := h.reg.Stats(); st.Leases != 1 || st.Clients != 1 {
		t.Fatalf("stats after expiry = %+v, want c2 only", h.reg.Stats())
	}
	// Expired client's snapshots stop.
	h.take()
	h.eng.RunFor(20 * time.Second)
	for _, s := range h.take() {
		if s.to == "c1" {
			t.Fatalf("expired client still receives snapshots: %+v", s)
		}
	}
}

func TestRenewOfUnknownLeaseHealsAsSubscribe(t *testing.T) {
	h := newHarness(t, Config{})
	h.reg.HandleRenew(&wire.LeaseRenew{Group: "g", Sender: "c1", Incarnation: 1, TTL: int64(5 * time.Second)})
	out := h.take()
	if len(out) != 1 || out[0].m.Tombstone {
		t.Fatalf("healing renew answered %+v, want one snapshot", out)
	}
	if st := h.reg.Stats(); st.Leases != 1 {
		t.Fatalf("healing renew did not register: %+v", st)
	}
}

func TestStaleLifetimeSubscribeDroppedSilently(t *testing.T) {
	// A reordered SUBSCRIBE from a client's previous lifetime must be
	// ignored entirely: a tombstone reply carries no client incarnation,
	// so the client's CURRENT lifetime would accept it and tear down its
	// healthy subscription.
	h := newHarness(t, Config{})
	h.reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "c1", Incarnation: 2})
	h.take()
	h.reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "c1", Incarnation: 1})
	if out := h.take(); len(out) != 0 {
		t.Fatalf("stale-lifetime subscribe answered with %+v, want silence", out)
	}
	h.reg.HandleRenew(&wire.LeaseRenew{Group: "g", Sender: "c1", Incarnation: 1})
	if out := h.take(); len(out) != 0 {
		t.Fatalf("stale-lifetime renew answered with %+v, want silence", out)
	}
	if st := h.reg.Stats(); st.Leases != 1 {
		t.Fatalf("stale traffic disturbed the live lease: %+v", st)
	}
}

func TestSeqSurvivesLastSubscriberDropping(t *testing.T) {
	// The per-group snapshot sequence must be monotone for the node's
	// lifetime: if it restarted when the last subscriber dropped, a
	// client re-subscribing mid-stream would reject the fresh snapshots
	// as reordered duplicates of its higher last-seen sequence.
	h := newHarness(t, Config{})
	h.reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "c1", Incarnation: 1})
	for i := 0; i < 5; i++ {
		h.reg.PublishLeaderChange("g", h.view)
	}
	out := h.take()
	before := out[len(out)-1].m.Seq
	h.reg.HandleUnsubscribe(&wire.Unsubscribe{Group: "g", Sender: "c1", Incarnation: 1})
	h.reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "c1", Incarnation: 1})
	out = h.take()
	if len(out) != 1 || out[0].m.Seq <= before {
		t.Fatalf("seq after re-subscribe = %d, want > %d (monotone across empty registry)",
			out[0].m.Seq, before)
	}
}

// renew sends c1's renewal of its 6 s lease on g.
func (h *harness) renew() {
	h.reg.HandleRenew(&wire.LeaseRenew{Group: "g", Sender: "c1", Incarnation: 1, TTL: int64(6 * time.Second)})
}

func TestDueRenewalIsAnswered(t *testing.T) {
	// A renewal a third of the lease after the last snapshot — the
	// client's cadence — finds the view ttl/6 old or more and answers it:
	// the renewal is the client's freshness poll.
	h := newHarness(t, Config{})
	h.reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "c1", Incarnation: 1, TTL: int64(6 * time.Second)})
	first := h.take()[0].m.Seq
	h.eng.RunFor(2 * time.Second)
	h.renew()
	out := h.take()
	if len(out) != 1 || out[0].to != "c1" || out[0].urgent {
		t.Fatalf("due renewal answered %+v, want one coalesced snapshot to c1", out)
	}
	if m := out[0].m; m.Tombstone || m.Leader != "w01" || m.Seq <= first || m.Lease != int64(6*time.Second) {
		t.Fatalf("due renewal answered %+v, want the current view, a later seq and the 6s lease", m)
	}
}

func TestFreshRenewalIsSilent(t *testing.T) {
	// A renewal less than ttl/6 after the client's last snapshot — of any
	// kind, here a leader-change fan-out — only extends the lease.
	h := newHarness(t, Config{})
	h.reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "c1", Incarnation: 1, TTL: int64(6 * time.Second)})
	h.eng.RunFor(1500 * time.Millisecond)
	h.reg.PublishLeaderChange("g", h.view)
	h.take()
	h.eng.RunFor(500 * time.Millisecond)
	h.renew()
	if out := h.take(); len(out) != 0 {
		t.Fatalf("renewal 500ms after a fan-out answered %+v, want silence (due at ttl/6 = 1s)", out)
	}
	// The lease was extended all the same: alive past its first deadline.
	h.eng.RunFor(5 * time.Second)
	if st := h.reg.Stats(); st.Leases != 1 {
		t.Fatalf("silent renewal did not extend the lease: %+v", st)
	}
}

func TestDueRenewalOfUnservedGroupGetsTombstone(t *testing.T) {
	h := newHarness(t, Config{})
	h.reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "c1", Incarnation: 1, TTL: int64(6 * time.Second)})
	h.take()
	h.served["g"] = false
	h.eng.RunFor(2 * time.Second)
	h.renew()
	out := h.take()
	if len(out) != 1 || out[0].to != "c1" || !out[0].m.Tombstone {
		t.Fatalf("renewal for an unserved group answered %+v, want one tombstone to c1", out)
	}
	if st := h.reg.Stats(); st.Leases != 0 || st.Clients != 0 {
		t.Fatalf("tombstoned renewal left %+v, want no lease", st)
	}
}

func TestClientRestartSupersedesOldLifetime(t *testing.T) {
	h := newHarness(t, Config{})
	h.reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "c1", Incarnation: 1})
	h.reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "c1", Incarnation: 2})
	h.take()
	// A straggler from the old lifetime must not tear down the new lease.
	h.reg.HandleUnsubscribe(&wire.Unsubscribe{Group: "g", Sender: "c1", Incarnation: 1})
	if st := h.reg.Stats(); st.Leases != 1 {
		t.Fatalf("stale unsubscribe dropped the successor lease: %+v", st)
	}
	h.reg.HandleUnsubscribe(&wire.Unsubscribe{Group: "g", Sender: "c1", Incarnation: 2})
	if st := h.reg.Stats(); st.Leases != 0 || st.Clients != 0 {
		t.Fatalf("unsubscribe left state behind: %+v", st)
	}
}

func TestTombstoneFanOutDropsLeases(t *testing.T) {
	h := newHarness(t, Config{})
	for i := 0; i < 4; i++ {
		h.reg.HandleSubscribe(&wire.Subscribe{
			Group: "g", Sender: id.Process(fmt.Sprintf("c%d", i)), Incarnation: 1,
		})
	}
	h.take()
	h.reg.PublishTombstone("g", h.view)
	out := h.take()
	if len(out) != 4 {
		t.Fatalf("tombstone fan-out sent %d, want 4", len(out))
	}
	for _, s := range out {
		if !s.m.Tombstone || !s.urgent {
			t.Fatalf("tombstone send not urgent+marked: %+v", s)
		}
		if s.m.Leader != "w01" || !s.m.Elected {
			t.Fatalf("tombstone lost the stale-hint view: %+v", s.m)
		}
	}
	if st := h.reg.Stats(); st.Leases != 0 || st.Clients != 0 {
		t.Fatalf("tombstone left registrations: %+v", st)
	}
	// Afterwards nothing fires: timers are quiesced.
	h.eng.RunFor(time.Minute)
	if out := h.take(); len(out) != 0 {
		t.Fatalf("post-tombstone traffic: %d sends", len(out))
	}
}

func TestMaxLeasesRefusesWithTombstone(t *testing.T) {
	h := newHarness(t, Config{MaxLeases: 2})
	h.reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "c1", Incarnation: 1})
	h.reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "c2", Incarnation: 1})
	h.take()
	h.reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "c3", Incarnation: 1})
	out := h.take()
	if len(out) != 1 || !out[0].m.Tombstone {
		t.Fatalf("over-capacity subscribe answered %+v, want a tombstone", out)
	}
	if st := h.reg.Stats(); st.Leases != 2 {
		t.Fatalf("capacity breached: %+v", st)
	}
}

func TestTTLClamping(t *testing.T) {
	h := newHarness(t, Config{MinTTL: 2 * time.Second, MaxTTL: 20 * time.Second})
	cases := []struct {
		req  int64
		want time.Duration
	}{
		{0, DefaultTTL},
		{int64(time.Millisecond), 2 * time.Second},
		{int64(time.Hour), 20 * time.Second},
		{int64(5 * time.Second), 5 * time.Second},
	}
	for i, c := range cases {
		h.reg.HandleSubscribe(&wire.Subscribe{
			Group: "g", Sender: id.Process(fmt.Sprintf("c%d", i)), Incarnation: 1, TTL: c.req,
		})
		out := h.take()
		if len(out) != 1 || out[0].m.Lease != int64(c.want) {
			t.Errorf("TTL %d granted %v, want %v", c.req, time.Duration(out[0].m.Lease), c.want)
		}
	}
}

// BenchmarkFanout measures the per-subscriber cost of a leader-change
// publication — the hot multiplier when a leader crashes under 10k
// watchers. The Send sink releases each emitted snapshot exactly like the
// real-time host does after marshalling, so the benchmark exercises the
// send pool's steady state rather than its cold misses. The obs shard is
// wired as the service runtime wires it, so the per-snapshot counter
// increment is part of the measured (production) path.
func BenchmarkFanout(b *testing.B) {
	eng := simnet.NewEngine(1)
	var sink int
	reg := New(Config{
		Self: "w01", Incarnation: 1, Clock: clockAdapter{eng},
		Send: func(_ id.Process, m wire.Message, _ bool) {
			sink++
			wire.ReleaseOutbound(m)
		},
		Leader: func(id.Group) (View, bool) { return View{Leader: "w01", Elected: true}, true },
		Obs:    obs.NewRegistry(1, obs.FlightDepthDefault).Shard(0),
	})
	const subscribers = 1000
	for i := 0; i < subscribers; i++ {
		reg.HandleSubscribe(&wire.Subscribe{
			Group: "g", Sender: id.Process(fmt.Sprintf("c%04d", i)), Incarnation: 1,
			TTL: int64(time.Hour),
		})
	}
	v := View{Leader: "w02", Incarnation: 3, Elected: true, At: eng.Now()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.PublishLeaderChange("g", v)
	}
	// ns/op here is the cost of ONE full 1000-subscriber fan-out; divide
	// by 1000 for the per-subscriber price.
}

// TestFanoutAllocBudget pins the fan-out's allocation profile: one
// 1000-subscriber leader-change publication must stay under 8 allocations
// (it was 1001 before the snapshot send pool and the sorted-key scratch —
// one struct per subscriber plus the key slice). Asserted, not just
// benchmarked, so a regression fails CI instead of drifting in a profile.
func TestFanoutAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; alloc counts are nondeterministic")
	}
	eng := simnet.NewEngine(1)
	reg := New(Config{
		Self: "w01", Incarnation: 1, Clock: clockAdapter{eng},
		Send: func(_ id.Process, m wire.Message, _ bool) {
			wire.ReleaseOutbound(m)
		},
		Leader: func(id.Group) (View, bool) { return View{Leader: "w01", Elected: true}, true },
		Obs:    obs.NewRegistry(1, obs.FlightDepthDefault).Shard(0),
	})
	const subscribers = 1000
	for i := 0; i < subscribers; i++ {
		reg.HandleSubscribe(&wire.Subscribe{
			Group: "g", Sender: id.Process(fmt.Sprintf("c%04d", i)), Incarnation: 1,
			TTL: int64(time.Hour),
		})
	}
	v := View{Leader: "w02", Incarnation: 3, Elected: true, At: eng.Now()}
	reg.PublishLeaderChange("g", v) // warm the pool and the scratch buffers
	allocs := testing.AllocsPerRun(20, func() {
		reg.PublishLeaderChange("g", v)
	})
	if allocs > 8 {
		t.Fatalf("1000-subscriber fan-out allocated %.0f objects/op, budget is 8 (was 1001 before pooling)", allocs)
	}
}
