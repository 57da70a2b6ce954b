package clientcore

import (
	"math/rand"
	"testing"
	"time"

	"stableleader/id"
	"stableleader/internal/clock"
	"stableleader/internal/simnet"
	"stableleader/internal/wire"
)

// fakeRT drives the node on a virtual clock and captures its sends.
type fakeRT struct {
	eng  *simnet.Engine
	rng  *rand.Rand
	sent []outMsg
}

type outMsg struct {
	to id.Process
	m  wire.Message
}

func newRT() *fakeRT {
	eng := simnet.NewEngine(1)
	return &fakeRT{eng: eng, rng: rand.New(rand.NewSource(7))}
}

func (rt *fakeRT) Now() time.Time { return rt.eng.Now() }
func (rt *fakeRT) AfterFunc(d time.Duration, fn func()) clock.Timer {
	return rt.eng.After(d, fn)
}
func (rt *fakeRT) Send(to id.Process, m wire.Message) {
	rt.sent = append(rt.sent, outMsg{to: to, m: m})
}
func (rt *fakeRT) Rand() *rand.Rand { return rt.rng }

// take drains captured sends, flattening batches into their messages.
func (rt *fakeRT) take() []outMsg {
	var out []outMsg
	for _, s := range rt.sent {
		if b, ok := s.m.(*wire.Batch); ok {
			for _, inner := range b.Msgs {
				out = append(out, outMsg{to: s.to, m: inner})
			}
			continue
		}
		out = append(out, s)
	}
	rt.sent = nil
	return out
}

// settle runs the engine long enough for coalescing flushes to drain.
func (rt *fakeRT) settle() { rt.eng.RunFor(10 * time.Millisecond) }

// harness bundles a node with update capture.
type harness struct {
	rt      *fakeRT
	n       *Node
	updates []Update
}

func newNode(t *testing.T, mutate func(*Config)) *harness {
	t.Helper()
	h := &harness{rt: newRT()}
	cfg := Config{
		Self:      "c1",
		Endpoints: []id.Process{"w01", "w02", "w03"},
		TTL:       6 * time.Second,
		NoShuffle: true,
		OnUpdate:  func(up Update) { h.updates = append(h.updates, up) },
	}
	if mutate != nil {
		mutate(&cfg)
	}
	h.n = NewNode(h.rt, cfg)
	return h
}

func (h *harness) takeUpdates() []Update {
	out := h.updates
	h.updates = nil
	return out
}

// snapshot builds a server answer for the node's current expectations.
func snapshot(from id.Process, g id.Group, seq uint64, leader id.Process, lease time.Duration) *wire.LeaderSnapshot {
	return &wire.LeaderSnapshot{
		Group: g, Sender: from, Incarnation: 1, Seq: seq,
		Elected: true, Leader: leader, LeaderIncarnation: 9,
		Lease: int64(lease),
	}
}

func TestSubscribeAcceptRenewCycle(t *testing.T) {
	h := newNode(t, nil)
	h.n.Subscribe("g")
	h.rt.settle()
	out := h.rt.take()
	if len(out) != 1 || out[0].to != "w01" || out[0].m.Kind() != wire.KindSubscribe {
		t.Fatalf("initial traffic = %+v, want one SUBSCRIBE to w01", out)
	}

	h.n.HandleMessage(snapshot("w01", "g", 1, "w02", 6*time.Second))
	ups := h.takeUpdates()
	if len(ups) != 1 {
		t.Fatalf("accepted snapshot published %d updates, want 1", len(ups))
	}
	up := ups[0]
	if up.Leader != "w02" || !up.Elected || up.Stale || up.Tombstone || !up.Changed ||
		up.ServedBy != "w01" || !up.Expires.Equal(h.rt.Now().Add(6*time.Second)) {
		t.Fatalf("bad update: %+v", up)
	}
	if got, ok := h.n.Snapshot("g"); !ok || got.Leader != "w02" {
		t.Fatalf("Snapshot() = %+v, %v", got, ok)
	}

	// The renewal fires at lease/3 — and only renewals, no re-subscribes,
	// as long as snapshots keep the lease fresh.
	h.rt.eng.RunFor(2100 * time.Millisecond)
	out = h.rt.take()
	if len(out) != 1 || out[0].m.Kind() != wire.KindLeaseRenew || out[0].to != "w01" {
		t.Fatalf("traffic at lease/3 = %+v, want one LEASE_RENEW to w01", out)
	}
}

func TestRenewalsSurviveFrequentReadverts(t *testing.T) {
	// Snapshots (leader-change fan-outs, answers to renewals) may arrive
	// more often than lease/3. If each one pushed the renew timer back,
	// LEASE_RENEW — the only message that extends the server-side lease
	// — would never fire and the lease would silently die. The renew
	// cycle must be self-arming, independent of snapshot arrivals.
	h := newNode(t, nil) // TTL 6s → renew every 2s
	h.n.Subscribe("g")
	h.rt.settle()
	h.rt.take()
	var seq uint64 = 1
	h.n.HandleMessage(snapshot("w01", "g", seq, "w02", 6*time.Second))
	h.rt.take()
	// Snapshot the unchanged view every 1.5s (faster than lease/3) for 30s.
	renews := 0
	for i := 0; i < 20; i++ {
		h.rt.eng.RunFor(1500 * time.Millisecond)
		for _, s := range h.rt.take() {
			if s.m.Kind() == wire.KindLeaseRenew {
				renews++
			}
		}
		seq++
		h.n.HandleMessage(snapshot("w01", "g", seq, "w02", 6*time.Second))
	}
	// Expect ~15 renewals (one per 2s); starvation would give 0.
	if renews < 12 {
		t.Fatalf("%d renewals over 30s of frequent re-adverts, want ~15 (starved?)", renews)
	}
}

func TestRenewCadenceFollowsGrantedLease(t *testing.T) {
	// The server may clamp the requested TTL down; renewals must pace
	// off the GRANT, or they would arrive after the server-side lease
	// already expired.
	h := newNode(t, func(c *Config) { c.TTL = time.Hour })
	h.n.Subscribe("g")
	h.rt.settle()
	h.rt.take()
	h.n.HandleMessage(snapshot("w01", "g", 1, "w02", 6*time.Second)) // granted 6s
	h.rt.take()
	h.rt.eng.RunFor(2100 * time.Millisecond) // granted/3, far below requested/3
	renews := 0
	for _, s := range h.rt.take() {
		if s.m.Kind() == wire.KindLeaseRenew {
			renews++
		}
	}
	if renews != 1 {
		t.Fatalf("%d renewals at granted-lease/3, want 1 (pacing off the request?)", renews)
	}
}

func TestReadvertSameViewRefreshesLeaseSilently(t *testing.T) {
	h := newNode(t, nil)
	h.n.Subscribe("g")
	h.rt.settle()
	h.rt.take()
	h.n.HandleMessage(snapshot("w01", "g", 1, "w02", 6*time.Second))
	h.takeUpdates()

	h.rt.eng.RunFor(2 * time.Second)
	h.n.HandleMessage(snapshot("w01", "g", 2, "w02", 6*time.Second))
	ups := h.takeUpdates()
	if len(ups) != 1 || ups[0].Changed {
		t.Fatalf("re-advert of the same view: %+v, want one unchanged update", ups)
	}
	if !ups[0].Expires.Equal(h.rt.Now().Add(6 * time.Second)) {
		t.Fatalf("re-advert did not refresh the lease: %+v", ups[0])
	}
}

func TestReorderedOlderSnapshotIgnored(t *testing.T) {
	h := newNode(t, nil)
	h.n.Subscribe("g")
	h.rt.settle()
	h.rt.take()
	h.n.HandleMessage(snapshot("w01", "g", 5, "w02", 6*time.Second))
	h.takeUpdates()
	// An older sequence from the same server lifetime must not regress
	// the view.
	h.n.HandleMessage(snapshot("w01", "g", 3, "OLD", 6*time.Second))
	if ups := h.takeUpdates(); len(ups) != 0 {
		t.Fatalf("reordered snapshot published %+v", ups)
	}
	if got, _ := h.n.Snapshot("g"); got.Leader != "w02" {
		t.Fatalf("view regressed to %q", got.Leader)
	}
	// A snapshot from an endpoint we are not pinned to is ignored too.
	h.n.HandleMessage(snapshot("w03", "g", 9, "ROGUE", 6*time.Second))
	if got, _ := h.n.Snapshot("g"); got.Leader != "w02" {
		t.Fatalf("foreign-endpoint snapshot applied: %+v", got)
	}
}

func TestUnansweredSubscribeRotatesEndpoints(t *testing.T) {
	h := newNode(t, nil)
	h.n.Subscribe("g")
	// Never answer. The machine must retry, and after failoverAfter
	// attempts rotate to w02 (then w03).
	h.rt.eng.RunFor(30 * time.Second)
	var targets []id.Process
	for _, s := range h.rt.take() {
		if s.m.Kind() == wire.KindSubscribe {
			targets = append(targets, s.to)
		}
	}
	if len(targets) < 4 {
		t.Fatalf("only %d subscribe attempts in 30s", len(targets))
	}
	seen := map[id.Process]bool{}
	for _, ep := range targets {
		seen[ep] = true
	}
	for _, want := range []id.Process{"w01", "w02", "w03"} {
		if !seen[want] {
			t.Fatalf("failover never tried %s: attempts %v", want, targets)
		}
	}
}

func TestLeaseExpiryPublishesStaleEdgeOnce(t *testing.T) {
	h := newNode(t, nil)
	h.n.Subscribe("g")
	h.rt.settle()
	h.rt.take()
	h.n.HandleMessage(snapshot("w01", "g", 1, "w02", 6*time.Second))
	h.takeUpdates()

	// Silence. At the lease deadline the stale edge fires exactly once,
	// preserving the last-known view.
	h.rt.eng.RunFor(20 * time.Second)
	var stales []Update
	for _, up := range h.takeUpdates() {
		if up.Stale {
			stales = append(stales, up)
		}
	}
	if len(stales) != 1 {
		t.Fatalf("%d stale edges published, want exactly 1", len(stales))
	}
	if stales[0].Leader != "w02" || !stales[0].Changed {
		t.Fatalf("stale edge lost the last view: %+v", stales[0])
	}
	// A fresh snapshot (after failover) publishes a fresh edge.
	sub := h.n.groups["g"]
	h.n.HandleMessage(snapshot(sub.currentEP(), "g", 1, "w02", 6*time.Second))
	ups := h.takeUpdates()
	if len(ups) != 1 || ups[0].Stale || !ups[0].Changed {
		t.Fatalf("recovery edge = %+v", ups)
	}
}

func TestTombstoneFailsOverImmediately(t *testing.T) {
	h := newNode(t, nil)
	h.n.Subscribe("g")
	h.rt.settle()
	h.rt.take()
	h.n.HandleMessage(snapshot("w01", "g", 1, "w02", 6*time.Second))
	h.takeUpdates()

	h.n.HandleMessage(&wire.LeaderSnapshot{
		Group: "g", Sender: "w01", Incarnation: 1, Seq: 2,
		Elected: true, Leader: "w02", LeaderIncarnation: 9, Tombstone: true,
	})
	ups := h.takeUpdates()
	if len(ups) != 1 || !ups[0].Tombstone || !ups[0].Stale {
		t.Fatalf("tombstone published %+v", ups)
	}
	h.rt.settle()
	var subTo, unsubTo []id.Process
	for _, s := range h.rt.take() {
		switch s.m.Kind() {
		case wire.KindSubscribe:
			subTo = append(subTo, s.to)
		case wire.KindUnsubscribe:
			unsubTo = append(unsubTo, s.to)
		}
	}
	if len(subTo) != 1 || subTo[0] != "w02" {
		t.Fatalf("tombstone failover subscribed to %v, want w02", subTo)
	}
	if len(unsubTo) != 1 || unsubTo[0] != "w01" {
		t.Fatalf("tombstone failover unsubscribed from %v, want w01", unsubTo)
	}
}

func TestDuplicatedOldTombstoneIgnored(t *testing.T) {
	// A network-duplicated tombstone from earlier in the stream must not
	// tear down a newer healthy subscription: the server sequences
	// tombstones like any snapshot, and the client holds them to the
	// same ordering guard.
	h := newNode(t, nil)
	h.n.Subscribe("g")
	h.rt.settle()
	h.rt.take()
	h.n.HandleMessage(snapshot("w01", "g", 7, "w02", 6*time.Second))
	h.takeUpdates()
	h.n.HandleMessage(&wire.LeaderSnapshot{
		Group: "g", Sender: "w01", Incarnation: 1, Seq: 5, Tombstone: true,
	})
	if ups := h.takeUpdates(); len(ups) != 0 {
		t.Fatalf("stale duplicate tombstone published %+v", ups)
	}
	if got, _ := h.n.Snapshot("g"); got.Stale || got.Leader != "w02" {
		t.Fatalf("stale duplicate tombstone disturbed the view: %+v", got)
	}
	// A properly sequenced tombstone still works.
	h.n.HandleMessage(&wire.LeaderSnapshot{
		Group: "g", Sender: "w01", Incarnation: 1, Seq: 8, Tombstone: true,
	})
	if ups := h.takeUpdates(); len(ups) != 1 || !ups[0].Tombstone {
		t.Fatalf("in-order tombstone published %+v, want one tombstone edge", h.updates)
	}
}

func TestGracefulStopUnsubscribes(t *testing.T) {
	h := newNode(t, nil)
	h.n.Subscribe("g1")
	h.n.Subscribe("g2")
	h.rt.settle()
	h.rt.take()
	h.n.Stop(true)
	var unsubs int
	for _, s := range h.rt.take() {
		if s.m.Kind() == wire.KindUnsubscribe {
			unsubs++
		}
	}
	if unsubs != 2 {
		t.Fatalf("graceful stop sent %d unsubscribes, want 2", unsubs)
	}
	// Nothing fires afterwards.
	h.rt.eng.RunFor(time.Minute)
	if out := h.rt.take(); len(out) != 0 {
		t.Fatalf("stopped client still sent %+v", out)
	}
}

func TestSnapshotForUnknownGroupAnsweredWithUnsubscribe(t *testing.T) {
	h := newNode(t, nil)
	h.n.HandleMessage(snapshot("w01", "ghost", 1, "w02", 6*time.Second))
	h.rt.settle()
	out := h.rt.take()
	if len(out) != 1 || out[0].m.Kind() != wire.KindUnsubscribe || out[0].to != "w01" {
		t.Fatalf("unknown-group snapshot answered with %+v, want UNSUBSCRIBE to w01", out)
	}
}

func TestMultiGroupTrafficCoalesces(t *testing.T) {
	h := newNode(t, nil)
	const groups = 8
	for i := 0; i < groups; i++ {
		h.n.Subscribe(id.Group(string(rune('a' + i))))
	}
	h.rt.settle()
	// All 8 SUBSCRIBEs to w01 must ride few datagrams, not 8.
	datagrams := len(h.rt.sent)
	msgs := len(h.rt.take())
	if msgs != groups {
		t.Fatalf("%d messages sent, want %d", msgs, groups)
	}
	if datagrams > 2 {
		t.Fatalf("%d datagrams for %d same-endpoint subscribes: coalescing broken", datagrams, groups)
	}
}

func TestRenewalsOfAllGroupsShareOneDatagram(t *testing.T) {
	// Groups whose first snapshots arrive apart still renew together: the
	// client's renewals are one schedule, so each cycle is one datagram
	// carrying every group's LEASE_RENEW, not one per arrival time.
	h := newNode(t, nil) // TTL 6s → renew every 2s
	const groups = 8
	for i := 0; i < groups; i++ {
		h.n.Subscribe(id.Group(string(rune('a' + i))))
	}
	h.rt.settle()
	h.rt.take()
	seq := map[id.Group]uint64{}
	accept := func(g id.Group) {
		seq[g]++
		h.n.HandleMessage(snapshot("w01", g, seq[g], "w02", 6*time.Second))
	}
	for _, g := range []id.Group{"a", "b", "c", "d"} {
		accept(g)
	}
	h.rt.eng.RunFor(500 * time.Millisecond)
	for _, g := range []id.Group{"e", "f", "g", "h"} {
		accept(g)
	}
	// Answer every renewal as a server would, for six cycles.
	cycles := 0
	for step := 0; step < 120; step++ {
		h.rt.eng.RunFor(100 * time.Millisecond)
		for _, d := range h.rt.sent {
			msgs := []wire.Message{d.m}
			if b, ok := d.m.(*wire.Batch); ok {
				msgs = b.Msgs
			}
			renews := 0
			for _, m := range msgs {
				if r, ok := m.(*wire.LeaseRenew); ok {
					renews++
					accept(r.Group)
				}
			}
			if renews == 0 {
				continue
			}
			cycles++
			if renews != groups {
				t.Fatalf("renewal cycle %d: a datagram carried %d LEASE_RENEWs, want all %d", cycles, renews, groups)
			}
		}
		h.rt.sent = nil
	}
	if cycles < 5 {
		t.Fatalf("%d renewal datagrams in 12s, want one per lease/3", cycles)
	}
}
