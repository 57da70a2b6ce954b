package stableleader_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	stableleader "stableleader"
	"stableleader/id"
	"stableleader/internal/wire"
	"stableleader/transport"
)

// runTap sits between a Service and its transport and reads the ALIVE_RUN
// records of every datagram: run records (heartbeats coded as one) and
// empty ones (the announcement that the sender decodes runs). With old
// set, it makes the Service a build that predates runs, on the wire: the
// announcements it sends are stripped, and every ALIVE_RUN record that
// arrives is skipped before the Service sees it — exactly what an older
// decoder does with a kind it does not know, heartbeats inside included.
type runTap struct {
	transport.Transport
	old bool

	mu        sync.Mutex
	firstSend time.Time // when the Service sent its first datagram
	runsIn    int       // run records received
	lastRunIn time.Time
	alivesIn  int // classic ALIVE records received
}

// record is one length-prefixed record of a batch envelope.
type record struct {
	kind wire.Kind
	raw  []byte // length prefix and record
	body []byte // the record alone
}

// splitBatch returns a batch envelope's records, or ok=false for a bare
// datagram.
func splitBatch(payload []byte) (recs []record, ok bool) {
	if len(payload) < 3 || wire.Kind(payload[0]) != wire.KindBatch {
		return nil, false
	}
	count, n := binary.Uvarint(payload[2:])
	off := 2 + n
	for i := uint64(0); i < count && n > 0; i++ {
		l, m := binary.Uvarint(payload[off:])
		if m <= 0 || l == 0 || off+m+int(l) > len(payload) {
			return nil, false
		}
		recs = append(recs, record{
			kind: wire.Kind(payload[off+m]),
			raw:  payload[off : off+m+int(l)],
			body: payload[off+m : off+m+int(l)],
		})
		off += m + int(l)
	}
	return recs, true
}

// isAnnouncement tells an empty run, which decodes on its own, from a run
// of heartbeats, which travels only inside an envelope.
func isAnnouncement(body []byte) bool {
	m, err := wire.Unmarshal(body)
	return err == nil && m.Kind() == wire.KindAliveRun
}

// keep re-frames the records drop does not reject; nil when none is left,
// because a batch of nothing but unknown kinds is no traffic.
func keep(recs []record, drop func(record) bool) []byte {
	out := []byte{byte(wire.KindBatch), wire.BatchVersion}
	var kept [][]byte
	for _, r := range recs {
		if !drop(r) {
			kept = append(kept, r.raw)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	out = binary.AppendUvarint(out, uint64(len(kept)))
	for _, r := range kept {
		out = append(out, r...)
	}
	return out
}

func (rt *runTap) Send(to id.Process, payload []byte) error {
	rt.mu.Lock()
	if rt.firstSend.IsZero() {
		rt.firstSend = time.Now()
	}
	rt.mu.Unlock()
	if recs, ok := splitBatch(payload); ok && rt.old {
		payload = keep(recs, func(r record) bool {
			return r.kind == wire.KindAliveRun && isAnnouncement(r.body)
		})
		if payload == nil {
			return nil
		}
	}
	return rt.Transport.Send(to, payload)
}

func (rt *runTap) Receive(h func([]byte)) {
	rt.Transport.Receive(func(payload []byte) {
		recs, ok := splitBatch(payload)
		if !ok {
			if len(payload) > 0 && wire.Kind(payload[0]) == wire.KindAlive {
				rt.mu.Lock()
				rt.alivesIn++
				rt.mu.Unlock()
			}
			h(payload)
			return
		}
		rt.mu.Lock()
		for _, r := range recs {
			switch {
			case r.kind == wire.KindAlive:
				rt.alivesIn++
			case r.kind == wire.KindAliveRun && !isAnnouncement(r.body):
				rt.runsIn++
				rt.lastRunIn = time.Now()
			}
		}
		rt.mu.Unlock()
		if rt.old {
			if payload = keep(recs, func(r record) bool { return r.kind == wire.KindAliveRun }); payload == nil {
				return
			}
		}
		h(payload)
	})
}

// counts returns what the tap has seen so far.
func (rt *runTap) counts() (runsIn, alivesIn int, lastRunIn, firstSend time.Time) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.runsIn, rt.alivesIn, rt.lastRunIn, rt.firstSend
}

// suspicionLog counts, per observer, the leader changes and suspicions of
// a group's current leader its Watch streams report once armed.
type suspicionLog struct {
	mu     sync.Mutex
	armed  bool
	events []string
}

func (l *suspicionLog) watch(ctx context.Context, self id.Process, g id.Group, grp *stableleader.Group) {
	ch := grp.Watch(ctx, stableleader.WithEventFilter(stableleader.KindLeaderChanged, stableleader.KindMemberSuspected))
	go func() {
		for ev := range ch {
			l.mu.Lock()
			if l.armed {
				switch e := ev.(type) {
				case stableleader.LeaderChanged:
					l.events = append(l.events, fmt.Sprintf("%s/%s: leader change to %s", self, g, e.Info.Leader))
				case stableleader.MemberSuspected:
					if li, err := grp.Leader(ctx); err == nil && li.Leader == e.Member {
						l.events = append(l.events, fmt.Sprintf("%s/%s: suspects leader %s", self, g, e.Member))
					}
				}
			}
			l.mu.Unlock()
		}
	}()
}

func (l *suspicionLog) arm(on bool) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.armed = on
	out := l.events
	l.events = nil
	return out
}

// TestMixedVersionsHeartbeatRuns runs three Services for 20 detection
// times, one of them a build that predates ALIVE runs: it never announces
// that it decodes them and skips any that reach it. The other two code
// runs toward each other, only classic ALIVEs reach the old one, and no
// leader is suspected or deposed. Then a capable peer restarts as an old
// build: the leader falls back to classic ALIVEs toward it on its first
// message, again with no suspicion.
func TestMixedVersionsHeartbeatRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time mixed-version run")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hub := transport.NewInproc(nil)
	names := []id.Process{"a", "b", "c"}
	groups := []id.Group{"g1", "g2", "g3", "g4"}
	tdu := fastQoS().DetectionTime
	taps := map[id.Process]*runTap{}
	svcs := map[id.Process]*stableleader.Service{}
	start := func(name id.Process, old bool, seed int64) {
		tap := &runTap{Transport: hub.Endpoint(name), old: old}
		svc, err := stableleader.New(name, tap, stableleader.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		taps[name], svcs[name] = tap, svc
	}
	start("a", false, 1)
	start("b", false, 2)
	start("c", true, 3)
	defer func() {
		for _, svc := range svcs {
			_ = svc.Close(context.Background())
		}
	}()

	log := &suspicionLog{}
	handles := map[id.Group]map[id.Process]*stableleader.Group{}
	join := func(name id.Process) {
		for _, g := range groups {
			grp, err := svcs[name].Join(ctx, g, stableleader.AsCandidate(),
				stableleader.WithQoS(fastQoS()), stableleader.WithSeeds(names...))
			if err != nil {
				t.Fatal(err)
			}
			if handles[g] == nil {
				handles[g] = map[id.Process]*stableleader.Group{}
			}
			handles[g][name] = grp
			log.watch(ctx, name, g, grp)
		}
	}
	// a joins first, so it leads every group and heartbeats to both.
	join("a")
	time.Sleep(tdu)
	join("b")
	join("c")
	agree := func() {
		t.Helper()
		for _, g := range groups {
			if l := waitAgreement(t, handles[g], 40*tdu); l != "a" {
				t.Fatalf("%s elected %s, want a", g, l)
			}
		}
	}
	agree()

	log.arm(true)
	time.Sleep(20 * tdu)
	if ev := log.arm(false); len(ev) > 0 {
		t.Errorf("mixed versions: %v", ev)
	}
	if runs, _, _, _ := taps["b"].counts(); runs == 0 {
		t.Errorf("b received no heartbeat runs from a: the capable pair never coded them")
	}
	if runs, alives, _, _ := taps["c"].counts(); runs != 0 || alives == 0 {
		t.Errorf("the old build received %d runs and %d classic ALIVEs; want none and some", runs, alives)
	}

	// b restarts as an old build, without a goodbye: a keeps heartbeating
	// toward b and must stop coding runs on the new lifetime's first word.
	if err := svcs["b"].Crash(); err != nil {
		t.Fatal(err)
	}
	start("b", true, 4)
	join("b")
	agree()
	log.arm(true)
	time.Sleep(20 * tdu)
	if ev := log.arm(false); len(ev) > 0 {
		t.Errorf("after b's restart: %v", ev)
	}
	runs, alives, lastRun, first := taps["b"].counts()
	if alives == 0 {
		t.Errorf("restarted b received no classic ALIVEs")
	}
	// A run already in flight when b first spoke may still land.
	if slack := tdu / 2; runs > 0 && lastRun.After(first.Add(slack)) {
		t.Errorf("restarted b received %d runs, the last %v after its first message; want none past %v",
			runs, lastRun.Sub(first), slack)
	}
	if runs, _, _, _ := taps["c"].counts(); runs != 0 {
		t.Errorf("the old build c received %d runs", runs)
	}
}
