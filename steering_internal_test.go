package stableleader

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"stableleader/id"
	"stableleader/internal/wire"
	"stableleader/transport"
)

// deliver is the receive callback as a source-less transport invokes it.
func (s *Service) deliver(payload []byte) { s.onDatagram(payload, netip.AddrPort{}) }

// pickCrossShardGroups returns count group ids that hash onto pairwise
// distinct shards of s, so tests can force genuinely cross-shard traffic.
func pickCrossShardGroups(t *testing.T, s *Service, count int) []id.Group {
	t.Helper()
	seen := map[int]bool{}
	var out []id.Group
	for i := 0; i < 10000 && len(out) < count; i++ {
		g := id.Group(fmt.Sprintf("xg%04d", i))
		if idx := s.shardIndex(g); !seen[idx] {
			seen[idx] = true
			out = append(out, g)
		}
	}
	if len(out) < count {
		t.Fatalf("could not find %d groups on distinct shards of %d", count, s.Shards())
	}
	return out
}

// TestSteeringSplitsBatchAcrossShards pins the steered inbound plane: one
// received batch envelope mixing groups owned by different shards must be
// delivered to every owning shard (each group's protocol state advances),
// while the datagram-level counters count the datagram exactly once.
func TestSteeringSplitsBatchAcrossShards(t *testing.T) {
	hub := transport.NewInproc(nil)
	s, err := New("p1", hub.Endpoint("p1"), WithSeed(1), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	ctx := context.Background()

	gids := pickCrossShardGroups(t, s, 2)
	for _, g := range gids {
		if _, err := s.Join(ctx, g, AsCandidate()); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := s.shardIndex(gids[0]), s.shardIndex(gids[1]); a == b {
		t.Fatalf("test groups landed on one shard (%d): steering not exercised", a)
	}

	// One batch carrying a JOIN for each group — exactly what the outbound
	// coalescer of a multi-group peer would ship to this node.
	batch := &wire.Batch{Msgs: []wire.Message{
		&wire.Join{Group: gids[0], Sender: "zz", Incarnation: 1, Candidate: false},
		&wire.Join{Group: gids[1], Sender: "zz", Incarnation: 1, Candidate: false},
	}}
	s.deliver(wire.MarshalAppend(nil, batch))

	// Both shards must process their share: the fake member appears in
	// each group's membership.
	deadline := time.Now().Add(5 * time.Second)
	for _, g := range gids {
		grp := s.groups[g]
		for {
			rows, err := grp.Status(ctx, WithSyncRead())
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, r := range rows {
				if r.ID == "zz" {
					found = true
				}
			}
			if found {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("group %q (shard %d) never processed its part of the batch", g, s.shardIndex(g))
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Datagram-level accounting: one datagram, one batch, two messages —
	// not double-counted across the two shard parts.
	st := s.PacketStats()
	if st.DatagramsIn != 1 || st.BatchesIn != 1 || st.MessagesIn != 2 {
		t.Fatalf("steered batch counted as %+v, want 1 datagram / 1 batch / 2 messages", st)
	}
}

// TestSteeringSingleShardGroupFastPath: a batch whose messages all belong
// to one shard must take the no-scatter path and still count correctly.
func TestSteeringSingleShardGroupFastPath(t *testing.T) {
	hub := transport.NewInproc(nil)
	s, err := New("p1", hub.Endpoint("p1"), WithSeed(1), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	ctx := context.Background()

	g := pickCrossShardGroups(t, s, 1)[0]
	if _, err := s.Join(ctx, g, AsCandidate()); err != nil {
		t.Fatal(err)
	}
	batch := &wire.Batch{Msgs: []wire.Message{
		&wire.Join{Group: g, Sender: "z1", Incarnation: 1},
		&wire.Join{Group: g, Sender: "z2", Incarnation: 1},
	}}
	s.deliver(wire.MarshalAppend(nil, batch))
	grp := s.groups[g]
	deadline := time.Now().Add(5 * time.Second)
	for {
		rows, err := grp.Status(ctx, WithSyncRead())
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("same-shard batch not fully delivered: %d rows", len(rows))
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.PacketStats(); st.DatagramsIn != 1 || st.MessagesIn != 2 || st.BatchesIn != 1 {
		t.Fatalf("same-shard batch counted as %+v", st)
	}
}

// TestSteerKeepsWireOrderAndReusesScatter pins the steering stage against
// the carrier: a cross-shard datagram larger than any its carrier has seen
// is scattered into shard-contiguous runs whose order inside each shard is
// wire order (the per-peer FIFO the protocol relies on), every message
// reaches exactly the shard owning its group, and — the scatter slice
// being the carrier's own, grown once — steering the next such datagram
// allocates nothing.
func TestSteerKeepsWireOrderAndReusesScatter(t *testing.T) {
	// Rings only, no loops: the test drains the shards itself.
	s := &Service{closing: make(chan struct{})}
	for i := 0; i < 4; i++ {
		s.shards = append(s.shards, &serviceShard{svc: s, idx: i, inbound: make(chan inboundPart, 1)})
	}
	gids := pickCrossShardGroups(t, s, 4)
	datagram := func(n int) []byte {
		b := &wire.Batch{}
		for i := 0; i < n; i++ {
			// Incarnation records the wire position.
			b.Msgs = append(b.Msgs, &wire.Leave{Group: gids[(i*7)%len(gids)], Sender: "zz", Incarnation: int64(i)})
		}
		return wire.MarshalAppend(nil, b)
	}
	var strings wire.Interner
	steerOne := func(payload []byte, check func(shard int, run []wire.Message)) {
		c := wire.GetCarrier()
		if _, err := c.Decode(&strings, payload); err != nil {
			t.Fatal(err)
		}
		s.steer(c)
		for i, sh := range s.shards {
			p := <-sh.inbound
			if check != nil {
				check(i, p.c.Msgs[p.lo:p.hi])
			}
			p.c.Release()
		}
	}

	steerOne(datagram(8), nil) // what the carrier had seen before
	const n = 96
	big := datagram(n)
	seen := 0
	steerOne(big, func(shard int, run []wire.Message) {
		last := int64(-1)
		for _, m := range run {
			l := m.(*wire.Leave)
			if got := s.shardIndex(l.Group); got != shard {
				t.Fatalf("message %d of group %q (shard %d) steered to shard %d", l.Incarnation, l.Group, got, shard)
			}
			if l.Incarnation <= last {
				t.Fatalf("shard %d saw wire position %d after %d: order inside a shard must be wire order", shard, l.Incarnation, last)
			}
			last = l.Incarnation
			seen++
		}
	})
	if seen != n {
		t.Fatalf("steered %d of %d messages", seen, n)
	}
	if RaceEnabled {
		return // sync.Pool drops Puts under the race detector
	}
	if allocs := testing.AllocsPerRun(100, func() { steerOne(big, nil) }); allocs != 0 {
		t.Fatalf("steering a second %d-message cross-shard datagram allocated %.1f times, want 0", n, allocs)
	}
}

// TestCloseDuringTimerStormAcrossShards is the shutdown-race regression
// test for the sharded world: with every shard's timer wheel firing hot
// (tiny hello and reconfigure intervals across many groups) and inbound
// traffic arriving concurrently, a timer firing during Close on one shard
// must not deadlock or panic another shard's drain. The test fails by
// timeout (deadlock) or crash (panic/race), not by assertion.
func TestCloseDuringTimerStormAcrossShards(t *testing.T) {
	for round := 0; round < 5; round++ {
		hub := transport.NewInproc(nil)
		s, err := New("p1", hub.Endpoint("p1"), WithSeed(int64(round+1)), WithShards(8))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var payloads [][]byte
		for i := 0; i < 16; i++ {
			g := id.Group(fmt.Sprintf("storm%02d", i))
			if _, err := s.Join(ctx, g,
				AsCandidate(),
				WithHelloInterval(time.Millisecond),
				WithReconfigureInterval(time.Millisecond),
				WithSeeds("p2"),
			); err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, wire.MarshalAppend(nil, &wire.Join{
				Group: g, Sender: "p2", Incarnation: 1, Candidate: true,
			}))
		}

		// Inbound blast racing the close from several producers.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					s.deliver(payloads[(w+i)%len(payloads)])
				}
			}(w)
		}
		time.Sleep(5 * time.Millisecond) // let the storm and the wheels spin up

		done := make(chan error, 1)
		go func() {
			done <- s.Close(context.Background())
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("round %d: Close = %v", round, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: Close deadlocked under the timer storm", round)
		}
		close(stop)
		wg.Wait()
	}
}
