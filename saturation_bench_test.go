package stableleader

// The multi-core saturation benchmark behind BENCH.json: K groups,
// each with a remote peer and M subscribed clients, driven with a mixed
// inbound workload (membership HELLOs and client-plane LEASE_RENEWs)
// through the full receive path — pooled decode, steering, the bounded
// per-shard inbound rings, and the shard event loops — at 1/2/4/8 shards.
// BenchmarkSaturation/shards=N drives every group concurrently: the true
// parallel throughput of this machine. On a multi-core host it rises with
// N; on a single-core host (CI containers) it cannot.
//
// Run with:
//
//	go test -run=NONE -bench=Saturation -benchmem .

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"stableleader/id"
	"stableleader/internal/wire"
)

// nullTransport drops every datagram: the benchmark injects inbound
// traffic directly and only measures the service side.
type nullTransport struct{}

func (nullTransport) Send(id.Process, []byte) error { return nil }
func (nullTransport) Receive(func([]byte))          {}
func (nullTransport) Close() error                  { return nil }

const (
	satGroups  = 16
	satClients = 64 // subscribed clients per service (each leases every group)
)

// satHarness is one fully set-up service plus its pre-marshalled
// workload payloads.
type satHarness struct {
	svc *Service
	// traffic holds the payload ring: for each group one HELLO and
	// satClients LEASE_RENEWs.
	hellos [][]byte
	renews [][][]byte
	gids   []id.Group
}

// newSatHarness builds the K-groups × M-clients service.
func newSatHarness(b *testing.B, shards int) *satHarness {
	b.Helper()
	ctx := context.Background()
	svc, err := New("self", nullTransport{}, WithSeed(1), WithShards(shards), WithClientPlane())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = svc.Close(context.Background()) })

	h := &satHarness{svc: svc}
	all := make([]id.Group, satGroups)
	for i := range all {
		all[i] = id.Group(fmt.Sprintf("sat%02d", i))
		if _, err := svc.Join(ctx, all[i], AsCandidate()); err != nil {
			b.Fatal(err)
		}
		// One remote member per group, so HELLOs exercise a real
		// membership merge.
		svc.deliver(wire.MarshalAppend(nil, &wire.Join{
			Group: all[i], Sender: "zz", Incarnation: 1,
		}))
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, g := range all {
		grp := svc.groups[g]
		for {
			rows, err := grp.Status(ctx, WithSyncRead())
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) == 2 {
				break
			}
			if time.Now().After(deadline) {
				b.Fatalf("group %q never absorbed its remote member", g)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// M clients lease every group (the client-plane population whose
	// renewals and the snapshots answering them ride the loops).
	for c := 0; c < satClients; c++ {
		for _, g := range all {
			svc.deliver(wire.MarshalAppend(nil, &wire.Subscribe{
				Group: g, Sender: id.Process(fmt.Sprintf("cl%03d", c)),
				Incarnation: 1, TTL: int64(time.Second),
			}))
		}
	}
	for {
		st, err := svc.ClientStats(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if st.Leases == satGroups*satClients {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("client leases never registered: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	h.gids = all
	selfInc := svc.Incarnation()
	for _, g := range h.gids {
		h.hellos = append(h.hellos, wire.MarshalAppend(nil, &wire.Hello{
			Group: g, Sender: "zz", Incarnation: 1,
			Members: []wire.MemberInfo{
				{ID: "self", Incarnation: selfInc, Candidate: true},
				{ID: "zz", Incarnation: 1},
			},
		}))
		var rs [][]byte
		for c := 0; c < satClients; c++ {
			rs = append(rs, wire.MarshalAppend(nil, &wire.LeaseRenew{
				Group: g, Sender: id.Process(fmt.Sprintf("cl%03d", c)),
				Incarnation: 1, TTL: int64(time.Second),
			}))
		}
		h.renews = append(h.renews, rs)
	}
	return h
}

// drive injects n workload messages from p producer goroutines (7 HELLOs
// to 1 LEASE_RENEW, round-robin over the driven groups and clients) and
// waits until every one has been dispatched on its shard loop.
func (h *satHarness) drive(b *testing.B, n int) {
	base := h.svc.PacketStats().MessagesIn
	const producers = 4
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		share := n / producers
		if p < n%producers {
			share++
		}
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < share; i++ {
				k := p + i*producers
				g := k % len(h.gids)
				if k%8 == 7 {
					h.svc.deliver(h.renews[g][k%satClients])
				} else {
					h.svc.deliver(h.hellos[g])
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(60 * time.Second)
	for h.svc.PacketStats().MessagesIn-base < int64(n) {
		if time.Now().After(deadline) {
			b.Fatalf("dispatched %d of %d messages",
				h.svc.PacketStats().MessagesIn-base, n)
		}
		// Yield instead of spinning hot: on a small machine a busy poll
		// would steal the very cycles the shard loops need to drain.
		runtime.Gosched()
	}
}

func benchmarkSaturation(b *testing.B, shards int) {
	h := newSatHarness(b, shards)
	b.ReportAllocs()
	b.ResetTimer()
	h.drive(b, b.N)
	b.StopTimer()
	b.ReportMetric(float64(len(h.gids)), "groups")
}

// BenchmarkSaturation: concurrent inbound protocol+client traffic over
// every group of a 1/2/4/8-shard service. ns/op is per inbound message.
func BenchmarkSaturation(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			benchmarkSaturation(b, n)
		})
	}
}
