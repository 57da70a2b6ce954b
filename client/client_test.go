package client_test

// End-to-end tests of the remote client plane: real services (client
// plane enabled) and real clients on the in-process transport — both ends
// of the socket, through the full wire codec.

import (
	"context"
	"testing"
	"time"

	stableleader "stableleader"
	"stableleader/client"
	"stableleader/id"
	"stableleader/qos"
	"stableleader/transport"
)

// fastSpec keeps elections and detection quick for tests.
var fastSpec = qos.Spec{
	DetectionTime:     250 * time.Millisecond,
	MistakeRecurrence: 24 * time.Hour,
	QueryAccuracy:     0.999,
}

// cluster starts n candidate services in group g with the client plane on.
func cluster(t testing.TB, hub *transport.Inproc, g id.Group, n int) ([]*stableleader.Service, []id.Process) {
	t.Helper()
	ctx := context.Background()
	eps := make([]id.Process, n)
	for i := range eps {
		eps[i] = id.Process('a' + rune(i))
	}
	svcs := make([]*stableleader.Service, n)
	for i, p := range eps {
		svc, err := stableleader.New(p, hub.Endpoint(p),
			stableleader.WithSeed(int64(i+1)), stableleader.WithClientPlane())
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = svc
		if _, err := svc.Join(ctx, g,
			stableleader.AsCandidate(),
			stableleader.WithQoS(fastSpec),
			stableleader.WithSeeds(eps...),
			stableleader.WithHelloInterval(100*time.Millisecond),
		); err != nil {
			t.Fatal(err)
		}
	}
	return svcs, eps
}

// svcByID finds a service in the cluster slice.
func svcByID(svcs []*stableleader.Service, p id.Process) *stableleader.Service {
	for _, s := range svcs {
		if s.ID() == p {
			return s
		}
	}
	return nil
}

func TestClientLeaderQueryEndToEnd(t *testing.T) {
	hub := transport.NewInproc(nil)
	svcs, eps := cluster(t, hub, "g", 3)
	ctx := context.Background()
	defer func() {
		for _, s := range svcs {
			_ = s.Close(ctx)
		}
	}()

	cli, err := client.New(hub.Endpoint("cli"),
		client.WithID("cli"), client.WithEndpoints(eps...),
		client.WithLeaseTTL(2*time.Second), client.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close(ctx)

	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	// Cold cache: Leader subscribes and waits for the first snapshot.
	// The group may still be electing; poll until a leader is served.
	var lease client.LeaderLease
	for {
		lease, err = cli.Leader(qctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		if lease.Elected {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if lease.Stale || lease.Leader == "" || !time.Now().Before(lease.Expires) {
		t.Fatalf("bad lease: %+v", lease)
	}
	// The answer agrees with the serving member's own view.
	srv := svcByID(svcs, lease.ServedBy)
	if srv == nil {
		t.Fatalf("lease served by unknown endpoint %q", lease.ServedBy)
	}

	// Warm cache: answers survive well past one lease through renewals
	// and the snapshots that answer them — with NO staleness blips, even
	// though the lease (2s) is far shorter than the server's default: the
	// client renews at a third of its granted lease, and the server
	// answers any renewal that finds the last snapshot lease/6 old.
	events := cli.Watch(ctx, "g")
	time.Sleep(3 * time.Second)
	lease2, err := cli.Leader(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	if lease2.Stale || lease2.Leader != lease.Leader {
		t.Fatalf("lease did not stay fresh: %+v vs %+v", lease2, lease)
	}
	for {
		select {
		case ev := <-events:
			if _, lost := ev.(client.LeaseLost); lost {
				t.Fatal("spurious LeaseLost in quiet steady state with a short lease")
			}
			continue
		default:
		}
		break
	}

	// The server side accounts the registration.
	st, err := srv.ClientStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Clients != 1 || st.Leases != 1 {
		t.Fatalf("server ClientStats = %+v, want 1 client / 1 lease", st)
	}
}

func TestClientFailoverOnGracefulClose(t *testing.T) {
	// The satellite property: a SIGTERM-style graceful close sends final
	// tombstone snapshots to subscribed clients BEFORE the transport
	// closes, so failover is tombstone-driven (fast), not lease-expiry
	// driven (slow).
	hub := transport.NewInproc(nil)
	svcs, eps := cluster(t, hub, "g", 3)
	ctx := context.Background()
	defer func() {
		for _, s := range svcs {
			_ = s.Close(ctx)
		}
	}()

	cli, err := client.New(hub.Endpoint("cli"),
		client.WithID("cli"), client.WithEndpoints(eps...),
		client.WithLeaseTTL(30*time.Second), // long: only a tombstone can beat it
		client.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close(ctx)

	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var lease client.LeaderLease
	for {
		lease, err = cli.Leader(qctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		if lease.Elected {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	events := cli.Watch(ctx, "g")
	// Close the endpoint that serves us.
	if err := svcByID(svcs, lease.ServedBy).Close(ctx); err != nil {
		t.Fatal(err)
	}

	// The tombstone arrives promptly (no 30s lease wait), then failover
	// restores a fresh view from another endpoint.
	deadline := time.After(10 * time.Second)
	sawTombstone := false
	for !sawTombstone {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("watch closed prematurely")
			}
			if tb, isTomb := ev.(client.EndpointTombstoned); isTomb {
				if tb.Endpoint != lease.ServedBy {
					t.Fatalf("tombstone from %q, want %q", tb.Endpoint, lease.ServedBy)
				}
				sawTombstone = true
			}
		case <-deadline:
			t.Fatal("no tombstone within 10s of graceful close")
		}
	}
	// Leader answers fresh again from a surviving endpoint.
	fctx, fcancel := context.WithTimeout(ctx, 10*time.Second)
	defer fcancel()
	for {
		l2, err := cli.Leader(fctx, "g")
		if err != nil {
			t.Fatalf("Leader after failover: %v", err)
		}
		if l2.Elected && l2.ServedBy != lease.ServedBy {
			if l2.Stale {
				t.Fatalf("failover served a stale lease: %+v", l2)
			}
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestClientStaleEdgeOnServerCrash(t *testing.T) {
	hub := transport.NewInproc(nil)
	svcs, eps := cluster(t, hub, "g", 2)
	ctx := context.Background()
	defer func() {
		for _, s := range svcs {
			_ = s.Close(ctx)
		}
	}()

	cli, err := client.New(hub.Endpoint("cli"),
		client.WithID("cli"), client.WithEndpoints(eps...),
		client.WithLeaseTTL(time.Second), client.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close(ctx)

	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var lease client.LeaderLease
	for {
		lease, err = cli.Leader(qctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		if lease.Elected {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	events := cli.Watch(ctx, "g")

	// Crash (no goodbye): the lease must run out and the stale edge fire.
	if err := svcByID(svcs, lease.ServedBy).Crash(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(15 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("watch closed prematurely")
			}
			if ll, isLost := ev.(client.LeaseLost); isLost {
				if ll.Last.Leader != lease.Leader {
					t.Fatalf("stale edge lost the last view: %+v", ll)
				}
				// The stale view stays readable through Cached...
				if cached, ok := cli.Cached("g"); !ok || !cached.Stale {
					t.Fatalf("Cached after stale edge = %+v, %v", cached, ok)
				}
				// ...and failover to the survivor restores freshness.
				fctx, fcancel := context.WithTimeout(ctx, 15*time.Second)
				defer fcancel()
				for {
					l2, err := cli.Leader(fctx, "g")
					if err != nil {
						t.Fatalf("Leader after crash failover: %v", err)
					}
					if l2.Elected && !l2.Stale && l2.ServedBy != lease.ServedBy {
						return
					}
					time.Sleep(50 * time.Millisecond)
				}
			}
		case <-deadline:
			t.Fatal("no LeaseLost edge within 15s of server crash")
		}
	}
}

func TestClientCloseReleasesServerLeases(t *testing.T) {
	hub := transport.NewInproc(nil)
	svcs, eps := cluster(t, hub, "g", 1)
	ctx := context.Background()
	defer svcs[0].Close(ctx)

	cli, err := client.New(hub.Endpoint("cli"),
		client.WithID("cli"), client.WithEndpoints(eps...),
		client.WithLeaseTTL(time.Hour), client.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := cli.Leader(qctx, "g"); err != nil {
		t.Fatal(err)
	}
	if st, err := svcs[0].ClientStats(ctx); err != nil || st.Leases != 1 {
		t.Fatalf("ClientStats before close = %+v, %v", st, err)
	}
	// Graceful client close unsubscribes: the (clamped, long) lease is
	// freed immediately instead of lingering.
	if err := cli.Close(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := svcs[0].ClientStats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Leases == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server still holds %d leases after client close", st.Leases)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Operations on the closed client fail cleanly — including Leader on
	// the already-cached group, whose (1h) lease is nowhere near expiry:
	// the fast path must not keep serving a client the caller shut down.
	if _, err := cli.Leader(ctx, "g"); err == nil {
		t.Fatal("Leader served a cached lease after Close")
	}
	if _, err := cli.Leader(ctx, "other"); err == nil {
		t.Fatal("Leader on a closed client succeeded")
	}
	// The stale hint remains readable by design (the view may predate
	// the election — what matters is that Cached still answers).
	if cached, ok := cli.Cached("g"); !ok || cached.Group != "g" {
		t.Fatalf("Cached after Close = %+v, %v; want the last view", cached, ok)
	}
}

func TestClientWatchSeesLeaderChange(t *testing.T) {
	hub := transport.NewInproc(nil)
	svcs, eps := cluster(t, hub, "g", 3)
	ctx := context.Background()
	defer func() {
		for _, s := range svcs {
			_ = s.Close(ctx)
		}
	}()

	cli, err := client.New(hub.Endpoint("cli"),
		client.WithID("cli"), client.WithEndpoints(eps...),
		client.WithLeaseTTL(2*time.Second), client.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close(ctx)

	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var lease client.LeaderLease
	for {
		lease, err = cli.Leader(qctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		if lease.Elected {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	events := cli.Watch(ctx, "g", client.WithInitialState())

	// Take the current leader down. If it serves our lease we will see a
	// tombstone first; either way a LeaderUpdated naming a different
	// leader must eventually arrive.
	old := lease.Leader
	if err := svcByID(svcs, old).Close(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(20 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("watch closed prematurely")
			}
			if up, isUp := ev.(client.LeaderUpdated); isUp {
				if up.Lease.Elected && up.Lease.Leader != old {
					return // the re-election reached the client
				}
			}
		case <-deadline:
			t.Fatal("client never observed the re-election")
		}
	}
}

// TestClientCachedReadAllocFree pins the headline property of the client
// read plane: the cached Leader query performs zero allocations.
func TestClientCachedReadAllocFree(t *testing.T) {
	hub := transport.NewInproc(nil)
	svcs, eps := cluster(t, hub, "g", 1)
	ctx := context.Background()
	defer svcs[0].Close(ctx)

	cli, err := client.New(hub.Endpoint("cli"),
		client.WithID("cli"), client.WithEndpoints(eps...),
		client.WithLeaseTTL(time.Hour), client.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close(ctx)
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := cli.Leader(qctx, "g"); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := cli.Leader(ctx, "g"); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("cached Leader allocated %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkClientLeaderQuery measures the cached read: the path every
// application request takes in steady state.
func BenchmarkClientLeaderQuery(b *testing.B) {
	hub := transport.NewInproc(nil)
	svcs, eps := cluster(b, hub, "g", 1)
	ctx := context.Background()
	defer svcs[0].Close(ctx)

	cli, err := client.New(hub.Endpoint("cli"),
		client.WithID("cli"), client.WithEndpoints(eps...),
		client.WithLeaseTTL(time.Hour), client.WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close(ctx)
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := cli.Leader(qctx, "g"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := cli.Leader(ctx, "g"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
