package stableleader_test

// The read-plane race hammer (run under -race in CI): 32 goroutines
// pounding Leader, Status and Watch — fast and loop-serialised paths —
// while the protocol side runs real elections, membership churn, leaves
// and a full service shutdown. The assertions are deliberately light;
// the test's job is to put every reader/writer pair in front of the race
// detector.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	stableleader "stableleader"
	"stableleader/client"
	"stableleader/id"
	"stableleader/qos"
	"stableleader/transport"
)

func TestReadPlaneRaceHammer(t *testing.T) {
	if !stableleader.RaceEnabled {
		t.Log("running without -race: this hammer only detects races under the race detector")
	}
	hub := transport.NewInproc(nil)
	ctx := context.Background()
	spec := qos.Spec{
		DetectionTime:     250 * time.Millisecond,
		MistakeRecurrence: 24 * time.Hour,
		QueryAccuracy:     0.999,
	}

	newMember := func(p id.Process, seed int64) (*stableleader.Service, *stableleader.Group) {
		svc, err := stableleader.New(p, hub.Endpoint(p), stableleader.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		grp, err := svc.Join(ctx, "hammer",
			stableleader.AsCandidate(),
			stableleader.WithQoS(spec),
			stableleader.WithSeeds("p1", "p2"),
			stableleader.WithHelloInterval(100*time.Millisecond),
		)
		if err != nil {
			t.Fatal(err)
		}
		return svc, grp
	}

	svc1, grp1 := newMember("p1", 1)
	svc2, grp2 := newMember("p2", 2)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// 32 readers split across the two handles and the three read surfaces.
	for i := 0; i < 32; i++ {
		i := i
		grp := grp1
		if i%2 == 1 {
			grp = grp2
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 4 {
				case 0:
					_, _ = grp.Leader(ctx)
				case 1:
					if rows, err := grp.Status(ctx); err == nil {
						for _, r := range rows {
							_ = r.Trusted // walk the shared snapshot
						}
					}
				case 2:
					_, _ = grp.Leader(ctx, stableleader.WithSyncRead())
				case 3:
					wctx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
					for range grp.Watch(wctx, stableleader.WithInitialState()) {
						break
					}
					cancel()
				}
			}
		}()
	}

	// Protocol churn: a third member joins, leaves, and crashes repeatedly
	// while the readers run.
	churners := []id.Process{"p3", "p4", "p5"}
	for cycle, p := range churners {
		svc3, grp3 := newMember(p, int64(100+cycle))
		time.Sleep(150 * time.Millisecond)
		if cycle%2 == 0 {
			if err := grp3.Leave(ctx); err != nil {
				t.Error(err)
			}
			if err := svc3.Close(ctx); err != nil {
				t.Error(err)
			}
		} else {
			if err := svc3.Crash(); err != nil {
				t.Error(err)
			}
		}
	}

	// Leave one group while its readers keep querying, then close both
	// services under the same load.
	if err := grp2.Leave(ctx); err != nil {
		t.Error(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := svc1.Close(ctx); err != nil {
		t.Error(err)
	}
	if err := svc2.Close(ctx); err != nil {
		t.Error(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Post-shutdown sanity: the fast paths answer deterministically.
	if _, err := grp2.Leader(ctx); err == nil {
		// Acceptable: the closed-service fallback served the last view.
		_ = err
	}
	if _, err := grp2.Status(ctx); !errors.Is(err, stableleader.ErrClosed) {
		t.Fatalf("Status on a closed service = %v, want ErrClosed", err)
	}
}

// TestHandoverRaceHammer puts the planned-handover plane in front of the
// race detector: concurrent Depose calls bounce leadership between two
// multi-shard services while readers pound the Standby/Leader fast paths
// and watch streams, and a third member cycles through graceful leaves
// (handover + tombstone fan-out) and crashes. Assertions are light; the
// job is racing the handover writers against every read surface at once.
func TestHandoverRaceHammer(t *testing.T) {
	if !stableleader.RaceEnabled {
		t.Log("running without -race: this hammer only detects races under the race detector")
	}
	hub := transport.NewInproc(nil)
	ctx := context.Background()
	spec := qos.Spec{
		DetectionTime:     250 * time.Millisecond,
		MistakeRecurrence: 24 * time.Hour,
		QueryAccuracy:     0.999,
	}

	const shards = 4
	const groupCount = 4
	gids := make([]id.Group, groupCount)
	for i := range gids {
		gids[i] = id.Group(fmt.Sprintf("ho%02d", i))
	}
	newMember := func(p id.Process, seed int64) (*stableleader.Service, []*stableleader.Group) {
		svc, err := stableleader.New(p, hub.Endpoint(p),
			stableleader.WithSeed(seed), stableleader.WithShards(shards),
			stableleader.WithClientPlane())
		if err != nil {
			t.Fatal(err)
		}
		grps := make([]*stableleader.Group, groupCount)
		for i, g := range gids {
			grp, err := svc.Join(ctx, g,
				stableleader.AsCandidate(),
				stableleader.WithQoS(spec),
				stableleader.WithSeeds("d1", "d2"),
				stableleader.WithHelloInterval(50*time.Millisecond),
			)
			if err != nil {
				t.Fatal(err)
			}
			grps[i] = grp
		}
		return svc, grps
	}

	svc1, grps1 := newMember("d1", 1)
	svc2, grps2 := newMember("d2", 2)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readers: Standby and Leader fast paths plus watch streams, across
	// both handles and every group.
	for i := 0; i < 16; i++ {
		i := i
		grp := grps1[i%groupCount]
		if i%2 == 1 {
			grp = grps2[i%groupCount]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					_, _, _, _ = grp.Standby(ctx)
				case 1:
					_, _ = grp.Leader(ctx)
				case 2:
					wctx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
					for range grp.Watch(wctx, stableleader.WithInitialState()) {
						break
					}
					cancel()
				}
			}
		}()
	}

	// Deposers: whoever currently leads a group hands it over; the loser's
	// call fails with ErrNotLeader/ErrNoStandby, both fine. Leadership
	// ping-pongs between the services, so HANDOVER processing races the
	// readers on every shard.
	for i := 0; i < 2*groupCount; i++ {
		i := i
		grp := grps1[i%groupCount]
		if i%2 == 1 {
			grp = grps2[i%groupCount]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = grp.Depose(ctx) // ErrNotLeader/ErrNoStandby expected
				time.Sleep(10 * time.Millisecond)
			}
		}()
	}

	// Churn: a third member joins every group, then leaves gracefully
	// (planned handover + tombstone fan-out) or crashes.
	for cycle := 0; cycle < 3; cycle++ {
		svc3, grps3 := newMember(id.Process(fmt.Sprintf("d%d", 3+cycle)), int64(100+cycle))
		time.Sleep(200 * time.Millisecond)
		if cycle%2 == 0 {
			for _, grp := range grps3 {
				if err := grp.Leave(ctx); err != nil {
					t.Error(err)
				}
			}
			if err := svc3.Close(ctx); err != nil {
				t.Error(err)
			}
		} else {
			if err := svc3.Crash(); err != nil {
				t.Error(err)
			}
		}
	}

	// Close both services under full handover load.
	if err := svc1.Close(ctx); err != nil {
		t.Error(err)
	}
	if err := svc2.Close(ctx); err != nil {
		t.Error(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Post-shutdown: the standby fast path answers deterministically.
	if _, _, _, err := grps1[0].Standby(ctx); err == nil {
		t.Fatal("Standby on a closed service answered without error")
	}
}

// TestCrossShardChurnRaceHammer is the sharded-runtime companion of the
// read-plane hammer: on a multi-shard service, protocol churn (member
// joins and crashes) hits the groups of one set of shards while readers
// pound Leader/Status and remote clients subscribe to groups on other
// shards — every cross-shard pair (steering stage, shared packet
// counters, per-shard registries, aggregate shutdown) in front of the
// race detector at once.
func TestCrossShardChurnRaceHammer(t *testing.T) {
	if !stableleader.RaceEnabled {
		t.Log("running without -race: this hammer only detects races under the race detector")
	}
	hub := transport.NewInproc(nil)
	ctx := context.Background()
	spec := qos.Spec{
		DetectionTime:     250 * time.Millisecond,
		MistakeRecurrence: 24 * time.Hour,
		QueryAccuracy:     0.999,
	}

	const shards = 4
	svc, err := stableleader.New("h1", hub.Endpoint("h1"),
		stableleader.WithSeed(1), stableleader.WithShards(shards),
		stableleader.WithClientPlane(),
	)
	if err != nil {
		t.Fatal(err)
	}

	// Enough groups that every shard owns a few.
	const groupCount = 2 * shards
	groups := make([]*stableleader.Group, groupCount)
	gids := make([]id.Group, groupCount)
	for i := range groups {
		gids[i] = id.Group(fmt.Sprintf("xs%02d", i))
		grp, err := svc.Join(ctx, gids[i],
			stableleader.AsCandidate(),
			stableleader.WithQoS(spec),
			stableleader.WithSeeds("h1", "h2"),
			stableleader.WithHelloInterval(50*time.Millisecond),
		)
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = grp
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readers across every group: fast reads, sync reads, watches.
	for i := 0; i < 16; i++ {
		i := i
		grp := groups[i%groupCount]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					_, _ = grp.Leader(ctx)
				case 1:
					_, _ = grp.Status(ctx)
				case 2:
					_, _ = grp.Leader(ctx, stableleader.WithSyncRead())
				}
			}
		}()
	}

	// Remote clients subscribing to a rotating subset of the groups.
	for c := 0; c < 2; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			cid := id.Process(fmt.Sprintf("cli%d", c))
			cl, err := client.New(hub.Endpoint(cid),
				client.WithID(cid), client.WithEndpoints("h1"),
				client.WithLeaseTTL(time.Second))
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close(ctx)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
				_, _ = cl.Leader(qctx, gids[i%groupCount])
				cancel()
			}
		}()
	}

	// Member churn: a second multi-shard service joins and crashes its
	// way through the groups while the readers run.
	for cycle := 0; cycle < 3; cycle++ {
		svc2, err := stableleader.New("h2", hub.Endpoint("h2"),
			stableleader.WithSeed(int64(100+cycle)), stableleader.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		for i := range gids {
			if _, err := svc2.Join(ctx, gids[i],
				stableleader.AsCandidate(),
				stableleader.WithQoS(spec),
				stableleader.WithSeeds("h1"),
				stableleader.WithHelloInterval(50*time.Millisecond),
			); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(200 * time.Millisecond)
		if cycle%2 == 0 {
			if err := svc2.Close(ctx); err != nil {
				t.Error(err)
			}
		} else {
			if err := svc2.Crash(); err != nil {
				t.Error(err)
			}
		}
	}

	// Close the primary under full load, then stop the hammer.
	if err := svc.Close(ctx); err != nil {
		t.Error(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}
