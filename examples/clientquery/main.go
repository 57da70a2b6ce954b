// Clientquery: the remote client plane end to end in one binary. Three
// service processes elect a leader and serve leadership subscriptions; a
// fourth process — NOT a group member — consults them through the client
// package: a lease-cached Leader query plus a Watch stream. We then close
// the client's serving endpoint gracefully and watch the tombstone-driven
// failover, and finally crash the leader and watch the re-election reach
// the client.
//
//	go run ./examples/clientquery
//
// The processes communicate over the in-process transport; swap it for
// transport.NewUDP to split them across machines (see cmd/leaderd
// -serve-clients — clients need no -peer entries there, their addresses
// are learned from their own traffic).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	stableleader "stableleader"
	"stableleader/client"
	"stableleader/id"
	"stableleader/qos"
	"stableleader/transport"
)

func main() {
	ctx := context.Background()
	hub := transport.NewInproc(nil)
	names := []id.Process{"alpha", "bravo", "charlie"}

	// A snappy QoS for an interactive demo: detect crashes within 300ms.
	spec := qos.Spec{
		DetectionTime:     300 * time.Millisecond,
		MistakeRecurrence: 24 * time.Hour,
		QueryAccuracy:     0.99999,
	}

	services := make(map[id.Process]*stableleader.Service)
	for _, name := range names {
		svc, err := stableleader.New(name, hub.Endpoint(name),
			stableleader.WithClientPlane()) // serve remote subscribers
		if err != nil {
			log.Fatal(err)
		}
		if _, err := svc.Join(ctx, "demo",
			stableleader.AsCandidate(),
			stableleader.WithQoS(spec),
			stableleader.WithSeeds(names...),
		); err != nil {
			log.Fatal(err)
		}
		services[name] = svc
	}
	fmt.Println("three services joined group \"demo\" with the client plane on")

	// The client: a non-member process with nothing but a transport and
	// the endpoint names. Leader() subscribes on first use and then
	// answers from a lease-bounded cache — one atomic load per query.
	cli, err := client.New(hub.Endpoint("frontend"),
		client.WithID("frontend"),
		client.WithEndpoints(names...),
		client.WithLeaseTTL(2*time.Second),
	)
	if err != nil {
		log.Fatal(err)
	}

	lease := waitElected(ctx, cli)
	fmt.Printf("-> client sees leader %s (served by %s, lease %v)\n\n",
		lease.Leader, lease.ServedBy, time.Until(lease.Expires).Round(time.Millisecond))

	events := cli.Watch(ctx, "demo")

	// Close the endpoint serving our lease: its goodbye tombstone makes
	// the client fail over immediately — no lease timeout needed.
	fmt.Printf("closing %s (the client's serving endpoint) gracefully...\n", lease.ServedBy)
	served := lease.ServedBy
	_ = services[served].Close(ctx)
	delete(services, served)
	// When the endpoint also led the group, its goodbye names the successor
	// it handed over to: the client re-pins there at once and reports the
	// successor as a fresh LeaderUpdated — there is no tombstone event to
	// wait for.
failover:
	for ev := range events {
		switch e := ev.(type) {
		case client.EndpointTombstoned:
			fmt.Printf("-> tombstone from %s; failing over\n", e.Endpoint)
			break failover
		case client.LeaderUpdated:
			if e.Lease.ServedBy != served || e.Lease.Leader != served {
				fmt.Printf("-> %s handed over to %s on its way out; re-pinned\n", served, e.Lease.Leader)
				break failover
			}
		}
	}
	lease = waitElected(ctx, cli)
	fmt.Printf("-> fresh lease again: leader %s (view from %s)\n\n", lease.Leader, lease.ServedBy)

	// Crash the leader itself (it may or may not be the serving
	// endpoint): the re-election propagates to the client as an event.
	fmt.Printf("crashing leader %s (no goodbye)...\n", lease.Leader)
	dead := lease.Leader
	start := time.Now()
	_ = services[dead].Crash()
	delete(services, dead)
	for ev := range events {
		if up, ok := ev.(client.LeaderUpdated); ok && up.Lease.Elected && up.Lease.Leader != dead {
			fmt.Printf("-> client observed new leader %s after %v\n",
				up.Lease.Leader, time.Since(start).Round(time.Millisecond))
			break
		}
	}

	_ = cli.Close(ctx)
	for _, svc := range services {
		_ = svc.Close(ctx)
	}
}

// waitElected polls the client until it serves a fresh elected view.
func waitElected(ctx context.Context, cli *client.Client) client.LeaderLease {
	for {
		qctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		lease, err := cli.Leader(qctx, "demo")
		cancel()
		if err == nil && lease.Elected {
			return lease
		}
		time.Sleep(20 * time.Millisecond)
	}
}
