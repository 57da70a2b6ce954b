// Lockservice: the introduction's motivating pattern — a leader as the
// central coordinator of a replicated application.
//
// Three replicas hold a counter. Clients send increments to whichever
// replica they like; a replica only *applies* increments while it
// believes it is the group leader, stamping each with the leader id and
// incarnation it saw. When the leader crashes, the service elects a new
// one and the application keeps going — the building block the paper
// cites for consensus and state machine replication ([12], [13], [16]).
//
// The stamp is an audit label, not a fence. Leadership that goes A → B →
// A within one incarnation of A stamps both of A's reigns alike, and
// nothing stops two replicas from applying at once while their views
// disagree: Ω promises that every process eventually agrees on one live
// leader, not mutual exclusion at every instant. An application that
// needs exclusion must fence its writes somewhere that orders them (a
// consensus log, a storage-side epoch check), with the leader only as
// the proposer.
//
//	go run ./examples/lockservice
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	stableleader "stableleader"
	"stableleader/id"
	"stableleader/qos"
	"stableleader/transport"
)

// replica is one application process embedding the election service.
type replica struct {
	name id.Process
	svc  *stableleader.Service
	grp  *stableleader.Group

	mu      sync.Mutex
	counter int
	applied []string // audit log: "value@leader/incarnation"
}

// tryIncrement applies the increment iff this replica's own view names it
// leader (another replica's view may, for a moment, say the same of itself).
func (r *replica) tryIncrement(ctx context.Context) (string, bool) {
	li, err := r.grp.Leader(ctx)
	if err != nil || !li.Elected || li.Leader != r.name {
		return "", false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counter++
	entry := fmt.Sprintf("%d@%s/%d", r.counter, li.Leader, li.Incarnation)
	r.applied = append(r.applied, entry)
	return entry, true
}

func main() {
	ctx := context.Background()
	hub := transport.NewInproc(nil)
	names := []id.Process{"r1", "r2", "r3"}
	spec := qos.Spec{
		DetectionTime:     300 * time.Millisecond,
		MistakeRecurrence: 24 * time.Hour,
		QueryAccuracy:     0.99999,
	}

	replicas := make(map[id.Process]*replica)
	for _, name := range names {
		svc, err := stableleader.New(name, hub.Endpoint(name))
		if err != nil {
			log.Fatal(err)
		}
		grp, err := svc.Join(ctx, "counter",
			stableleader.AsCandidate(),
			stableleader.WithQoS(spec),
			stableleader.WithSeeds(names...),
		)
		if err != nil {
			log.Fatal(err)
		}
		replicas[name] = &replica{name: name, svc: svc, grp: grp}
	}

	// A stream of client increments, sprayed at random replicas; only the
	// current leader accepts each.
	apply := func(n int) {
		for i := 0; i < n; {
			for _, r := range replicas {
				if entry, ok := r.tryIncrement(ctx); ok {
					fmt.Printf("  applied %s\n", entry)
					i++
					if i >= n {
						break
					}
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	fmt.Println("phase 1: writes under the first leader")
	apply(3)

	// Find and crash the current leader.
	var leader id.Process
	for _, r := range replicas {
		if li, err := r.grp.Leader(ctx); err == nil && li.Elected {
			leader = li.Leader
			break
		}
	}
	fmt.Printf("\ncrashing leader %s...\n\n", leader)
	lost := replicas[leader]
	_ = lost.svc.Crash()
	delete(replicas, leader)

	fmt.Println("phase 2: writes resume under the new leader (note the stamp change)")
	apply(3)

	fmt.Println("\naudit logs (the stamp names the leader each replica saw, not a unique reign):")
	for name, r := range replicas {
		r.mu.Lock()
		fmt.Printf("  %s: %v\n", name, r.applied)
		r.mu.Unlock()
	}
	fmt.Printf("  %s (crashed): %v\n", lost.name, lost.applied)

	for _, r := range replicas {
		_ = r.svc.Close(ctx)
	}
}
