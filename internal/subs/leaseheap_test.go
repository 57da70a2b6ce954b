package subs

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refHeap is the leaseHeap as it was before it was typed: the same slice
// under container/heap.
type refHeap []leaseEntry

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].at.Before(h[j].at) }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(leaseEntry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestLeaseHeapMatchesContainerHeap pins the typed heap to the library's
// ordering, ties included: expiry order among leases sharing a deadline
// (every lease granted in one tick does) must not have moved.
func TestLeaseHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := time.Unix(1000, 0)
	var got leaseHeap
	var want refHeap
	for step := 0; step < 20000; step++ {
		if len(want) == 0 || rng.Intn(5) < 3 {
			// Few distinct deadlines, so most comparisons are ties.
			e := leaseEntry{at: base.Add(time.Duration(rng.Intn(8)) * time.Second), l: &lease{}}
			got.push(e)
			heap.Push(&want, e)
			continue
		}
		g, w := got.pop(), heap.Pop(&want).(leaseEntry)
		if g != w {
			t.Fatalf("step %d: typed heap popped %v/%p, container/heap %v/%p", step, g.at, g.l, w.at, w.l)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("sizes diverged: %d vs %d", len(got), len(want))
	}
}
