package main

import (
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call it
// makes into the program, or around a phase of a fault round.
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the trace began.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Parent is the index of the span that caused this one, -1 for a root.
	Parent int `json:"parent"`
	// Round identifies the fault round or send burst the span belongs to.
	Round int64 `json:"round"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int, round int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Round: round})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}
