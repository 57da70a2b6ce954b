// Package outbound implements the per-destination packet scheduler of the
// leader election node: the layer between the protocol core and the
// transport that coalesces every message bound for one peer into a single
// datagram carrying a wire.Batch envelope.
//
// One shared service instance multiplexes many groups (the paper's
// lightweight-infrastructure argument), so a node in G groups would
// otherwise ship G independent ALIVE datagrams to the same peer every
// heartbeat interval. The scheduler stages messages per destination and
// flushes
//
//   - when the staged envelope reaches the size threshold (~1200 B, under
//     the common 1500 B MTU),
//   - when the oldest staged message's coalescing delay expires (the node
//     derives it from the link's heartbeat interval), or
//   - immediately, for latency-critical traffic (ACCUSE, LEAVE) — which
//     drains everything staged for the peer first, preserving per-peer
//     FIFO order.
//
// A flush holding a single message emits it bare — byte-identical to the
// pre-batch wire format — so mixed-version clusters interoperate on the
// fast path.
//
// Like the protocol core, a Scheduler is single-threaded by contract: the
// host serialises Enqueue, timer callbacks and Stop onto one event loop.
package outbound

import (
	"time"

	"stableleader/id"
	"stableleader/internal/clock"
	"stableleader/internal/metrics"
	"stableleader/internal/wire"
)

// DefaultMaxBytes is the flush threshold for a staged envelope: comfortably
// inside a 1500 B Ethernet MTU after UDP/IP headers, so coalescing never
// causes IP fragmentation on common networks.
const DefaultMaxBytes = 1200

// Config parameterises a Scheduler.
type Config struct {
	// Clock provides time and timers (the host's event loop clock).
	Clock clock.Clock
	// Emit transmits one flushed datagram: a bare message or a *wire.Batch.
	// Ownership of the message (and a batch's slice) transfers to Emit.
	Emit func(to id.Process, m wire.Message)
	// MaxBytes overrides the flush threshold (default DefaultMaxBytes).
	MaxBytes int
	// Counters, when non-nil, receives outbound datagram accounting.
	Counters *metrics.PacketCounters
	// Disabled bypasses coalescing entirely: every Enqueue emits one bare
	// datagram. Exists for the multigroup ablation experiment.
	Disabled bool
}

// queue is the staging buffer for one destination. Queues persist once a
// peer has been contacted: they are a few dozen bytes each and the peer set
// is bounded by the membership the node has ever seen.
type queue struct {
	msgs     []wire.Message
	bytes    int // sum of wire.ItemSize over msgs (envelope body)
	deadline time.Time
	// timer is created once with the queue and re-armed per coalescing
	// window — O(1) and allocation free on wheel-backed clocks, where the
	// old per-window AfterFunc allocated a runtime timer every flush.
	timer clock.Rearmer
	armed bool
}

// Scheduler stages outbound messages per destination.
type Scheduler struct {
	cfg     Config
	queues  map[id.Process]*queue
	stopped bool
}

// New returns a Scheduler emitting through cfg.Emit.
func New(cfg Config) *Scheduler {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	return &Scheduler{cfg: cfg, queues: make(map[id.Process]*queue)}
}

// Enqueue stages m for transmission to to. maxDelay bounds how long m may
// wait for companions; zero (or negative) flushes the destination's whole
// queue synchronously — the immediate path for latency-critical kinds.
//
//leadervet:hotpath
func (s *Scheduler) Enqueue(to id.Process, m wire.Message, maxDelay time.Duration) {
	if s.stopped {
		return
	}
	if s.cfg.Disabled {
		s.cfg.Counters.CountOut(1, m.WireSize()+wire.UDPOverhead)
		s.cfg.Emit(to, m)
		return
	}
	q := s.queues[to]
	if q == nil {
		// First contact with this peer: the queue and its timer live for
		// the rest of the scheduler's life, so both allocations are
		// one-time, not per-message.
		q = &queue{}                                                            //leadervet:ignore — once per peer
		q.timer = clock.NewTimer(s.cfg.Clock, func() { s.flushExpired(to, q) }) //leadervet:ignore — once per peer
		s.queues[to] = q
	}
	item := wire.ItemSize(m)
	// Never let the staged envelope grow past the threshold: ship what is
	// already staged first (order preserved), then stage m.
	if len(q.msgs) > 0 && q.bytes+item+wire.BatchOverhead > s.cfg.MaxBytes {
		s.flush(to, q)
	}
	q.msgs = append(q.msgs, m)
	q.bytes += item
	if maxDelay <= 0 || q.bytes+wire.BatchOverhead >= s.cfg.MaxBytes {
		s.flush(to, q)
		return
	}
	deadline := s.cfg.Clock.Now().Add(maxDelay)
	if !q.armed || deadline.Before(q.deadline) {
		q.deadline = deadline
		q.armed = true
		q.timer.Reset(maxDelay)
	}
}

// flushExpired is the flush-timer callback for one queue. A stale
// callback (the queue was flushed and re-armed after the fire was
// already queued) is discarded by the armed/deadline checks: a live arm
// always has a future deadline, so a callback arriving before it is a
// leftover of an earlier window.
func (s *Scheduler) flushExpired(to id.Process, q *queue) {
	if s.stopped || s.queues[to] != q || !q.armed {
		return
	}
	if s.cfg.Clock.Now().Before(q.deadline) {
		return // re-armed since; the newer fire will come at q.deadline
	}
	q.armed = false
	s.flush(to, q)
}

// Flush transmits whatever is staged for to, if anything.
func (s *Scheduler) Flush(to id.Process) {
	if q := s.queues[to]; q != nil {
		s.flush(to, q)
	}
}

// FlushAll drains every staging buffer, in destination order for
// reproducibility.
func (s *Scheduler) FlushAll() {
	for _, to := range id.SortedMapKeys(s.queues) {
		s.flush(to, s.queues[to])
	}
}

// Staged reports the scheduler's current staging depth: the total number
// of messages waiting for a coalescing window to close, and how many
// destinations hold at least one. Called on the owning event loop
// (scrape-time observability, not a hot path).
func (s *Scheduler) Staged() (msgs, dests int) {
	for _, q := range s.queues {
		if n := len(q.msgs); n > 0 {
			msgs += n
			dests++
		}
	}
	return msgs, dests
}

// flush emits q's staged messages as one counted datagram.
//
//leadervet:hotpath
func (s *Scheduler) flush(to id.Process, q *queue) {
	if q.armed {
		q.timer.Stop()
		q.armed = false
	}
	n := len(q.msgs)
	if n == 0 {
		return
	}
	var m wire.Message
	if n == 1 {
		// Fast path: a lone message ships bare, byte-compatible with the
		// pre-batch format.
		m = q.msgs[0]
	} else {
		// The envelope and its slice come from the send pool and belong to
		// Emit from here on: a host that marshals and releases hands them
		// back, one that retains the datagram (a simulated in-flight one)
		// just keeps them.
		b := wire.GetBatch()
		b.Msgs = append(b.Msgs, q.msgs...)
		m = b
	}
	// The staging buffer stays with the queue, emptied so it retains no
	// message.
	clear(q.msgs)
	q.msgs = q.msgs[:0]
	q.bytes = 0
	s.cfg.Counters.CountOut(n, m.WireSize()+wire.UDPOverhead)
	s.cfg.Emit(to, m)
}

// Stop halts the scheduler, dropping anything still staged (crash
// semantics; graceful paths flush through the immediate-kind rule before
// stopping).
func (s *Scheduler) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	for _, to := range id.SortedMapKeys(s.queues) {
		q := s.queues[to]
		q.timer.Stop()
		q.armed = false
		q.msgs = nil
	}
}
