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
// fast path. A batch codes its ALIVEs as runs (wire.AliveRun) only toward
// a peer its port's owner knows decodes them, and the owner's own
// announcement that it does rides a datagram already leaving.
//
// Combine out, the mirror of the host's "steer in": a process runs ONE
// Scheduler however many event loops it has. Each loop attaches a Port —
// its clock and its transmit function — and enqueues through it into the
// per-destination queue all ports share, so what the loops owe one peer at
// one instant leaves as one datagram, from whichever port flushes. A Port
// is single-threaded by contract like the protocol core (its loop
// serialises Enqueue, its timer callbacks and Stop); the queues are what
// ports share, each behind its own mutex. The lock rule: per destination,
// held to append or to flush — build the envelope and hand it to the
// flushing port's emit, which must stage the datagram, not send it —
// never across a syscall. Ports therefore contend only when they address
// the same peer at the same instant, which is exactly when merging pays.
package outbound

import (
	"sync"
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
	// Clock and Emit, when Emit is set, become the scheduler's first port
	// — the one the Scheduler's own Enqueue, Flush, FlushAll and Stop go
	// through, which is all a single-loop host needs. See Port for what
	// they mean.
	Clock clock.Clock
	Emit  func(to id.Process, m wire.Message)
	// MaxBytes overrides the flush threshold (default DefaultMaxBytes).
	MaxBytes int
	// Counters, when non-nil, receives outbound datagram accounting.
	Counters *metrics.PacketCounters
	// Disabled bypasses coalescing entirely: every Enqueue emits one bare
	// datagram. Exists for the multigroup ablation experiment.
	Disabled bool
}

// queue is the staging buffer for one destination, shared by every port.
// Queues persist once a peer has been contacted: they are a few dozen
// bytes each and the peer set is bounded by the membership the node has
// ever seen.
type queue struct {
	mu    sync.Mutex
	msgs  []wire.Message // guarded by mu
	bytes int            // guarded by mu; sum of wire.ItemSize over msgs (envelope body)
	// deadline is the earliest flush deadline any port armed since the last
	// flush, and owner the port whose timer is set for it. Other ports'
	// timers, armed for deadlines since undercut, may still be pending:
	// they are harmless (see flushExpired). All guarded by mu.
	deadline time.Time
	armed    bool
	owner    *Port
}

// Scheduler stages outbound messages per destination.
type Scheduler struct {
	cfg   Config // immutable after New
	first *Port  // immutable after New; nil when cfg.Emit was

	mu     sync.Mutex
	queues map[id.Process]*queue // guarded by mu
	live   int                   // guarded by mu; ports attached and not yet stopped
}

// Port is one event loop's door into the scheduler. Everything it owns is
// touched only on that loop; the queues it reaches are shared.
type Port struct {
	s     *Scheduler
	clock clock.Clock
	emit  func(to id.Process, m wire.Message)
	caps  func(to id.Process) (runs bool, note wire.Message)
	// peers caches, per destination this port has addressed, the shared
	// queue and this port's own flush timer for it — created once with the
	// entry and re-armed per coalescing window, O(1) and allocation free on
	// wheel-backed clocks.
	peers   map[id.Process]*portPeer //leadervet:loopOwned
	stopped bool                     //leadervet:loopOwned
}

// portPeer is one destination as seen from one port.
type portPeer struct {
	q     *queue
	timer clock.Rearmer
}

// New returns a Scheduler; with cfg.Emit set it has its first port already.
func New(cfg Config) *Scheduler {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	s := &Scheduler{cfg: cfg, queues: make(map[id.Process]*queue)}
	if cfg.Emit != nil {
		s.first = s.Port(cfg.Clock, cfg.Emit, nil)
	}
	return s
}

// Port attaches one more event loop: c supplies its time and timers, and
// emit transmits one flushed datagram — a bare message or a *wire.Batch,
// whose ownership (and a batch's slice) transfers to emit. emit runs on
// the port's loop with the destination's queue locked, so it must neither
// block nor call back into the scheduler: a real-time host marshals and
// stages there and sends once the call has returned. The datagram may
// carry messages other ports staged.
//
// caps, when set, is asked about every datagram as it leaves through this
// port, with the destination's queue locked: runs reports that to decodes
// ALIVE runs, so an envelope codes them (wire.Batch.Runs), and a non-nil
// note is one more message for the datagram, owned like the rest — how a
// port's owner announces that it decodes runs without adding a datagram.
//
//leadervet:init
func (s *Scheduler) Port(c clock.Clock, emit func(to id.Process, m wire.Message), caps func(to id.Process) (runs bool, note wire.Message)) *Port {
	s.mu.Lock()
	s.live++
	s.mu.Unlock()
	return &Port{s: s, clock: c, emit: emit, caps: caps, peers: make(map[id.Process]*portPeer)}
}

// Enqueue stages m for to through the first port, like the three methods
// after it: the one-loop host's way in, on that loop.
func (s *Scheduler) Enqueue(to id.Process, m wire.Message, maxDelay time.Duration) {
	s.first.Enqueue(to, m, maxDelay)
}

// Flush transmits whatever is staged for to through the first port.
func (s *Scheduler) Flush(to id.Process) { s.first.Flush(to) }

// FlushAll drains every staging buffer through the first port.
func (s *Scheduler) FlushAll() { s.first.FlushAll() }

// Stop stops the first port.
func (s *Scheduler) Stop() { s.first.Stop() }

// Staged reports the current staging depth: the total number of messages
// waiting for a coalescing window to close, and how many destinations hold
// at least one. Safe from any goroutine (scrape-time observability, not a
// hot path).
func (s *Scheduler) Staged() (msgs, dests int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, q := range s.queues {
		q.mu.Lock()
		n := len(q.msgs)
		q.mu.Unlock()
		if n > 0 {
			msgs += n
			dests++
		}
	}
	return msgs, dests
}

// destinations returns every peer ever addressed, in id order for
// reproducibility.
func (s *Scheduler) destinations() []id.Process {
	s.mu.Lock()
	defer s.mu.Unlock()
	return id.SortedMapKeys(s.queues)
}

// queue returns (creating if needed) the shared queue toward to.
func (s *Scheduler) queue(to id.Process) *queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[to]
	if q == nil {
		// Room for a client's snapshots of eight groups, or a small node's
		// heartbeats, without regrowing the staging slice burst by burst.
		q = &queue{msgs: make([]wire.Message, 0, 8)}
		s.queues[to] = q
	}
	return q
}

// peer returns this port's entry for to. First contact costs the entry
// and its timer, which then live as long as the port: one-time
// allocations, not per-message ones.
//
//leadervet:onLoop
func (p *Port) peer(to id.Process) *portPeer {
	pe := p.peers[to]
	if pe == nil {
		pe = &portPeer{q: p.s.queue(to)}
		pe.timer = clock.NewTimer(p.clock, func() { p.flushExpired(to, pe) })
		p.peers[to] = pe
	}
	return pe
}

// Enqueue stages m for transmission to to. maxDelay bounds how long m may
// wait for companions; zero (or negative) flushes the destination's whole
// queue synchronously, through this port — the immediate path for
// latency-critical kinds, which never waits on another loop.
//
//leadervet:onLoop
//leadervet:hotpath
func (p *Port) Enqueue(to id.Process, m wire.Message, maxDelay time.Duration) {
	if p.stopped {
		return
	}
	cfg := &p.s.cfg
	if cfg.Disabled {
		cfg.Counters.CountOut(1, m.WireSize()+wire.UDPOverhead)
		p.emit(to, m)
		return
	}
	pe := p.peer(to)
	q := pe.q
	item := wire.ItemSize(m)
	var deadline time.Time
	if maxDelay > 0 {
		deadline = p.clock.Now().Add(maxDelay)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	// Never let the staged envelope grow past the threshold: ship what is
	// already staged first (order preserved), then stage m.
	if len(q.msgs) > 0 && q.bytes+item+wire.BatchOverhead > cfg.MaxBytes {
		p.flush(to, pe)
	}
	q.msgs = append(q.msgs, m)
	q.bytes += item
	if maxDelay <= 0 || q.bytes+wire.BatchOverhead >= cfg.MaxBytes {
		p.flush(to, pe)
		return
	}
	// Only a deadline earlier than the armed one costs a timer, and only
	// this port's: the loop that shortened the wait is the one that wakes.
	if !q.armed || deadline.Before(q.deadline) {
		q.deadline, q.armed, q.owner = deadline, true, p
		pe.timer.Reset(maxDelay)
	}
}

// flushExpired is this port's flush-timer callback for one queue. The
// timer may be stale — the queue was flushed, or re-armed by any port,
// after the fire was queued — and the armed/deadline checks sort that out:
// a live arm always has a timer pending for its deadline on its owner's
// loop, so before the deadline there is nothing to do here, and at or past
// it whichever port gets here first flushes and the rest find the queue
// disarmed.
//
//leadervet:onLoop
func (p *Port) flushExpired(to id.Process, pe *portPeer) {
	if p.stopped {
		return
	}
	now := p.clock.Now()
	q := pe.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.armed && !now.Before(q.deadline) {
		p.flush(to, pe)
	}
}

// Flush transmits whatever is staged for to, if anything.
//
//leadervet:onLoop
func (p *Port) Flush(to id.Process) {
	if p.stopped {
		return
	}
	pe := p.peer(to)
	pe.q.mu.Lock()
	defer pe.q.mu.Unlock()
	p.flush(to, pe)
}

// FlushAll drains every staging buffer, in destination order for
// reproducibility.
//
//leadervet:onLoop
func (p *Port) FlushAll() {
	for _, to := range p.s.destinations() {
		p.Flush(to)
	}
}

// flush emits pe's queue as one counted datagram through this port. The
// caller holds the queue's lock.
//
//leadervet:onLoop
//leadervet:hotpath
func (p *Port) flush(to id.Process, pe *portPeer) {
	q := pe.q
	if q.armed {
		if q.owner == p {
			pe.timer.Stop()
		}
		q.armed = false
	}
	n := len(q.msgs)
	if n == 0 {
		return
	}
	runs := false
	if p.caps != nil {
		var note wire.Message
		if runs, note = p.caps(to); note != nil {
			q.msgs = append(q.msgs, note)
			n++
		}
	}
	var m wire.Message
	if n == 1 {
		// Fast path: a lone message ships bare, byte-compatible with the
		// pre-batch format.
		m = q.msgs[0]
	} else {
		// The envelope and its slice come from the send pool and belong to
		// emit from here on: a host that marshals and releases hands them
		// back, one that retains the datagram (a simulated in-flight one)
		// just keeps them.
		b := wire.GetBatch()
		b.Msgs = append(b.Msgs, q.msgs...)
		b.Runs = runs
		m = b
	}
	// The staging buffer stays with the queue, emptied so it retains no
	// message.
	clear(q.msgs)
	q.msgs = q.msgs[:0]
	q.bytes = 0
	p.s.cfg.Counters.CountOut(n, m.WireSize()+wire.UDPOverhead)
	p.emit(to, m)
}

// Stop detaches the port: its timers are cancelled and its Enqueue becomes
// a no-op. What it staged stays in the shared queues for the remaining
// ports to carry out; the last port to stop drops whatever is still staged
// (crash semantics; graceful paths flush through the immediate-kind rule
// before stopping).
//
//leadervet:onLoop
func (p *Port) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	for _, pe := range p.peers {
		pe.timer.Stop()
		pe.q.mu.Lock()
		if pe.q.armed && pe.q.owner == p {
			// Nothing is pending for this deadline any more: let the next
			// enqueue, from a live port, arm its own.
			pe.q.armed = false
		}
		pe.q.mu.Unlock()
	}
	s := p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.live--; s.live > 0 {
		return
	}
	for _, q := range s.queues {
		q.mu.Lock()
		q.msgs, q.bytes, q.armed = nil, 0, false
		q.mu.Unlock()
	}
}
