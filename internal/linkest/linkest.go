// Package linkest implements the link quality estimator of the failure
// detector architecture (Figure 1 of the paper): from the stream of ALIVE
// messages received over a directed link it continuously estimates
//
//   - pL, the probability of message loss (from sequence-number gaps),
//   - Ed, the expected message delay, and
//   - Sd, the standard deviation of the message delay,
//
// which the failure detector configurator consumes to compute the heartbeat
// interval and timeout that meet the application's QoS.
//
// The estimator forgets old behaviour exponentially (counters are halved
// once a window's worth of samples accumulates) so the failure detector
// adapts to changing network conditions, as required in Section 3.
package linkest

import (
	"math"
	"sync"
	"time"

	"stableleader/id"
)

// Defaults used until enough samples arrive. They are deliberately
// pessimistic (a mediocre link) so the failure detector starts conservative
// and relaxes as evidence accumulates.
const (
	defaultLoss      = 0.02
	defaultMeanDelay = 5 * time.Millisecond
	defaultStdDelay  = 5 * time.Millisecond

	// windowSize is the effective sample memory: once this many weighted
	// samples accumulate, all accumulators are halved.
	windowSize = 2000

	// minSamples is how many real samples are required before the
	// estimator trusts its own numbers over the defaults.
	minSamples = 8
)

// Stats is a snapshot of the estimated link quality.
type Stats struct {
	// Loss is the estimated probability that a message is dropped.
	Loss float64
	// MeanDelay is the estimated expected one-way delay.
	MeanDelay time.Duration
	// StdDelay is the estimated standard deviation of the one-way delay.
	StdDelay time.Duration
	// Samples is the (decayed) number of delay observations backing the
	// estimate.
	Samples float64
}

// DefaultStats returns the pre-evidence estimate.
func DefaultStats() Stats {
	return Stats{Loss: defaultLoss, MeanDelay: defaultMeanDelay, StdDelay: defaultStdDelay}
}

// Estimator estimates the quality of one incoming directed link. One
// estimator is shared by every group that monitors the same remote process
// (the cost-sharing architecture of Section 4); heartbeat streams of
// different groups are distinguished by a stream key so sequence gaps are
// counted per stream.
//
// An Estimator is single-threaded like its owner, and its Observe takes no
// lock: evidence gathers in pend and moves into the link's estimate a batch
// at a time. Estimators made by one Pool for one remote share that
// estimate (see Pool); one made by New has it to itself.
type Estimator struct {
	link *link
	// inc is the remote incarnation pend is about (ResetFor).
	inc  int64
	pend sums
	// lastSeq tracks the highest sequence number seen per heartbeat stream.
	lastSeq map[id.Group]uint64
}

// sums is evidence about a link: additive, so batches merge by addition.
type sums struct {
	// loss accounting (decayed counts).
	recv float64
	lost float64
	// delay accounting (decayed sums, in seconds).
	n     float64
	sum   float64
	sumSq float64
}

// link is the estimate of one link: one window and one decay, whoever
// feeds it.
type link struct {
	mu   sync.Mutex
	inc  int64 // guarded by mu; remote incarnation the evidence is about
	sums       // guarded by mu
}

// mergeEvery is how much evidence an estimator gathers before merging it
// into the link's estimate: often enough for the window's fading memory
// (and for the loops sharing a link to see each other's evidence), rarely
// enough that they do not meet on its lock heartbeat by heartbeat.
const mergeEvery = windowSize / 8

// New returns an empty estimator.
func New() *Estimator {
	return &Estimator{link: new(link), lastSeq: make(map[id.Group]uint64)}
}

// Pool is a host's link estimates when several event loops (the shards of
// one process) receive from the same remote processes: each loop has its
// own Estimator, and those for one remote feed and read one estimate. A
// loop serving a twelfth of the groups would otherwise judge the link on a
// twelfth of its heartbeats — a weaker estimate, so a more conservative η
// — and loops judging one link apart ask its sender for different
// intervals. The zero value is ready to use; safe for concurrent use.
type Pool struct {
	mu    sync.Mutex
	links map[id.Process]*link // guarded by mu
}

// New returns a new estimator of the link from remote.
func (p *Pool) New(remote id.Process) *Estimator {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.links[remote]
	if l == nil {
		if p.links == nil {
			p.links = make(map[id.Process]*link)
		}
		l = new(link)
		p.links[remote] = l
	}
	e := New()
	e.link = l
	return e
}

// Reset discards all state, the link's estimate included.
func (e *Estimator) Reset() {
	e.pend = sums{}
	clear(e.lastSeq)
	e.link.mu.Lock()
	e.link.sums = sums{}
	e.link.mu.Unlock()
}

// ResetFor discards what this estimator knows of earlier incarnations of
// the remote process (its sequence numbering restarts with it), and the
// link's estimate unless that is already about incarnation inc: of the
// loops sharing it, the first to hear of a restart resets it, and the
// others do not discard what arrived since.
func (e *Estimator) ResetFor(inc int64) {
	if inc <= e.inc {
		return
	}
	e.inc = inc
	e.pend = sums{}
	clear(e.lastSeq)
	e.merge()
}

// Observe records the arrival of heartbeat seq on the given stream with the
// measured one-way delay. Sequence gaps count as losses; duplicates and
// reordered arrivals are counted as received without reopening past gaps
// (a late message we already counted lost slightly overestimates pL, the
// conservative direction for the configurator).
func (e *Estimator) Observe(stream id.Group, seq uint64, delay time.Duration) {
	if delay < 0 {
		// Clock skew on real networks can produce slightly negative
		// timestamps; treat as an instantaneous delivery.
		delay = 0
	}
	last, seen := e.lastSeq[stream]
	switch {
	case !seen:
		e.lastSeq[stream] = seq
	case seq > last:
		gap := float64(seq - last - 1)
		// A burst of losses larger than the window carries no more
		// information than "the link is terrible"; cap it so a single
		// outage cannot dominate the decayed counters forever.
		if gap > windowSize/2 {
			gap = windowSize / 2
		}
		e.pend.lost += gap
		e.lastSeq[stream] = seq
	default:
		// Duplicate or reordered: already accounted as lost; fall through
		// so the success still improves the loss estimate and the delay
		// sample is still used.
	}
	e.pend.recv++
	d := delay.Seconds()
	e.pend.n++
	e.pend.sum += d
	e.pend.sumSq += d * d
	if e.pend.recv+e.pend.lost >= mergeEvery {
		e.merge()
	}
}

// merge moves the pending evidence into the link's estimate — unless a
// loop sharing the link has since heard of a newer incarnation than this
// evidence is about — and returns the estimate's evidence.
func (e *Estimator) merge() sums {
	l := e.link
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.inc > l.inc {
		l.inc, l.sums = e.inc, sums{}
	}
	if e.inc == l.inc {
		l.recv += e.pend.recv
		l.lost += e.pend.lost
		l.n += e.pend.n
		l.sum += e.pend.sum
		l.sumSq += e.pend.sumSq
		l.decay()
	}
	e.pend = sums{}
	return l.sums
}

// decay halves all accumulators once a window of samples accumulates,
// giving the estimate an exponentially fading memory.
func (l *link) decay() {
	if l.recv+l.lost > windowSize {
		l.recv /= 2
		l.lost /= 2
	}
	if l.n > windowSize {
		l.n /= 2
		l.sum /= 2
		l.sumSq /= 2
	}
}

// Snapshot returns the current estimate, falling back to the defaults until
// minSamples observations have arrived.
func (e *Estimator) Snapshot() Stats {
	s := e.merge()
	if s.n < minSamples {
		return DefaultStats()
	}
	mean := s.sum / s.n
	variance := s.sumSq/s.n - mean*mean
	if variance < 0 {
		variance = 0
	}
	// Loss is estimated with two pseudo-losses added (a conservative upper
	// bound in the spirit of the Wilson interval): a young estimator that
	// happened to see no gaps must not report a lossless link — the
	// configurator would instantly relax to its most aggressive parameters
	// and void the QoS until reality catches up. With a full window of
	// evidence the two pseudo-counts are negligible (2/2000 = 0.1%).
	loss := (s.lost + 2) / (s.recv + s.lost + 2)
	return Stats{
		Loss:      loss,
		MeanDelay: time.Duration(mean * float64(time.Second)),
		StdDelay:  time.Duration(math.Sqrt(variance) * float64(time.Second)),
		Samples:   s.n,
	}
}
