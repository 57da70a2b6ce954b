// Package metrics computes the leader election QoS metrics of Section 5 of
// the paper from an experiment's ground truth:
//
//   - Tr, the leader recovery time: how long a group stays leaderless after
//     its common leader crashes;
//   - λu, the average mistake rate: unjustified demotions (a functional
//     leader losing common leadership) per hour;
//   - Pleader, the leader availability: the fraction of time at which some
//     alive process ℓ is the leader of every alive process in the group.
//
// The Observer consumes a time-ordered stream of events — process up/down
// transitions from the fault injector and per-process leader view changes
// from the service's interrupt callbacks — and integrates the "group has a
// leader" predicate exactly as the paper defines it: at time t the group
// has a leader iff there is an alive process ℓ such that every alive
// process's current view names ℓ.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"stableleader/id"
)

// view is one process's current leader opinion. Views name a specific
// incarnation: trusting a previous lifetime of a process is not the same as
// trusting its current one.
type view struct {
	leader id.Process
	inc    int64
	ok     bool
}

// Observer integrates the QoS metrics online.
type Observer struct {
	group id.Group
	from  time.Time // accounting starts here (warm-up excluded)
	last  time.Time // time of the previous event

	// up is every process whose service instance is running; joined is the
	// subset whose join has completed (first leader answer, or the host
	// force-joins after a bounded grace). The availability predicate
	// quantifies over joined processes — a process still executing the join
	// protocol is not yet "in the group" — but a leader only needs to be
	// up, not joined, to count as operational.
	up     map[id.Process]bool
	joined map[id.Process]bool
	views  map[id.Process]view
	// curInc is the incarnation currently running for each up process.
	curInc map[id.Process]int64

	// derived state
	hasLeader bool
	leader    id.Process
	leaderInc int64

	// accumulators
	leaderTime time.Duration
	total      time.Duration

	// leader recovery (Tr)
	trPending   bool
	trCrashedAt time.Time
	trSamples   welford
	trAll       []time.Duration

	// leaderless windows: every maximal interval without a common leader,
	// whatever the cause (crash, graceful departure, demotion churn),
	// clipped to the accounting window. The distribution separates planned
	// handovers (near-zero windows) from reactive failovers (detection-time
	// windows) in a way the Tr mean — crash recoveries only — cannot.
	llOpen    bool
	llStart   time.Time
	llWindows []time.Duration

	// dualTime integrates the time during which two or more up processes
	// simultaneously considered themselves leader (at their current
	// incarnations) — the split-brain exposure of the run.
	dualTime time.Duration

	// unjustified demotions (λu)
	lastCommon        id.Process
	lastCommonInc     int64
	lastCommonValid   bool
	lastCommonCrashed bool
	demotions         int64
	leaderChanges     int64
}

// NewObserver starts observing a group. Accounting of time-based metrics
// begins at from; events before from still update state (so the predicate
// is correct at from) but do not accumulate.
func NewObserver(group id.Group, from time.Time) *Observer {
	return &Observer{
		group:  group,
		from:   from,
		last:   from,
		up:     make(map[id.Process]bool),
		joined: make(map[id.Process]bool),
		views:  make(map[id.Process]view),
		curInc: make(map[id.Process]int64),
	}
}

// advance integrates the current predicate value up to t.
func (o *Observer) advance(t time.Time) {
	if t.Before(o.from) {
		return
	}
	start := o.last
	if start.Before(o.from) {
		start = o.from
	}
	if d := t.Sub(start); d > 0 {
		o.total += d
		if o.hasLeader {
			o.leaderTime += d
		}
		// advance always runs before the event mutates state, so the
		// current views describe the whole (start, t] interval.
		if o.selfLeaders() >= 2 {
			o.dualTime += d
		}
	}
	if t.After(o.last) {
		o.last = t
	}
}

// selfLeaders counts up processes that currently consider themselves the
// leader at their own running incarnation.
func (o *Observer) selfLeaders() int {
	n := 0
	for p := range o.up {
		v := o.views[p]
		if v.ok && v.leader == p && v.inc == o.curInc[p] {
			n++
		}
	}
	return n
}

// NodeUp records that p's service instance started (or recovered) at t
// with the given incarnation. The process counts as operational (it may be
// elected) but is not yet in the availability predicate until its join
// completes.
func (o *Observer) NodeUp(t time.Time, p id.Process, incarnation int64) {
	o.advance(t)
	o.up[p] = true
	o.joined[p] = false
	o.views[p] = view{}
	o.curInc[p] = incarnation
	o.refresh(t, false)
}

// MarkJoined records that p's join protocol completed (the host bounds the
// join duration; a leaderless group cannot hide behind joining forever).
func (o *Observer) MarkJoined(t time.Time, p id.Process) {
	o.advance(t)
	if !o.up[p] || o.joined[p] {
		return
	}
	o.joined[p] = true
	o.refresh(t, false)
}

// NodeDown records that p crashed at t.
func (o *Observer) NodeDown(t time.Time, p id.Process) {
	o.advance(t)
	crashedLeader := o.hasLeader && o.leader == p
	delete(o.up, p)
	delete(o.joined, p)
	delete(o.views, p)
	delete(o.curInc, p)
	if o.lastCommonValid && o.lastCommon == p {
		o.lastCommonCrashed = true
	}
	o.refresh(t, false)
	if crashedLeader && !o.hasLeader && !t.Before(o.from) {
		// The common leader crashed: the recovery clock starts now.
		o.trPending = true
		o.trCrashedAt = t
	}
}

// NodeLeft records a voluntary departure: the process is no longer part of
// the group predicate and its displacement does not count as a mistake.
func (o *Observer) NodeLeft(t time.Time, p id.Process) {
	o.advance(t)
	delete(o.up, p)
	delete(o.joined, p)
	delete(o.views, p)
	delete(o.curInc, p)
	if o.lastCommonValid && o.lastCommon == p {
		// Leaving is voluntary: a successor is not a demotion mistake.
		o.lastCommonCrashed = true
	}
	o.refresh(t, false)
}

// LeaderView records that process p's local view changed at t, naming a
// specific leader incarnation. The first elected view completes p's join.
func (o *Observer) LeaderView(t time.Time, p id.Process, leader id.Process, leaderInc int64, ok bool) {
	o.advance(t)
	if !o.up[p] {
		return
	}
	o.views[p] = view{leader: leader, inc: leaderInc, ok: ok}
	if ok {
		o.joined[p] = true
	}
	o.refresh(t, true)
}

// refresh recomputes the group predicate and handles transitions.
func (o *Observer) refresh(t time.Time, countChange bool) {
	had, prev, prevInc := o.hasLeader, o.leader, o.leaderInc
	o.hasLeader, o.leader, o.leaderInc = o.evaluate()
	if had && !o.hasLeader {
		o.llOpen, o.llStart = true, t
	}
	if !had && o.hasLeader {
		o.closeLeaderlessWindow(t)
		o.established(t)
	}
	if countChange && had && o.hasLeader && (prev != o.leader || prevInc != o.leaderInc) {
		// Direct switch without a leaderless gap (possible when the last
		// disagreeing process flips): still an establishment of a new
		// common leader.
		o.established(t)
	}
}

// evaluate applies the paper's predicate to the current state: some alive
// process ℓ is the leader in the view of every joined alive process. Views
// must agree on ℓ's incarnation, and that incarnation must be the one
// currently running — trusting a dead lifetime of ℓ does not make the group
// led.
func (o *Observer) evaluate() (bool, id.Process, int64) {
	var leader id.Process
	var leaderInc int64
	members := 0
	for p := range o.up {
		if !o.joined[p] {
			continue
		}
		v := o.views[p]
		if !v.ok {
			return false, "", 0
		}
		if members == 0 {
			leader, leaderInc = v.leader, v.inc
		} else if v.leader != leader || v.inc != leaderInc {
			return false, "", 0
		}
		members++
	}
	if members == 0 || !o.up[leader] || o.curInc[leader] != leaderInc {
		return false, "", 0
	}
	return true, leader, leaderInc
}

// closeLeaderlessWindow records the leaderless interval ending at t,
// clipped to the accounting window.
func (o *Observer) closeLeaderlessWindow(t time.Time) {
	if !o.llOpen {
		return
	}
	o.llOpen = false
	if t.Before(o.from) {
		return
	}
	start := o.llStart
	if start.Before(o.from) {
		start = o.from
	}
	if d := t.Sub(start); d > 0 {
		o.llWindows = append(o.llWindows, d)
	}
}

// established handles the moment a common alive leader exists (again).
func (o *Observer) established(t time.Time) {
	if t.Before(o.from) {
		o.lastCommon, o.lastCommonInc, o.lastCommonValid = o.leader, o.leaderInc, true
		o.lastCommonCrashed = false
		return
	}
	if o.trPending {
		o.trPending = false
		d := t.Sub(o.trCrashedAt)
		o.trSamples.add(d.Seconds())
		o.trAll = append(o.trAll, d)
	}
	if o.lastCommonValid && (o.leader != o.lastCommon || o.leaderInc != o.lastCommonInc) {
		o.leaderChanges++
		// Unjustified only if the demoted leader's very incarnation is
		// still running: a leader that crashed and restarted lost its
		// leadership because of the crash, however fast it came back.
		if !o.lastCommonCrashed && o.up[o.lastCommon] && o.curInc[o.lastCommon] == o.lastCommonInc {
			o.demotions++
		}
	}
	o.lastCommon, o.lastCommonInc, o.lastCommonValid = o.leader, o.leaderInc, true
	o.lastCommonCrashed = false
}

// Report is the final metric set of one experiment.
type Report struct {
	// Group identifies the observed group.
	Group id.Group
	// Duration is the accounted observation window.
	Duration time.Duration
	// Pleader is the leader availability in [0, 1].
	Pleader float64
	// TrMean is the average leader recovery time; TrCI95 its 95% CI
	// half-width; TrSamples the number of leader crashes measured.
	TrMean    time.Duration
	TrCI95    time.Duration
	TrSamples int64
	// Tr holds the individual recovery samples.
	Tr []time.Duration
	// MistakesPerHour is λu; MistakesCI95 its 95% CI half-width;
	// Demotions the raw unjustified demotion count.
	MistakesPerHour float64
	MistakesCI95    float64
	Demotions       int64
	// LeaderChanges counts all common-leader successions (justified or not).
	LeaderChanges int64
	// Leaderless holds every leaderless-window sample — each maximal
	// interval without a common leader, whatever the cause — and
	// LeaderlessP50/LeaderlessP99 its percentiles (zero with no samples).
	Leaderless    []time.Duration
	LeaderlessP50 time.Duration
	LeaderlessP99 time.Duration
	// DualLeaderTime is the integrated time during which two or more up
	// processes considered themselves leader simultaneously — the run's
	// split-brain exposure. Zero in every correct execution that keeps
	// agreement; the partition/skew scenarios assert on it.
	DualLeaderTime time.Duration
}

// percentile returns the q-quantile (0 < q ≤ 1) of sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Finish closes the observation window at end and returns the report.
func (o *Observer) Finish(end time.Time) Report {
	o.advance(end)
	o.closeLeaderlessWindow(end)
	r := Report{
		Group:          o.group,
		Duration:       o.total,
		TrSamples:      o.trSamples.n,
		Tr:             append([]time.Duration(nil), o.trAll...),
		Demotions:      o.demotions,
		LeaderChanges:  o.leaderChanges,
		Leaderless:     append([]time.Duration(nil), o.llWindows...),
		DualLeaderTime: o.dualTime,
	}
	if len(r.Leaderless) > 0 {
		sorted := append([]time.Duration(nil), r.Leaderless...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		r.LeaderlessP50 = percentile(sorted, 0.50)
		r.LeaderlessP99 = percentile(sorted, 0.99)
	}
	if o.total > 0 {
		r.Pleader = float64(o.leaderTime) / float64(o.total)
	}
	if o.trSamples.n > 0 {
		r.TrMean = time.Duration(o.trSamples.mean * float64(time.Second))
		r.TrCI95 = time.Duration(o.trSamples.ci95() * float64(time.Second))
	}
	hours := o.total.Hours()
	if hours > 0 {
		r.MistakesPerHour = float64(o.demotions) / hours
		r.MistakesCI95 = poissonRateCI95(o.demotions, hours)
	}
	return r
}

// String renders the headline numbers.
func (r Report) String() string {
	return fmt.Sprintf("group=%s Pleader=%.4f%% Tr=%v±%v (n=%d) λu=%.2f±%.2f/h demotions=%d changes=%d over %v",
		r.Group, 100*r.Pleader, r.TrMean, r.TrCI95, r.TrSamples,
		r.MistakesPerHour, r.MistakesCI95, r.Demotions, r.LeaderChanges, r.Duration)
}

// welford accumulates a streaming mean and variance (Welford's online
// algorithm). The zero value is an empty accumulator.
type welford struct {
	n    int64
	mean float64
	m2   float64
}

// add incorporates one observation.
func (w *welford) add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// variance is the unbiased sample variance, 0 for fewer than two samples.
func (w *welford) variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// ci95 is the half-width of the 95% confidence interval for the mean, 0
// for fewer than two samples.
func (w *welford) ci95() float64 {
	if w.n < 2 {
		return 0
	}
	return tCritical95(w.n-1) * math.Sqrt(w.variance()) / math.Sqrt(float64(w.n))
}

// tTable holds two-sided 95% Student-t critical values for 1..30 degrees of
// freedom; beyond 30 the normal value 1.96 is a standard approximation.
var tTable = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCritical95 is the two-sided 95% Student-t critical value for df degrees
// of freedom.
func tCritical95(df int64) float64 {
	switch {
	case df <= 0:
		return math.NaN()
	case df <= int64(len(tTable)):
		return tTable[df-1]
	default:
		return 1.96
	}
}

// poissonRateCI95 is the half-width of an approximate 95% confidence
// interval for an event rate, given count events over exposure (in the
// rate's time unit): the normal approximation 1.96·√count/exposure, the
// standard interval for the paper's mistake rate.
func poissonRateCI95(count int64, exposure float64) float64 {
	if exposure <= 0 {
		return math.NaN()
	}
	return 1.96 * math.Sqrt(float64(count)) / exposure
}
