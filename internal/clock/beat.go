package clock

import "time"

// BeatStep is the quantum periodic work is timed in: NextBeat rounds a
// period down to a whole number of steps. One millisecond is the timer
// wheel's tick — the hosts cannot time finer anyway — and costs a stream
// at most 1 ms in 1/rate, under 1 % at the protocol's η ≥ 100 ms.
const BeatStep = time.Millisecond

// NextBeat returns when work of period iv is next due after now, on the
// beat grid: the period is iv rounded down to whole BeatSteps, and the due
// time the next multiple of that period counted from the wall clock's
// epoch, so now < due ≤ now+iv. The grid is a pure function of the clock:
// every periodic duty of equal period — every heartbeat stream of every
// group toward every peer, every monitor's reconfiguration, on every event
// loop, and on every node whose clock is synchronised — comes due at the
// same instants without sharing any state, and one wake-up serves them
// all. Snapping down is what makes that safe: work on the grid is never
// later than a free-running schedule would have made it.
func NextBeat(now time.Time, iv time.Duration) time.Time {
	period := iv
	if iv >= BeatStep {
		period = iv - iv%BeatStep
	}
	if period <= 0 {
		period = 1
	}
	ns := now.UnixNano() % int64(period)
	if ns < 0 {
		ns += int64(period) // a clock before 1970 still gets a grid
	}
	return now.Add(period - time.Duration(ns))
}
