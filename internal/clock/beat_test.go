package clock

import (
	"math/rand"
	"testing"
	"time"
)

// TestNextBeatProperties: the grid contract, on random instants and
// intervals — due strictly after now and no later than one interval on, a
// pure function of its inputs, landing on a multiple of the quantised
// period counted from the epoch, and stepping from one grid point exactly
// one period to the next.
func TestNextBeatProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 100000; i++ {
		now := base.Add(time.Duration(rng.Int63n(int64(30 * 24 * time.Hour))))
		var iv time.Duration
		switch i % 3 {
		case 0:
			iv = time.Duration(1 + rng.Int63n(int64(2*time.Millisecond))) // around and below one step
		case 1:
			iv = time.Duration(1 + rng.Int63n(int64(time.Second)))
		default:
			iv = time.Duration(1+rng.Int63n(10000)) * time.Millisecond
		}
		due := NextBeat(now, iv)
		if !due.After(now) || due.After(now.Add(iv)) {
			t.Fatalf("NextBeat(%v, %v) = %v, want in (now, now+iv]", now, iv, due)
		}
		if again := NextBeat(now, iv); !again.Equal(due) {
			t.Fatalf("NextBeat(%v, %v) gave %v then %v", now, iv, due, again)
		}
		period := iv
		if iv >= BeatStep {
			period = iv - iv%BeatStep
		}
		if r := due.UnixNano() % int64(period); r != 0 {
			t.Fatalf("NextBeat(%v, %v) = %v is %dns off the %v grid", now, iv, due, r, period)
		}
		// Everything between two grid points is due at the second, and from
		// a grid point the next beat is exactly one period on.
		if mid := due.Add(-1); mid.After(now) && !NextBeat(mid, iv).Equal(due) {
			t.Fatalf("NextBeat(%v, %v) = %v but from 1ns before that it is %v", now, iv, due, NextBeat(mid, iv))
		}
		if next := NextBeat(due, iv); next.Sub(due) != period {
			t.Fatalf("from grid point %v the next beat of %v is %v on, want the period %v", due, iv, next.Sub(due), period)
		}
	}
}

// TestNextBeatKeepsTheMonotonicReading: the due time is derived from now
// by addition, so on a real clock it carries now's monotonic reading and a
// wall-clock step between arming and firing does not move the timer.
func TestNextBeatKeepsTheMonotonicReading(t *testing.T) {
	now := time.Now()
	due := NextBeat(now, 100*time.Millisecond)
	if due.Round(0) == due { // Round(0) strips the monotonic reading; equal means there was none
		t.Fatalf("NextBeat dropped the monotonic clock reading: %v", due)
	}
}

// TestNextBeatBeforeTheEpoch: a clock set before 1970 still gets a grid.
func TestNextBeatBeforeTheEpoch(t *testing.T) {
	now := time.Unix(-1000, 123456789)
	due := NextBeat(now, 250*time.Millisecond)
	if !due.After(now) || due.After(now.Add(250*time.Millisecond)) {
		t.Fatalf("NextBeat(%v) = %v", now, due)
	}
}
