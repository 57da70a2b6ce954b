package core

import (
	"testing"
	"time"
)

// TestRunPeers walks one peer's capability through a lifetime and a
// restart: runs only once the current incarnation announced, a stale
// announcement changes nothing, a new incarnation clears the capability,
// our own announcement goes to a monitored peer at most once a second
// — and only when two groups in common let its heartbeats form a run —
// and a stranger's announcement is not recorded at all.
func TestRunPeers(t *testing.T) {
	var rp runPeers
	t0 := time.Unix(100, 0)
	check := func(step string, at time.Duration, wantRuns, wantAnnounce bool) {
		t.Helper()
		if runs, announce := rp.leaving("p", t0.Add(at)); runs != wantRuns || announce != wantAnnounce {
			t.Errorf("%s: leaving = (%v, %v), want (%v, %v)", step, runs, announce, wantRuns, wantAnnounce)
		}
	}

	rp.announced("p", 5)
	check("stranger", 0, false, false)
	if len(rp.m) != 0 {
		t.Fatalf("a stranger's announcement was recorded: %v", rp.m)
	}

	rp.monitor("p", 5)
	check("one group in common", 0, false, false)
	rp.monitor("p", 5) // a second group's monitor
	check("two groups in common", 0, false, true)
	check("same second", 999*time.Millisecond, false, false)
	rp.announced("p", 5)
	check("announced", time.Second, true, true)
	rp.announced("p", 4)
	check("stale announcement", 1500*time.Millisecond, true, false)

	// A restart: the new lifetime's monitor replaces the old one's in one
	// group first; the capability goes with the old lifetime.
	rp.unmonitor("p")
	rp.monitor("p", 6)
	check("restarted", 2*time.Second, false, true)
	rp.announced("p", 5)
	check("old lifetime's announcement", 2500*time.Millisecond, false, false)
	rp.announced("p", 6)
	check("new lifetime announced", 2600*time.Millisecond, true, false)

	// One group in common left: we stop announcing, but keep what p
	// told us.
	rp.unmonitor("p")
	check("one group left", 10*time.Second, true, false)
}
