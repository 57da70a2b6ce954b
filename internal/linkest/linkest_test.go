package linkest

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"stableleader/id"
)

func TestDefaultsBeforeEvidence(t *testing.T) {
	e := New()
	got := e.Snapshot()
	want := DefaultStats()
	if got != want {
		t.Errorf("fresh estimator snapshot = %+v, want defaults %+v", got, want)
	}
	// A handful of samples below the threshold still returns defaults.
	for i := 1; i <= minSamples-1; i++ {
		e.Observe("g", uint64(i), time.Millisecond)
	}
	if e.Snapshot() != want {
		t.Error("estimator trusted itself before minSamples observations")
	}
}

func TestDelayEstimation(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(1))
	mean := 20 * time.Millisecond
	for i := 1; i <= 1000; i++ {
		d := time.Duration(rng.ExpFloat64() * float64(mean))
		e.Observe("g", uint64(i), d)
	}
	s := e.Snapshot()
	if math.Abs(float64(s.MeanDelay-mean)) > 0.1*float64(mean) {
		t.Errorf("MeanDelay = %v, want %v ± 10%%", s.MeanDelay, mean)
	}
	// Exponential: std == mean.
	if math.Abs(float64(s.StdDelay-mean)) > 0.15*float64(mean) {
		t.Errorf("StdDelay = %v, want ≈ %v", s.StdDelay, mean)
	}
	if s.Loss > 0.01 {
		t.Errorf("no gaps were introduced but Loss = %g (only the conservative prior should remain)", s.Loss)
	}
}

func TestLossFromSequenceGaps(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(2))
	// Drop 30% of a consecutive heartbeat stream.
	for i := 1; i <= 5000; i++ {
		if rng.Float64() < 0.3 {
			continue
		}
		e.Observe("g", uint64(i), time.Millisecond)
	}
	s := e.Snapshot()
	if math.Abs(s.Loss-0.3) > 0.03 {
		t.Errorf("Loss = %.3f, want 0.30 ± 0.03", s.Loss)
	}
}

func TestReorderDoesNotReopenGaps(t *testing.T) {
	e := New()
	// 1, 2, 5 (gap of 2), then the late 3 and 4 arrive.
	for _, seq := range []uint64{1, 2, 5, 3, 4} {
		e.Observe("g", seq, time.Millisecond)
	}
	for i := uint64(6); i < 200; i++ {
		e.Observe("g", i, time.Millisecond)
	}
	s := e.Snapshot()
	// 2 gap losses, ~200 receptions: estimate near 1%; critically, the
	// late arrivals must not have counted extra losses.
	if s.Loss > 0.02 {
		t.Errorf("Loss = %.4f after reordering, want ≈ 0.01", s.Loss)
	}
}

func TestStreamsAreIndependent(t *testing.T) {
	e := New()
	// Interleave two groups' heartbeat streams over the same link; each is
	// consecutive in its own numbering, so no losses should be inferred.
	for i := 1; i <= 500; i++ {
		e.Observe("g1", uint64(i), time.Millisecond)
		e.Observe("g2", uint64(i), time.Millisecond)
	}
	if s := e.Snapshot(); s.Loss > 0.01 {
		t.Errorf("interleaved streams produced phantom loss %.4f", s.Loss)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New()
	for i := 1; i <= 100; i++ {
		e.Observe("g", uint64(i), -time.Millisecond)
	}
	s := e.Snapshot()
	if s.MeanDelay != 0 {
		t.Errorf("negative delays should clamp to 0, got %v", s.MeanDelay)
	}
}

func TestBurstLossCapped(t *testing.T) {
	e := New()
	e.Observe("g", 1, time.Millisecond)
	// A giant sequence jump (e.g. estimator restarted mid-stream) must not
	// poison the estimate forever.
	e.Observe("g", 1<<30, time.Millisecond)
	for i := uint64(1<<30 + 1); i < 1<<30+3000; i++ {
		e.Observe("g", i, time.Millisecond)
	}
	if s := e.Snapshot(); s.Loss > 0.30 {
		t.Errorf("Loss = %.3f long after a burst, want decayed below 0.30", s.Loss)
	}
}

func TestAdaptsToChange(t *testing.T) {
	e := New()
	seq := uint64(0)
	// A long period of terrible 50% loss...
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		seq++
		if rng.Float64() < 0.5 {
			continue
		}
		e.Observe("g", seq, 50*time.Millisecond)
	}
	if s := e.Snapshot(); s.Loss < 0.4 {
		t.Fatalf("setup failed: Loss = %.3f", s.Loss)
	}
	// ...then the network heals. The decayed window must converge.
	for i := 0; i < 20000; i++ {
		seq++
		e.Observe("g", seq, time.Millisecond)
	}
	s := e.Snapshot()
	if s.Loss > 0.01 {
		t.Errorf("Loss = %.4f after healing, want < 0.01", s.Loss)
	}
	if s.MeanDelay > 2*time.Millisecond {
		t.Errorf("MeanDelay = %v after healing, want ≈ 1ms", s.MeanDelay)
	}
}

func TestReset(t *testing.T) {
	e := New()
	for i := 1; i <= 100; i++ {
		e.Observe("g", uint64(i), time.Millisecond)
	}
	e.Reset()
	if e.Snapshot() != DefaultStats() {
		t.Error("Reset should return the estimator to defaults")
	}
	// After reset a fresh stream restarting at seq 1 must not count a gap.
	for i := 1; i <= 100; i++ {
		e.Observe("g", uint64(i), time.Millisecond)
	}
	if s := e.Snapshot(); s.Loss > 0.03 {
		t.Errorf("post-reset stream inferred loss %.4f beyond the prior", s.Loss)
	}
}

func TestSamplesReported(t *testing.T) {
	e := New()
	for i := 1; i <= 50; i++ {
		e.Observe("g", uint64(i), time.Millisecond)
	}
	if s := e.Snapshot(); s.Samples < 49 {
		t.Errorf("Samples = %g, want ≈ 50", s.Samples)
	}
}

// TestLossPriorIsConservative pins the regression found by the stability
// sweep: a young estimator that has seen a handful of gap-free heartbeats
// must NOT report a (near-)lossless link — on a genuinely lossy link that
// snap judgement let the FD configurator relax to parameters that could
// not deliver the promised mistake rate.
func TestLossPriorIsConservative(t *testing.T) {
	e := New()
	for i := 1; i <= minSamples+2; i++ {
		e.Observe("g", uint64(i), time.Millisecond)
	}
	if s := e.Snapshot(); s.Loss < 0.05 {
		t.Errorf("Loss = %.4f after %d gap-free samples; want a conservative estimate until evidence accumulates", s.Loss, minSamples+2)
	}
	// With a full window of evidence the prior must wash out.
	for i := minSamples + 3; i <= 2500; i++ {
		e.Observe("g", uint64(i), time.Millisecond)
	}
	if s := e.Snapshot(); s.Loss > 0.005 {
		t.Errorf("Loss = %.4f after 2500 gap-free samples; the prior should have washed out", s.Loss)
	}
}

// TestPoolSharesOneEstimate: the estimators a Pool hands out for one
// remote process each take their own observations and report one estimate
// — the one a single estimator fed everything would report — reset once
// per incarnation, while another remote's stays apart.
func TestPoolSharesOneEstimate(t *testing.T) {
	var pool Pool
	a, b := pool.New("p"), pool.New("p")
	whole := New()
	for seq := uint64(1); seq <= 300; seq++ {
		e, stream, delay := a, id.Group("ga"), 2*time.Millisecond
		if seq%3 == 0 {
			e, stream, delay = b, "gb", 5*time.Millisecond
		}
		if seq%50 == 0 {
			continue // a loss on whichever stream this was
		}
		e.Observe(stream, seq, delay)
		whole.Observe(stream, seq, delay)
	}
	a.Snapshot() // merges what a still holds
	want := whole.Snapshot()
	// Sums merged batch by batch round differently from sums taken in
	// arrival order, so the delays may differ in their last digits.
	near := func(x, y time.Duration) bool { return (x - y).Abs() < time.Microsecond }
	if got := b.Snapshot(); got.Loss != want.Loss || got.Samples != want.Samples || !near(got.MeanDelay, want.MeanDelay) || !near(got.StdDelay, want.StdDelay) {
		t.Errorf("the pooled estimate is %+v, a single estimator fed the same heartbeats reports %+v", got, want)
	}
	if got := pool.New("q").Snapshot(); got != DefaultStats() {
		t.Errorf("another remote's estimator reports %+v, want the defaults", got)
	}
	// The first loop to hear of incarnation 7 resets the estimate; the
	// second, later, must not discard what arrived in between.
	a.ResetFor(7)
	for seq := uint64(1); seq <= 20; seq++ {
		a.Observe("ga", seq, time.Millisecond)
	}
	a.Snapshot()
	b.ResetFor(7)
	if got := b.Snapshot().Samples; got != 20 {
		t.Errorf("%v samples after the second loop's reset for the same incarnation, want 20", got)
	}
}

// TestSilentStreamsEvidenceFades: a loop whose streams stop (its groups
// left, leadership moved away) right after a lossy spell leaves its
// evidence in the shared window, where the other loops' heartbeats fade it.
func TestSilentStreamsEvidenceFades(t *testing.T) {
	var pool Pool
	lossy, clean := pool.New("p"), pool.New("p")
	for seq := uint64(1); seq <= 800; seq += 2 { // every other heartbeat lost
		lossy.Observe("ga", seq, time.Millisecond)
	}
	if got := lossy.Snapshot().Loss; got < 0.4 {
		t.Fatalf("Loss = %.3f after a 50 %% lossy spell", got)
	}
	for seq := uint64(1); seq <= 8*windowSize; seq++ {
		clean.Observe("gb", seq, time.Millisecond)
	}
	if got := clean.Snapshot().Loss; got > 0.02 {
		t.Errorf("Loss = %.3f eight windows after the lossy streams went silent, want it faded below 2 %%", got)
	}
}

// TestEstimatorsOfOneLinkRace: four goroutines, as the shards of a process
// do, each observing through its own estimator of one link and taking
// snapshots (run under -race).
func TestEstimatorsOfOneLinkRace(t *testing.T) {
	var pool Pool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := pool.New("p")
			for seq := uint64(1); seq <= 5000; seq++ {
				e.Observe("g", seq, time.Duration(i)*time.Millisecond)
				if seq%100 == 0 {
					_ = e.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	if got := pool.New("p").Snapshot(); got.Samples < windowSize/2 || got.Loss > 0.01 {
		t.Errorf("after 20000 gap-free heartbeats from four loops: %+v", got)
	}
}
