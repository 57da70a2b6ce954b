package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

// naiveMeanVar is the two-pass reference implementation.
func naiveMeanVar(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs) - 1)
	return mean, variance
}

func TestWelfordEmpty(t *testing.T) {
	var w welford
	if w.n != 0 || w.mean != 0 || w.variance() != 0 || w.ci95() != 0 {
		t.Errorf("zero-value welford should report all zeros, got n=%d mean=%g var=%g", w.n, w.mean, w.variance())
	}
}

func TestWelfordSingleSample(t *testing.T) {
	var w welford
	w.add(42)
	if w.n != 1 || w.mean != 42 {
		t.Errorf("got n=%d mean=%g, want 1, 42", w.n, w.mean)
	}
	if w.variance() != 0 {
		t.Errorf("variance of one sample = %g, want 0", w.variance())
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		// Constrain magnitudes: testing/quick can generate values whose
		// squares overflow, which is out of scope for a delay estimator.
		var w welford
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			clean = append(clean, x)
			w.add(x)
		}
		mean, variance := naiveMeanVar(clean)
		scale := 1.0 + math.Abs(mean)
		if math.Abs(w.mean-mean) > 1e-6*scale {
			return false
		}
		vscale := 1.0 + variance
		return math.Abs(w.variance()-variance) <= 1e-6*vscale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTCritical95(t *testing.T) {
	cases := []struct {
		df   int64
		want float64
	}{
		{1, 12.706},
		{10, 2.228},
		{30, 2.042},
		{31, 1.96},
		{1000, 1.96},
	}
	for _, c := range cases {
		if got := tCritical95(c.df); got != c.want {
			t.Errorf("tCritical95(%d) = %g, want %g", c.df, got, c.want)
		}
	}
	if !math.IsNaN(tCritical95(0)) {
		t.Error("tCritical95(0) should be NaN")
	}
}

func TestCI95KnownValue(t *testing.T) {
	// Five samples 1..5: mean 3, sd sqrt(2.5), CI = t(4)*sd/sqrt(5).
	var w welford
	for i := 1; i <= 5; i++ {
		w.add(float64(i))
	}
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if got := w.ci95(); math.Abs(got-want) > 1e-9 {
		t.Errorf("ci95 = %g, want %g", got, want)
	}
}

func TestPoissonRateCI95(t *testing.T) {
	// 100 events over 10 hours: 1.96*sqrt(100)/10 = 1.96.
	if got := poissonRateCI95(100, 10); math.Abs(got-1.96) > 1e-12 {
		t.Errorf("poissonRateCI95(100, 10) = %g, want 1.96", got)
	}
	if got := poissonRateCI95(0, 10); got != 0 {
		t.Errorf("zero events should have zero CI, got %g", got)
	}
	if !math.IsNaN(poissonRateCI95(5, 0)) {
		t.Error("zero exposure should be NaN")
	}
}
