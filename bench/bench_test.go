package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload briefly with all its checks on, so tier-1
// exercises the harness. It asserts correctness, not speed: on a loaded
// host a round may miss its limit (that is a failed operation, reported),
// but nothing may be wrong.
func TestSmoke(t *testing.T) {
	measure := 600 * time.Millisecond
	if testing.Short() {
		measure = 300 * time.Millisecond
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			o := &runOpts{seed: 1, measure: measure, outDir: t.TempDir()}
			if w.name == wlFailover {
				o.measure = 2 * crashPeriod // room for one crash round
			}
			r, err := runWorkload(context.Background(), w, o, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct {
				t.Fatalf("incorrect: %v", r.Reasons)
			}
			if r.Attempted == 0 {
				t.Fatal("no operation attempted")
			}
			for _, d := range endToEnd {
				// Zero is possible only because the run is so short that a
				// sampling window can pass without a datagram sent.
				if v, ok := r.Metrics[d.Name]; !ok || math.IsNaN(v) || v < 0 {
					t.Errorf("%s = %v (reported: %v), want a number", d.Name, v, ok)
				}
			}
			for _, d := range nativeEndToEnd {
				if _, ok := r.Metrics[d.Name]; d.measuredOn(w.name) && !ok {
					t.Errorf("%s not reported", d.Name)
				}
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// TestSupportedPercentile pins the "at least ten samples beyond" rule: 50
// crash rounds support p80, 200 handovers p95, 100 fan-outs p90.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{{10, 0}, {19, 0}, {20, 50}, {50, 80}, {100, 90}, {200, 95}, {1000, 99}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestQuartileSpread checks against Python's statistics.quantiles(n=4):
// for 1..10 the quartiles are 2.75 and 8.25 and the median 5.5.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := quartileSpread([]float64{1, 2, 4}), 1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if quartileSpread([]float64{3}) != 0 {
		t.Error("one sample has no spread")
	}
}

func runsOf(workload string, metric string, vals ...float64) []*result {
	var rs []*result
	for _, v := range vals {
		r := newResult(workload, 1)
		r.Metrics[metric] = v
		rs = append(rs, r)
	}
	return rs
}

func TestCompare(t *testing.T) {
	base := resultFile{Results: runsOf(wlFailover, "crash_recovery_ms_p50", 194, 195, 196, 195, 195)}
	for _, c := range []struct {
		name   string
		change []float64
		word   string
		code   int
	}{
		{"unchanged", []float64{195, 196, 194, 195, 195}, "ok", 0},
		{"better", []float64{150, 151, 149, 150, 150}, "ok", 0},
		{"worse than the 5% bound", []float64{215, 216, 214, 215, 215}, "REGRESSION", 1},
		{"too scattered to tell", []float64{150, 260, 190, 230, 170}, "unresolved", 0},
	} {
		var out bytes.Buffer
		code := compareResults(&out, base, resultFile{Results: runsOf(wlFailover, "crash_recovery_ms_p50", c.change...)})
		if code != c.code || !strings.Contains(out.String(), c.word) {
			t.Errorf("%s: exit %d, want %d, output %q should say %q", c.name, code, c.code, out.String(), c.word)
		}
	}
	// A higher-is-better metric regresses downward.
	up := resultFile{Results: runsOf(wlFloodBare, "inbound_msgs_per_s", 500, 501, 499)}
	down := resultFile{Results: runsOf(wlFloodBare, "inbound_msgs_per_s", 400, 401, 399)}
	if code := compareResults(&bytes.Buffer{}, up, down); code != 1 {
		t.Errorf("throughput fell by 20%%: exit %d, want 1", code)
	}
	if code := compareResults(&bytes.Buffer{}, down, up); code != 0 {
		t.Errorf("throughput rose: exit %d, want 0", code)
	}
}

func TestCompareFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for i := 0; i < 2; i++ { // -out appends: two invocations, one set
		if err := appendResults(a, runsOf(wlSteady, "wire_kB_per_node_s", 42)); err != nil {
			t.Fatal(err)
		}
	}
	if err := appendResults(b, runsOf(wlSteady, "wire_kB_per_node_s", 60, 60)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := compareFiles(&out, a, b); code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "(n=2,2)") {
		t.Errorf("want two runs a side:\n%s", out.String())
	}
}

// TestManifest keeps BENCHMARK.json and the program's registry identical,
// and the file inside the limits of the driver's contract.
func TestManifest(t *testing.T) {
	want, err := manifest(int(fullRun.Seconds()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the registry; regenerate it with: go run ./bench -manifest > BENCHMARK.json")
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", n)
	}
	seen := map[string]bool{}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		seen[d.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s must be an end-to-end metric")
	}
	for _, d := range perLayer {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("%s [%s]: name or unit too long", d.Name, d.Unit)
		}
	}
	// Every native end-to-end metric reaches the driver as a per-layer one.
	for _, d := range nativeEndToEnd {
		found := false
		for _, l := range perLayer {
			if l.Name == d.Name || l.Source == d.Name {
				found = true
			}
		}
		if !found {
			t.Errorf("%s is not reported by the traced run", d.Name)
		}
	}
}

func TestDriverLine(t *testing.T) {
	r := newResult(wlSteady, 1)
	for _, d := range endToEnd {
		r.Metrics[d.Name] = 1.5
	}
	r.Metrics["run.msgs_per_node_s"] = 7 // not part of the contract
	var line struct {
		Correct   *bool
		Attempted *int64
		Failed    *int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(driverLine(r, false)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatal(err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
		t.Fatalf("missing keys: %+v", line)
	}
	if len(line.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want exactly the %d end-to-end ones", len(line.Metrics), len(endToEnd))
	}
	var traced struct{ Metrics map[string]any }
	if err := json.Unmarshal([]byte(driverLine(r, true)), &traced); err != nil {
		t.Fatal(err)
	}
	if len(traced.Metrics) != len(perLayer) {
		t.Errorf("traced: %d metrics, want exactly the %d per-layer ones", len(traced.Metrics), len(perLayer))
	}
}
