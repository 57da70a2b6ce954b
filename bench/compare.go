package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readResults loads a result file written by -out.
func readResults(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// appendResults adds results to the file at path, creating it if need be,
// so that repeated invocations build up one set of runs.
func appendResults(path string, results []*result) error {
	rf, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	rf.Results = append(rf.Results, results...)
	return writeJSON(path, rf)
}

// comparedMetrics lists what -compare judges on a workload: the shared
// end-to-end metrics and the workload's own.
func comparedMetrics(workload string) []metricDef {
	defs := append([]metricDef(nil), endToEnd...)
	for _, d := range nativeEndToEnd {
		if d.measuredOn(workload) {
			defs = append(defs, d)
		}
	}
	return defs
}

// verdict judges one metric: base and change are its values over the runs
// of each side. worse is the change's median relative to the base's, signed
// so that positive is worse; spread is the wider of the two sides'
// inter-quartile spreads.
func verdict(d metricDef, base, change []float64) (worse, spread float64, word string) {
	mb, mc := median(base), median(change)
	if mb != 0 {
		worse = (mc - mb) / mb
	}
	if d.Better == "higher" {
		worse = -worse
	}
	spread = max(quartileSpread(base), quartileSpread(change))
	switch {
	case spread > d.Bound && !allBetter(d, base, change):
		// The runs scatter more than the bound: neither "regressed" nor
		// "unchanged" can be claimed.
		return worse, spread, "unresolved"
	case worse > d.Bound:
		return worse, spread, "REGRESSION"
	default:
		return worse, spread, "ok"
	}
}

// allBetter reports whether every run of change reads better than every
// run of base.
func allBetter(d metricDef, base, change []float64) bool {
	for _, c := range change {
		for _, b := range base {
			if (d.Better == "lower" && c >= b) || (d.Better == "higher" && c <= b) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, per workload and metric, both medians, the relative
// difference and the bound, and returns 1 if any metric breached its bound.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err == nil {
		var b resultFile
		if b, err = readResults(pathB); err == nil {
			return compareResults(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareResults(w io.Writer, a, b resultFile) int {
	collect := func(rf resultFile, workload, metric string) (vals []float64, failed int64) {
		for _, r := range rf.Results {
			if r.Workload != workload {
				continue
			}
			failed += r.Failed
			if v, ok := r.Metrics[metric]; ok {
				vals = append(vals, v)
			}
		}
		return vals, failed
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-24s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range comparedMetrics(wl.name) {
			va, failedA := collect(a, wl.name, d.Name)
			vb, failedB := collect(b, wl.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, spread, word := verdict(d, va, vb)
			if word == "REGRESSION" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-24s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%%  %s (n=%d,%d)\n",
				wl.name, d.Name, median(va), median(vb), 100*worse, 100*spread, 100*d.Bound, word, len(va), len(vb))
			if d.Name == endToEnd[0].Name && failedB > failedA {
				fmt.Fprintf(w, "%-16s %-24s %14d %14d  more failed operations: REGRESSION\n",
					wl.name, "failed", failedA, failedB)
				code = 1
			}
		}
	}
	return code
}
