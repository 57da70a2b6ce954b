// Command bench is this repository's benchmark: five workloads that run real
// Services over real loopback UDP on the wall clock, the end-to-end metrics a
// user of the election service would see, and a per-layer budget taken by
// timing calls into each module. See README.md in this directory.
//
//	go run ./bench -workload all -seed 1 -out r.json   # every metric, checked
//	go run ./bench -workload steady -trace 1           # the per-layer run
//	go run ./bench -compare A.json B.json              # regression check
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics, which is what BENCHMARK.json's driver reads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runOpts is what every workload gets from the command line.
type runOpts struct {
	seed    int64
	measure time.Duration
	// traced selects the per-layer run: spans are recorded around the
	// benchmark's own calls and the layer metrics are taken.
	traced bool
	tr     *tracer
	outDir string
}

// fullRun is the measured time the fixed phases (warm-up, drain limits)
// were sized for; shorter runs, like the smoke test's, scale them down.
const fullRun = 12 * time.Second

// scale shrinks a fixed phase in proportion for runs shorter than fullRun.
func (o *runOpts) scale(d time.Duration) time.Duration {
	if o.measure >= fullRun {
		return d
	}
	return time.Duration(float64(d) * float64(o.measure) / float64(fullRun))
}

// instance is one set-up copy of a workload, ready to be measured.
type instance interface {
	measure(ctx context.Context, r *result) error
	close(ctx context.Context)
}

type workload struct {
	name  string
	why   string
	setup func(ctx context.Context, o *runOpts) (instance, error)
}

var workloads = []workload{
	{wlSteady, "6 Services, 48 groups, no faults: per-wakeup cost and the paper's lightweight/availability claims", setupSteady},
	{wlFailover, "depose and crash the leader: time without a leader, set by the failure detector and one urgent message", setupFailover},
	{wlFloodCoalesced, "one Service saturated with 16-ALIVE batch datagrams: decode and protocol handlers dominate", setupFlood(wlFloodCoalesced, 16)},
	{wlFloodBare, "one Service saturated with one-ALIVE datagrams: receive syscall, steering and ring hop dominate", setupFlood(wlFloodBare, 1)},
	{wlClientFanout, "8000 client leases told of each leader change: the send side (subs, outbound, marshal, sendmmsg)", setupFanout},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// setupRepeats is how often an untraced run sets its workload up; setup_s
// is the median, so one slow bind or election does not decide it.
const setupRepeats = 3

// runWorkload sets w up the given number of times, measures the last copy
// and tears everything down.
func runWorkload(ctx context.Context, w *workload, o *runOpts, setups int) (*result, error) {
	r := newResult(w.name, o.seed)
	var took []float64
	var inst instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close(ctx)
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(ctx, o); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	defer inst.close(ctx)
	r.Metrics["setup_s"] = median(took)
	if err := inst.measure(ctx, r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return r, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Int64("seed", 1, "seed for everything the benchmark generates")
		seconds = fs.Float64("seconds", fullRun.Seconds(), "measured time per workload")
		trace   = fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
		out     = fs.String("out", "", "append the full results of this run to this JSON file")
		outDir  = fs.String("outdir", "bench-out", "directory for bench-trace.json and flight dumps")
		compare = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
		mani    = fs.Bool("manifest", false, "print BENCHMARK.json as the program defines it and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *mani {
		b, err := manifest(int(fullRun.Seconds()))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		os.Stdout.Write(b)
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two result files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	o := &runOpts{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace != 0,
		outDir:  *outDir,
	}
	ctx := context.Background()

	selected := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{*w}
	}
	var results []*result
	var err error
	if o.traced {
		results, err = runTraced(ctx, *name, o)
	} else {
		for i := range selected {
			var r *result
			if r, err = runWorkload(ctx, &selected[i], o, setupRepeats); err != nil {
				break
			}
			results = append(results, r)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	for _, r := range results {
		printResult(os.Stdout, r)
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	code := 0
	for _, r := range results {
		if !r.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s: INCORRECT: %v\n", r.Workload, r.Reasons)
			code = 1
		}
	}
	// The driver's line: the workload named on the command line (the last
	// one of "all"), with exactly the metrics BENCHMARK.json lists.
	fmt.Println(driverLine(results[len(results)-1], o.traced))
	return code
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Results []*result `json:"results"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric of one workload by name and unit.
func printResult(w *os.File, r *result) {
	fmt.Fprintf(w, "== %s  seed=%d  measured=%.1fs  attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		unit := unitOf(name)
		n := ""
		if k, ok := r.Samples[name]; ok {
			n = fmt.Sprintf("  (n=%d, too few for ten samples beyond any percentile)", k)
			if sp := supportedPercentile(k); sp > 0 {
				n = fmt.Sprintf("  (n=%d, supports up to p%d)", k, sp)
			}
		}
		fmt.Fprintf(w, "  %-36s %14.4f %s%s\n", name, r.Metrics[name], unit, n)
	}
}
