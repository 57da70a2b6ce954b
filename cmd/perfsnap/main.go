// Command perfsnap records the repo's headline micro-benchmarks as a
// machine-readable JSON snapshot, so successive PRs can diff the
// performance trajectory of the hot paths instead of eyeballing bench
// logs. It shells out to `go test -bench` for the benchmark sets named
// below, parses the standard benchmark output, runs the simulated
// failover sweep (leaderless-window percentiles with the planned-handover
// plane on versus off), and writes one JSON file (default BENCH.json, the
// single committed snapshot; git history holds the earlier ones).
//
// Usage:
//
//	go run ./cmd/perfsnap [-out BENCH.json] [-benchtime 1s]
//	go run ./cmd/perfsnap -check BENCH.json [-factor 2] [-benchtime 200ms]
//
// -check is the CI bench-regression smoke: it re-runs the gate
// benchmarks (LeaderQuery, MonitorObserve, Fanout, and the batched UDP
// receive drain) and fails if any is more than -factor times slower
// than the committed snapshot — so a reintroduced hot-path regression
// fails the build instead of drifting until someone profiles.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"stableleader/sim"
)

// suite is one `go test -bench` invocation.
type suite struct {
	Pkg   string // package path relative to the module root
	Bench string // -bench regexp
}

// suites are the hot-path benchmarks worth tracking across PRs: the
// wait-free read plane against its loop-serialised baseline, the failure
// detector's per-heartbeat cost, the timer wheel primitives, the client
// plane's two hot paths — the client-side cached leader read and the
// server-side snapshot fan-out per subscriber — and the sharded runtime's
// concurrent saturation sweep.
var suites = []suite{
	{Pkg: ".", Bench: "LeaderQuery|StatusQuery"},
	{Pkg: "./internal/fd", Bench: "MonitorObserve"},
	{Pkg: "./internal/timerwheel", Bench: "ScheduleRearm|AdvanceSteadyState"},
	{Pkg: "./client", Bench: "ClientLeaderQuery"},
	{Pkg: "./internal/subs", Bench: "Fanout"},
	{Pkg: ".", Bench: "Saturation"},
	{Pkg: "./transport", Bench: "UDPReceive|UDPSaturation|UDPRecvDrain"},
}

// gateSuites are the -check regression gates: the cheapest benchmarks
// guarding the three hottest paths (wait-free reads, FD heartbeat
// observation, client-plane fan-out).
var gateSuites = []suite{
	{Pkg: ".", Bench: "LeaderQuery$"},
	{Pkg: "./internal/fd", Bench: "MonitorObserve$"},
	{Pkg: "./internal/subs", Bench: "Fanout$"},
	{Pkg: "./transport", Bench: "UDPRecvDrain/mode=batched$"},
}

// gateNames are the benchmark names the gates compare.
var gateNames = []string{"LeaderQuery", "MonitorObserve", "Fanout", "UDPRecvDrain/mode=batched"}

// result is one parsed benchmark line.
type result struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// snapshot is the file layout.
type snapshot struct {
	Schema     string             `json:"schema"`
	Generated  string             `json:"generated"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	NumCPU     int                `json:"num_cpu"`
	Benchmarks []result           `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived"`
}

func main() {
	out := flag.String("out", "BENCH.json", "output file")
	benchtime := flag.String("benchtime", "1s", "go test -benchtime value")
	check := flag.String("check", "", "committed snapshot to gate against (CI regression smoke)")
	factor := flag.Float64("factor", 2, "allowed ns/op slowdown factor in -check mode")
	flag.Parse()

	if *check != "" {
		if err := runCheck(*check, *factor, *benchtime); err != nil {
			log.Fatalf("perfsnap: %v", err)
		}
		return
	}

	snap := snapshot{
		Schema:    "stableleader-bench/v1",
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Derived:   map[string]float64{},
	}
	for _, s := range suites {
		rs, err := runSuite(s, *benchtime)
		if err != nil {
			log.Fatalf("perfsnap: %s: %v", s.Pkg, err)
		}
		snap.Benchmarks = append(snap.Benchmarks, rs...)
	}

	ns := map[string]float64{}
	for _, r := range snap.Benchmarks {
		ns[r.Name] = r.NsPerOp
	}
	// Derived headline ratios: how much the wait-free paths buy over the
	// loop-serialised ones.
	if a, b := ns["LeaderQuery"], ns["LeaderQuerySync"]; a > 0 && b > 0 {
		snap.Derived["leader_query_speedup_vs_sync"] = b / a
	}
	if a, b := ns["StatusQuery"], ns["StatusQuerySync"]; a > 0 && b > 0 {
		snap.Derived["status_query_speedup_vs_sync"] = b / a
	}
	// Sharded-runtime saturation: measured concurrent throughput per
	// shard count, on however many cores the recording host has.
	for _, n := range []int{1, 2, 4, 8} {
		if v := ns[fmt.Sprintf("Saturation/shards=%d", n)]; v > 0 {
			snap.Derived[fmt.Sprintf("saturation_concurrent_msgs_per_sec_%dshards", n)] = 1e9 / v
		}
	}
	// Syscall-batched packet plane: socket-level throughput, batched vs
	// the forced classic one-datagram-one-syscall path on the identical
	// workload. The wall-clock ratio is host-dependent — it scales with
	// the kernel's syscall entry cost (KPTI etc.), while the underlying
	// syscalls-per-datagram reduction (~32x, see pkts/recvcall in the
	// bench output) is structural.
	for _, m := range []string{"batched", "classic"} {
		if v := ns["UDPSaturation/mode="+m]; v > 0 {
			snap.Derived["udp_saturation_msgs_per_sec_"+m] = 1e9 / v
		}
		if v := ns["UDPRecvDrain/mode="+m]; v > 0 {
			snap.Derived["udp_recv_drain_msgs_per_sec_"+m] = 1e9 / v
		}
	}
	if a, b := ns["UDPSaturation/mode=batched"], ns["UDPSaturation/mode=classic"]; a > 0 && b > 0 {
		snap.Derived["udp_saturation_speedup_batched_vs_classic"] = b / a
	}
	if a, b := ns["UDPRecvDrain/mode=batched"], ns["UDPRecvDrain/mode=classic"]; a > 0 && b > 0 {
		snap.Derived["udp_recv_drain_speedup_batched_vs_classic"] = b / a
	}
	// Simulated failover sweep: the planned-handover plane's leaderless
	// window percentiles and dual-leader (split-brain) integrals, standby
	// on versus off (virtual time: seconds of wall clock).
	if err := addFailoverDerived(snap.Derived); err != nil {
		log.Fatalf("perfsnap: failover sweep: %v", err)
	}

	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatalf("perfsnap: %v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatalf("perfsnap: %v", err)
	}
	fmt.Printf("perfsnap: wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)
}

// addFailoverDerived runs the sim failover sweep and records one
// leaderless-window p50/p99 and dual-leader figure per (series, setting)
// cell, plus the headline improvement ratio the PR's acceptance gate
// asserts (p99 over a graceful rolling restart, reactive vs handover).
func addFailoverDerived(d map[string]float64) error {
	exp, err := sim.Failover(sim.Options{Duration: 5 * time.Minute, Seed: 1})
	if err != nil {
		return err
	}
	for _, c := range exp.Cells {
		key := strings.ReplaceAll(c.Series+"_"+c.Setting, "-", "_")
		m := c.Result.Metrics
		d["sim_leaderless_p50_ms_"+key] = float64(m.LeaderlessP50) / 1e6
		d["sim_leaderless_p99_ms_"+key] = float64(m.LeaderlessP99) / 1e6
		d["sim_dual_leader_ms_"+key] = float64(m.DualLeaderTime) / 1e6
	}
	a := d["sim_leaderless_p99_ms_handover_rolling_restart"]
	b := d["sim_leaderless_p99_ms_reactive_rolling_restart"]
	if a > 0 && b > 0 {
		d["sim_leaderless_p99_improvement_rolling_restart"] = b / a
	}
	return nil
}

// runCheck re-runs the gate benchmarks and compares against the committed
// snapshot. Allocation counts gate exactly (a new allocation on a
// zero-alloc path is a regression however fast it runs); ns/op gates at
// the slowdown factor, leaving room for machine-to-machine variance.
func runCheck(path string, factor float64, benchtime string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed snapshot
	if err := json.Unmarshal(raw, &committed); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	want := map[string]result{}
	for _, r := range committed.Benchmarks {
		want[r.Name] = r
	}

	var got []result
	for _, s := range gateSuites {
		rs, err := runSuite(s, benchtime)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Pkg, err)
		}
		got = append(got, rs...)
	}
	byName := map[string]result{}
	for _, r := range got {
		byName[r.Name] = r
	}

	failed := false
	for _, name := range gateNames {
		w, ok := want[name]
		if !ok {
			return fmt.Errorf("committed snapshot %s lacks benchmark %q", path, name)
		}
		g, ok := byName[name]
		if !ok {
			return fmt.Errorf("gate benchmark %q did not run", name)
		}
		switch {
		case g.NsPerOp > w.NsPerOp*factor:
			fmt.Printf("FAIL %s: %.1f ns/op vs committed %.1f (allowed %.1fx)\n",
				name, g.NsPerOp, w.NsPerOp, factor)
			failed = true
		case g.AllocsPerOp > w.AllocsPerOp:
			fmt.Printf("FAIL %s: %d allocs/op vs committed %d\n",
				name, g.AllocsPerOp, w.AllocsPerOp)
			failed = true
		default:
			fmt.Printf("ok   %s: %.1f ns/op (committed %.1f), %d allocs/op (committed %d)\n",
				name, g.NsPerOp, w.NsPerOp, g.AllocsPerOp, w.AllocsPerOp)
		}
	}
	if failed {
		return fmt.Errorf("bench regression gate failed against %s", path)
	}
	fmt.Printf("perfsnap: all %d gates within %.1fx of %s\n", len(gateNames), factor, path)
	return nil
}

// runSuite executes one bench invocation and parses its output.
func runSuite(s suite, benchtime string) ([]result, error) {
	cmd := exec.Command("go", "test", "-run=NONE",
		"-bench="+s.Bench, "-benchmem", "-benchtime="+benchtime, "-count=1", s.Pkg)
	var outBuf bytes.Buffer
	cmd.Stdout = &outBuf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	var rs []result
	sc := bufio.NewScanner(&outBuf)
	for sc.Scan() {
		if r, ok := parseBenchLine(s.Pkg, sc.Text()); ok {
			rs = append(rs, r)
		}
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("no benchmark lines matched %q", s.Bench)
	}
	return rs, sc.Err()
}

// parseBenchLine decodes one standard benchmark output line:
//
//	BenchmarkLeaderQuery-8   100000000   13.42 ns/op   0 B/op   0 allocs/op
//
// Extra custom metrics (the saturation benches report a groups column)
// may precede the -benchmem pair; the B/op and allocs/op fields are
// located by their unit labels, not by position.
func parseBenchLine(pkg, line string) (result, bool) {
	f := strings.Fields(line)
	if len(f) < 8 || !strings.HasPrefix(f[0], "Benchmark") {
		return result{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		name = name[:i] // strip the GOMAXPROCS suffix
	}
	iters, err1 := strconv.ParseInt(f[1], 10, 64)
	nsop, err2 := strconv.ParseFloat(f[2], 64)
	if err1 != nil || err2 != nil || f[3] != "ns/op" {
		return result{}, false
	}
	var bop, aop int64
	var haveB, haveA bool
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return result{}, false
		}
		switch f[i+1] {
		case "B/op":
			bop, haveB = int64(v), true
		case "allocs/op":
			aop, haveA = int64(v), true
		}
	}
	if !haveB || !haveA {
		return result{}, false
	}
	return result{
		Name: name, Pkg: pkg,
		Iterations: iters, NsPerOp: nsop, BytesPerOp: bop, AllocsPerOp: aop,
	}, true
}
