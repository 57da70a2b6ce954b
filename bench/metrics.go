package main

import (
	"math"
	"sort"
)

// metricDef describes one number the benchmark reports.
type metricDef struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the baseline median by which the metric may
	// get worse before -compare calls it a regression; 0 means the metric
	// is recorded but not gated.
	Bound float64
	// Workloads lists where the metric is measured; nil means everywhere.
	Workloads []string
}

// Workload names.
const (
	wlSteady         = "steady"
	wlFailover       = "failover"
	wlFloodCoalesced = "flood_coalesced"
	wlFloodBare      = "flood_bare"
	wlClientFanout   = "client_fanout"
)

var floods = []string{wlFloodCoalesced, wlFloodBare}

// endToEnd is what BENCHMARK.json gates: the metrics every workload can
// report with one meaning and one direction, and that repeat from run to
// run on a shared host. The driver's contract has each run print every
// end-to-end metric, so a metric that exists on one workload only cannot be
// listed here, and it refuses a metric whose run-to-run spread exceeds its
// bound (at most 0.25), which rules out the CPU-time metrics; both kinds are
// in nativeEndToEnd. One bound serves all five workloads, so each is the
// issue's figure or three times the widest spread seen on any workload
// (README.md, "Measured at this commit"), whichever is larger.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wire_kB_per_node_s", Unit: "kB/s", Better: "lower", Bound: 0.10},
	{Name: "dgrams_per_node_s", Unit: "1/s", Better: "lower", Bound: 0.15},
	{Name: "leader_availability", Unit: "fraction", Better: "higher", Bound: 0.10},
	{Name: "allocs_per_msg", Unit: "count", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// nativeEndToEnd are the user-visible metrics the driver cannot gate: the
// ones that exist on one or two workloads only, and the CPU-time ones, whose
// spread on this host reaches 26 %. -workload all prints them, -out records
// them and -compare judges them with the bounds below (reporting
// "unresolved" where the runs scatter more than the bound); BENCHMARK.json
// carries them as per-layer entries, which have no bound there (see
// README.md, "Why six of sixteen").
var nativeEndToEnd = []metricDef{
	{Name: "cpu_ms_per_node_s", Unit: "ms/s", Better: "lower", Bound: 0.15, Workloads: []string{wlSteady}},
	{Name: "cpu_us_per_msg", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "crash_recovery_ms_p50", Unit: "ms", Better: "lower", Bound: 0.05, Workloads: []string{wlFailover}},
	{Name: "crash_recovery_ms_p80", Unit: "ms", Better: "lower", Bound: 0.05, Workloads: []string{wlFailover}},
	{Name: "handover_window_us_p50", Unit: "us", Better: "lower", Bound: 0.15, Workloads: []string{wlFailover}},
	{Name: "handover_window_us_p95", Unit: "us", Better: "lower", Bound: 0.20, Workloads: []string{wlFailover}},
	{Name: "client_update_us_p50", Unit: "us", Better: "lower", Bound: 0.15, Workloads: []string{wlFailover}},
	{Name: "inbound_msgs_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Workloads: floods},
	{Name: "fanout_complete_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: []string{wlClientFanout}},
	{Name: "fanout_complete_ms_p90", Unit: "ms", Better: "lower", Bound: 0.15, Workloads: []string{wlClientFanout}},
}

// measuredOn reports whether the metric is measured on the workload.
func (d metricDef) measuredOn(workload string) bool {
	if d.Workloads == nil {
		return true
	}
	for _, w := range d.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// layerDef is one per-layer metric of the traced run.
type layerDef struct {
	Name, Unit, Better string
	// From is the workload whose traced run measures it, "" for the layer
	// suite (layers.go) and the cross-workload figures runTraced derives;
	// Source is the metric's name in that workload's result when it differs.
	From, Source string
}

// perLayer lists, module by module, what the traced run reports. README.md
// says which end-to-end metric each should move, and on which workload.
var perLayer = []layerDef{
	{Name: "transport.recv_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "transport.recv_ns_per_dgram_846B", Unit: "ns", Better: "lower"},
	{Name: "transport.recv_dgrams_per_syscall", Unit: "count", Better: "higher", From: wlFloodBare, Source: "run.recv_dgrams_per_syscall"},
	{Name: "transport.send_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "transport.send_dgrams_per_syscall", Unit: "count", Better: "higher", From: wlClientFanout, Source: "run.send_dgrams_per_syscall"},
	{Name: "transport.loop_ns_per_dgram_81B", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "wire.marshal_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "service.inbound_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "service.inbound_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "service.steer_ring_self_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "service.call_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "service.leader_read_ns", Unit: "ns", Better: "lower"},
	{Name: "service.join_ms", Unit: "ms", Better: "lower", From: wlFailover},
	{Name: "service.crash_call_ms", Unit: "ms", Better: "lower", From: wlFailover},
	{Name: "core.handle_alive_ns", Unit: "ns", Better: "lower"},
	{Name: "core.handle_hello_ns", Unit: "ns", Better: "lower"},
	{Name: "core.handle_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "fd.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "linkest.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "election.handle_alive_ns", Unit: "ns", Better: "lower"},
	{Name: "qos.configure_us", Unit: "us", Better: "lower"},
	{Name: "outbound.enqueue_flush_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "outbound.msgs_per_dgram", Unit: "count", Better: "higher", From: wlSteady, Source: "run.out_msgs_per_dgram"},
	{Name: "outbound.fanout_msgs_per_dgram", Unit: "count", Better: "higher", From: wlClientFanout, Source: "run.out_msgs_per_dgram"},
	{Name: "subs.renew_ns", Unit: "ns", Better: "lower"},
	{Name: "subs.publish_ns_per_subscriber", Unit: "ns", Better: "lower"},
	{Name: "timerwheel.rearm_ns", Unit: "ns", Better: "lower"},
	{Name: "timerwheel.advance_ns_per_tick", Unit: "ns", Better: "lower"},
	{Name: "steady.cpu_ms_per_node_s", Unit: "ms/s", Better: "lower", From: wlSteady, Source: "cpu_ms_per_node_s"},
	{Name: "steady.cpu_us_per_msg", Unit: "us", Better: "lower", From: wlSteady, Source: "cpu_us_per_msg"},
	{Name: "steady.syscalls_per_node_s", Unit: "1/s", Better: "lower", From: wlSteady, Source: "run.syscalls_per_node_s"},
	{Name: "steady.msgs_per_node_s", Unit: "1/s", Better: "lower", From: wlSteady, Source: "run.msgs_per_node_s"},
	{Name: "steady.unjustified_demotions", Unit: "count", Better: "lower", From: wlSteady},
	{Name: "steady.spurious_suspicions", Unit: "count", Better: "lower", From: wlSteady},
	{Name: "failover.detect_ms_p50", Unit: "ms", Better: "lower", From: wlFailover},
	{Name: "failover.elect_ms_p50", Unit: "ms", Better: "lower", From: wlFailover},
	{Name: "failover.agree_ms_p50", Unit: "ms", Better: "lower", From: wlFailover},
	{Name: "failover.rejoin_ms_p50", Unit: "ms", Better: "lower", From: wlFailover},
	{Name: "failover.warmup_dual_leader_us", Unit: "us", Better: "lower", From: wlFailover},
	{Name: "handover.depose_call_us_p50", Unit: "us", Better: "lower", From: wlFailover},
	{Name: "handover.first_elect_us_p50", Unit: "us", Better: "lower", From: wlFailover},
	{Name: "handover.spread_us_p50", Unit: "us", Better: "lower", From: wlFailover},
	{Name: "fanout.sut_notice_ms_p50", Unit: "ms", Better: "lower", From: wlClientFanout},
	{Name: "fanout.first_snapshot_ms_p50", Unit: "ms", Better: "lower", From: wlClientFanout},
	{Name: "fanout.drain_ms_p50", Unit: "ms", Better: "lower", From: wlClientFanout},
	{Name: "fanout.clients_current", Unit: "fraction", Better: "higher", From: wlClientFanout},
	{Name: "client.leader_read_ns", Unit: "ns", Better: "lower", From: wlFailover},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower", From: wlSteady},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.pred_crash_recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.pred_kB_per_node_s", Unit: "kB/s", Better: "lower"},
	{Name: "gen.marshal_send_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "gen.inject_late_ms_max", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "budget.flood_coalesced_sum_us", Unit: "us", Better: "lower"},
	{Name: "budget.flood_coalesced_unexplained_pct", Unit: "%", Better: "lower"},
	// The user-visible metrics the driver cannot gate (see nativeEndToEnd),
	// per workload where more than one reports them.
	{Name: "crash_recovery_ms_p50", Unit: "ms", Better: "lower", From: wlFailover},
	{Name: "crash_recovery_ms_p80", Unit: "ms", Better: "lower", From: wlFailover},
	{Name: "handover_window_us_p50", Unit: "us", Better: "lower", From: wlFailover},
	{Name: "handover_window_us_p95", Unit: "us", Better: "lower", From: wlFailover},
	{Name: "client_update_us_p50", Unit: "us", Better: "lower", From: wlFailover},
	{Name: "failover.cpu_us_per_msg", Unit: "us", Better: "lower", From: wlFailover, Source: "cpu_us_per_msg"},
	{Name: "fanout_complete_ms_p50", Unit: "ms", Better: "lower", From: wlClientFanout},
	{Name: "fanout_complete_ms_p90", Unit: "ms", Better: "lower", From: wlClientFanout},
	{Name: "client_fanout.cpu_us_per_msg", Unit: "us", Better: "lower", From: wlClientFanout, Source: "cpu_us_per_msg"},
	{Name: "flood_coalesced.inbound_msgs_per_s", Unit: "1/s", Better: "higher", From: wlFloodCoalesced, Source: "inbound_msgs_per_s"},
	{Name: "flood_coalesced.cpu_us_per_msg", Unit: "us", Better: "lower", From: wlFloodCoalesced, Source: "cpu_us_per_msg"},
	{Name: "flood_coalesced.allocs_per_msg", Unit: "count", Better: "lower", From: wlFloodCoalesced, Source: "allocs_per_msg"},
	{Name: "flood_coalesced.spurious_suspicions", Unit: "count", Better: "lower", From: wlFloodCoalesced, Source: "flood.spurious_suspicions"},
	{Name: "flood_bare.inbound_msgs_per_s", Unit: "1/s", Better: "higher", From: wlFloodBare, Source: "inbound_msgs_per_s"},
	{Name: "flood_bare.cpu_us_per_msg", Unit: "us", Better: "lower", From: wlFloodBare, Source: "cpu_us_per_msg"},
	{Name: "flood_bare.spurious_suspicions", Unit: "count", Better: "lower", From: wlFloodBare, Source: "flood.spurious_suspicions"},
}

// unitOf is the unit a metric is printed with, "" for one the registry
// does not know (the run.* counters every workload derives).
func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Unit
		}
	}
	for _, d := range nativeEndToEnd {
		if d.Name == name {
			return d.Unit
		}
	}
	for _, d := range perLayer {
		if d.Name == name || (d.Source == name && d.From != "") {
			return d.Unit
		}
	}
	return ""
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted. It returns
// NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// supportedPercentile is the highest whole percentile with at least ten
// samples beyond it, the tail a sample of n can speak for; 0 when n < 20
// leaves not even the median with ten samples on each side.
func supportedPercentile(n int) int {
	if n < 20 {
		return 0
	}
	return int(math.Floor(100 * (1 - 10/float64(n))))
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, the run-to-run spread -compare holds against a bound.
// Quartiles are those of Python's statistics.quantiles(xs, n=4), which is
// what the driver of BENCHMARK.json uses.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / m)
}
