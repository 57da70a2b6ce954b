package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// miniRun is how long a traced run measures the workloads that were not
// named on the command line: long enough for a handful of fault rounds.
const miniRun = 3 * time.Second

// runTraced is the per-layer run. It times every module's exported calls
// (layers.go), then runs every workload once with tracing on — the named
// one for the full time, the others for miniRun — because the driver's
// contract has each traced run report every per-layer metric, and the ones
// that split a latency into its stages exist only while that workload
// runs. It returns each workload's own result followed by the merged one.
func runTraced(ctx context.Context, name string, o *runOpts) ([]*result, error) {
	o.tr = newTracer()
	layers := newResult("layers", o.seed)
	if err := measureLayers(ctx, o, layers); err != nil {
		return nil, err
	}
	byName := map[string]*result{"": layers}
	out := []*result{layers}
	merged := newResult(name, o.seed)
	for i := range workloads {
		w := &workloads[i]
		wo := *o
		native := name == "all" || name == w.name
		if !native {
			wo.measure = min(miniRun, o.measure)
		}
		r, err := runWorkload(ctx, w, &wo, 1)
		if err != nil {
			return nil, err
		}
		byName[w.name] = r
		out = append(out, r)
		if native {
			merged.Attempted += r.Attempted
			merged.Failed += r.Failed
			merged.Seconds += r.Seconds
		}
		if !r.Correct {
			merged.Correct = false
			merged.Reasons = append(merged.Reasons, r.Reasons...)
		}
		if late := r.Metrics["gen.inject_late_ms_max"]; late > layers.Metrics["gen.inject_late_ms_max"] {
			layers.Metrics["gen.inject_late_ms_max"] = late
		}
	}
	if !layers.Correct {
		merged.Correct = false
		merged.Reasons = append(merged.Reasons, layers.Reasons...)
	}

	fc := byName[wlFloodCoalesced]
	layers.Metrics["trace.overhead_pct"] = fc.Metrics["trace.overhead_pct"]
	self := o.tr.selfTimes()
	genNS := float64(self["gen.marshal_send."+wlFloodCoalesced]) / float64(fc.Attempted)
	layers.Metrics["gen.marshal_send_ns_per_msg"] = genNS
	budget(layers, fc, genNS)

	for _, d := range perLayer {
		src := d.Source
		if src == "" {
			src = d.Name
		}
		v, ok := byName[d.From].Metrics[src]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "bench: per-layer metric %s was not measured in this run; reported as 0\n", d.Name)
			v = 0
		}
		merged.Metrics[d.Name] = v
		if n, ok := byName[d.From].Samples[src]; ok {
			merged.Samples[d.Name] = n
		}
	}
	if err := o.writeTrace(self); err != nil {
		return nil, err
	}
	return append(out, merged), nil
}

// budget reconciles the per-layer costs of one coalesced-flood heartbeat
// with the end-to-end CPU per message: socket receive, decode, steering and
// ring hop, the handler (which contains fd, linkest and election), and the
// generator's own marshal and send. What does not add up is reported as a
// number, not hidden.
func budget(layers, fc *result, genNS float64) {
	m := layers.Metrics
	// Inbound minus its two measured children is what steering, the ring
	// hop and the loop wake-up cost.
	m["service.steer_ring_self_ns_per_msg"] = m["service.inbound_ns_per_msg"] - m["wire.decode_ns_per_msg"] - m["core.handle_alive_ns"]
	sumNS := m["transport.recv_ns_per_dgram_846B"]/floodGroups +
		m["wire.decode_ns_per_msg"] +
		m["service.steer_ring_self_ns_per_msg"] +
		m["core.handle_alive_ns"] +
		genNS
	m["budget.flood_coalesced_sum_us"] = sumNS / 1000
	e2e := fc.Metrics["cpu_us_per_msg"]
	m["budget.flood_coalesced_unexplained_pct"] = 100 * (e2e - sumNS/1000) / e2e
}

// traceFile is bench-trace.json: the spans and, per span name, the self
// time (duration minus what child spans cover).
type traceFile struct {
	SelfNS map[string]int64 `json:"self_ns"`
	Spans  []span           `json:"spans"`
}

func (o *runOpts) writeTrace(self map[string]time.Duration) error {
	tf := traceFile{SelfNS: map[string]int64{}, Spans: o.tr.spans}
	for name, d := range self {
		tf.SelfNS[name] = int64(d)
	}
	return writeJSON(filepath.Join(o.outDir, "bench-trace.json"), tf)
}

// driverLine is the last line of standard output: one JSON object with
// exactly the keys BENCHMARK.json's driver reads. An untraced run carries
// every end-to-end metric, a traced run every per-layer metric.
func driverLine(r *result, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, d := range perLayer {
			metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, metrics})
	if err != nil {
		panic(err) // only floats, strings and bools: cannot fail
	}
	return string(b)
}

// manifest is BENCHMARK.json, generated from the registry so the file and
// the program cannot drift apart (bench_test.go compares them).
func manifest(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	return append(b, '\n'), err
}
