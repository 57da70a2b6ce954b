package main

import (
	"context"
	"runtime"
	"sync"
	"syscall"
	"time"

	stableleader "stableleader"
)

// result is what one run of one workload produced.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Correct   bool               `json:"correct"`
	Reasons   []string           `json:"reasons,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is the sample count behind each percentile metric.
	Samples map[string]int `json:"samples,omitempty"`
}

func newResult(workload string, seed int64) *result {
	return &result{Workload: workload, Seed: seed, Correct: true,
		Metrics: map[string]float64{}, Samples: map[string]int{}}
}

// fail records a correctness failure by name; the run then reports
// correct=false and the process exits non-zero.
func (r *result) fail(reason string) {
	r.Correct = false
	for _, have := range r.Reasons {
		if have == reason {
			return
		}
	}
	r.Reasons = append(r.Reasons, reason)
}

// putPercentile records the p-th percentile of xs under name, with the
// sample count behind it; no samples, no metric.
func (r *result) putPercentile(name string, xs []float64, p float64) {
	if len(xs) == 0 {
		return
	}
	r.Metrics[name] = percentile(xs, p)
	r.Samples[name] = len(xs)
}

// processCPU is the user+system CPU time this process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter takes the cost metrics every workload reports over its measured
// window: process CPU, allocations and the packet counters of its Services.
// It samples them at the edges of one-second windows and reports each rate
// as the median over the windows, so that a second in which the shared host
// stalled, or one burst of allocation, does not decide the run. The window
// is a whole second because the protocol's gossip and reconfiguration
// timers beat at 1 Hz: half-second windows alternate between heavy and
// light.
type meter struct {
	nodes int
	// stats sums PacketStats over the workload's Services.
	stats func() stableleader.PacketStats

	window time.Duration
	cancel context.CancelFunc
	wg     sync.WaitGroup
	edges  []meterSample
}

// meterWindow is the sampling window; runs shorter than four of them (the
// smoke test) use a quarter of their length.
const meterWindow = time.Second

type meterSample struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	ps      stableleader.PacketStats
}

func (m *meter) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.edges = append(m.edges, meterSample{at: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs, ps: m.stats()})
}

// start opens the measured window, which will last about total.
func (m *meter) start(total time.Duration) {
	m.window = min(meterWindow, total/4)
	m.sample()
	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(m.window)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
}

// stop closes the window and writes the shared end-to-end metrics and the
// run.* per-layer metrics derived from the same counters.
func (m *meter) stop(r *result) {
	m.cancel()
	m.wg.Wait()
	m.sample()
	first, last := m.edges[0], m.edges[len(m.edges)-1]
	var cpuRate, wire, dgrams, cpuPerMsg, allocsPerMsg []float64
	for i := 1; i < len(m.edges); i++ {
		a, b := m.edges[i-1], m.edges[i]
		if b.at.Sub(a.at) < m.window/2 && len(m.edges) > 2 {
			continue // the sliver between the last tick and stop
		}
		ps := b.ps.Delta(a.ps)
		nodeSecs := float64(m.nodes) * b.at.Sub(a.at).Seconds()
		cpuRate = append(cpuRate, float64(b.cpu-a.cpu)/float64(time.Millisecond)/nodeSecs)
		wire = append(wire, float64(ps.BytesOut)/1000/nodeSecs)
		dgrams = append(dgrams, float64(ps.DatagramsOut)/nodeSecs)
		if msgs := float64(ps.MessagesIn + ps.MessagesOut); msgs > 0 {
			cpuPerMsg = append(cpuPerMsg, float64(b.cpu-a.cpu)/float64(time.Microsecond)/msgs)
			allocsPerMsg = append(allocsPerMsg, float64(b.mallocs-a.mallocs)/msgs)
		}
	}
	r.Seconds = last.at.Sub(first.at).Seconds()
	r.Metrics["cpu_ms_per_node_s"] = median(cpuRate)
	r.Metrics["wire_kB_per_node_s"] = median(wire)
	r.Metrics["dgrams_per_node_s"] = median(dgrams)
	r.Metrics["cpu_us_per_msg"] = median(cpuPerMsg)
	r.Metrics["allocs_per_msg"] = median(allocsPerMsg)

	ps := last.ps.Delta(first.ps)
	nodeSecs := float64(m.nodes) * r.Seconds
	r.Metrics["run.msgs_per_node_s"] = float64(ps.MessagesIn+ps.MessagesOut) / nodeSecs
	r.Metrics["run.syscalls_per_node_s"] = float64(ps.RecvSyscalls+ps.SendSyscalls) / nodeSecs
	r.Metrics["run.recv_dgrams_per_syscall"] = ps.RecvPacketsPerSyscall()
	r.Metrics["run.send_dgrams_per_syscall"] = ps.SendPacketsPerSyscall()
	if ps.DatagramsOut > 0 {
		r.Metrics["run.out_msgs_per_dgram"] = float64(ps.MessagesOut) / float64(ps.DatagramsOut)
	}
}

// heapLiveMB is the live heap after a forced collection, in MB.
func heapLiveMB() float64 {
	// Twice: the first collection only moves sync.Pool contents to the
	// victim cache, the second drops them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// prober samples, on a fixed 100 Hz schedule, whether the system is doing
// its job: agreed reports whether every live observer names the same live
// elected leader in every group. A probe that runs late (the host stalled)
// stands for every probe that was due in the meantime, so stalls count
// against availability instead of being skipped.
type prober struct {
	agreed func() bool
	// also, if set, is sampled on the same schedule and counted on its own.
	also func() bool

	cancel context.CancelFunc
	wg     sync.WaitGroup

	probes, up, alsoUp int64
	lateMax            time.Duration
}

const probePeriod = 10 * time.Millisecond

func (p *prober) start() {
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		start := time.Now()
		tick := time.NewTicker(probePeriod)
		defer tick.Stop()
		var done int64 // probes accounted for so far
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			since := time.Since(start)
			due := int64(since / probePeriod)
			if due <= done {
				continue
			}
			if late := since - time.Duration(done+1)*probePeriod; late > p.lateMax {
				p.lateMax = late
			}
			ok := p.agreed()
			p.probes += due - done
			if ok {
				p.up += due - done
			}
			if p.also != nil && p.also() {
				p.alsoUp += due - done
			}
			done = due
		}
	}()
}

func (p *prober) stop() {
	p.cancel()
	p.wg.Wait()
}

func (p *prober) availability() float64 {
	if p.probes == 0 {
		return 0
	}
	return float64(p.up) / float64(p.probes)
}
