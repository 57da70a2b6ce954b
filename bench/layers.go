package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	stableleader "stableleader"
	"stableleader/id"
	"stableleader/internal/clock"
	"stableleader/internal/core"
	"stableleader/internal/election"
	"stableleader/internal/fd"
	"stableleader/internal/group"
	"stableleader/internal/linkest"
	"stableleader/internal/outbound"
	"stableleader/internal/subs"
	"stableleader/internal/timerwheel"
	"stableleader/internal/wire"
	"stableleader/qos"
	"stableleader/sim"
	"stableleader/transport"
)

// The per-layer budget: each module's exported functions timed from here on
// the messages the workloads generate, nothing else running in the process.
// Every figure is the median of layerReps timed loops.
const layerReps = 5

// timeOp runs fn n times per repetition and returns the median time and
// allocations per call.
func timeOp(n int, fn func()) (ns, allocs float64) {
	var nss, als []float64
	var ms runtime.MemStats
	for rep := 0; rep < layerReps; rep++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		nss = append(nss, float64(d)/float64(n))
		als = append(als, float64(ms.Mallocs-m0)/float64(n))
	}
	return median(nss), median(als)
}

// benchRuntime is a core.Runtime (and wheel-backed clock, like the
// Service's) for driving internal modules directly: real time, timers that
// are armed on a wheel nobody advances, sends recycled unsent.
type benchRuntime struct {
	wheel *timerwheel.Wheel
	rng   *rand.Rand
}

func newBenchRuntime() *benchRuntime {
	return &benchRuntime{wheel: timerwheel.New(time.Now(), timerwheel.DefaultTick), rng: rand.New(rand.NewSource(1))}
}

func (r *benchRuntime) Now() time.Time                    { return time.Now() }
func (r *benchRuntime) Rand() *rand.Rand                  { return r.rng }
func (r *benchRuntime) Send(_ id.Process, m wire.Message) { wire.ReleaseOutbound(m) }
func (r *benchRuntime) NewTimer(fn func()) clock.Rearmer {
	return &benchTimer{rt: r, e: timerwheel.NewEntry(fn)}
}
func (r *benchRuntime) AfterFunc(d time.Duration, fn func()) clock.Timer {
	t := r.NewTimer(fn)
	t.Reset(d)
	return t
}

type benchTimer struct {
	rt *benchRuntime
	e  *timerwheel.Entry
}

func (t *benchTimer) Reset(d time.Duration) bool {
	pending := t.e.Pending()
	t.rt.wheel.Schedule(t.e, time.Now().Add(d))
	return pending
}
func (t *benchTimer) Stop() bool { return t.rt.wheel.Stop(t.e) }

// electionEnv is the five-member group of the floods as election.Env.
type electionEnv struct{ members []group.Member }

func (e *electionEnv) Self() id.Process                     { return floodSUT }
func (e *electionEnv) Incarnation() int64                   { return 1 }
func (e *electionEnv) Now() time.Time                       { return time.Now() }
func (e *electionEnv) Members() []group.Member              { return e.members }
func (e *electionEnv) SendAccuse(id.Process, int64, uint32) {}
func (e *electionEnv) SetActive(bool)                       {}
func (e *electionEnv) StartupGrace() time.Duration          { return 0 }

// captureTransport is a transport.Transport that keeps the Service's
// receive handler, so the benchmark can call the inbound path directly —
// decode, steering, ring hop, handlers — without a socket in front of it.
type captureTransport struct{ deliver func([]byte) }

func (c *captureTransport) Send(id.Process, []byte) error { return nil }
func (c *captureTransport) Receive(h func([]byte))        { c.deliver = h }
func (c *captureTransport) Close() error                  { return nil }

// floodMessages builds the floods' traffic outside a run: the four peers'
// JOINs and a sender holding all of their ALIVE streams.
func floodMessages() (joins []wire.Message, snd *floodSender) {
	snd = newFloodSender(nil)
	for p := 0; p < floodPeers; p++ {
		joins = append(joins, snd.addPeer(p, time.Now().UnixNano())...)
	}
	return joins, snd
}

// measureLayers takes every per-layer metric that needs no running
// workload and writes it to r.
func measureLayers(ctx context.Context, o *runOpts, r *result) error {
	layer := func(name string, fn func() error) error {
		sp := o.tr.begin("layer."+name, -1, 0)
		defer o.tr.end(sp)
		if err := fn(); err != nil {
			return fmt.Errorf("layer %s: %w", name, err)
		}
		return nil
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"wire", func() error { layerWire(r); return nil }},
		{"core", func() error { return layerCore(r) }},
		{"fd_linkest_election_qos", func() error { layerDetectors(r); return nil }},
		{"outbound", func() error { layerOutbound(r); return nil }},
		{"subs", func() error { layerSubs(r); return nil }},
		{"timerwheel", func() error { layerWheel(r); return nil }},
		{"transport", func() error { return layerTransport(r) }},
		{"service", func() error { return layerService(ctx, r) }},
		{"sim", func() error { return layerSim(r) }},
	}
	for _, s := range steps {
		if err := layer(s.name, s.fn); err != nil {
			return err
		}
	}
	return nil
}

// layerWire: decode and marshal of the coalesced flood's 16-ALIVE envelope.
func layerWire(r *result) {
	_, snd := floodMessages()
	snd.fill(floodGroups)
	payload := snd.bufs[0]
	dec := wire.NewDecoder()
	var msgs []wire.Message
	ns, allocs := timeOp(20000, func() {
		msgs, _ = dec.DecodeAppend(msgs[:0], payload)
		for _, m := range msgs {
			dec.Release(m)
		}
	})
	r.Metrics["wire.decode_ns_per_msg"] = ns / floodGroups
	r.Metrics["wire.decode_allocs_per_msg"] = allocs / floodGroups
	buf := make([]byte, 0, 1024)
	ns, _ = timeOp(20000, func() { buf = wire.MarshalAppend(buf[:0], &snd.batch) })
	r.Metrics["wire.marshal_ns_per_msg"] = ns / floodGroups
}

// layerCore: core.Node.HandleMessage on the floods' ALIVEs and on the
// HELLO gossip of the same five-member group.
func layerCore(r *result) error {
	rt := newBenchRuntime()
	n := core.NewNode(floodSUT, rt)
	defer n.Stop()
	joins, snd := floodMessages()
	for g := 0; g < floodGroups; g++ {
		if err := n.Join(floodGroup(g), core.JoinOptions{Candidate: true}); err != nil {
			return err
		}
	}
	for _, j := range joins {
		n.HandleMessage(j)
	}
	var streams []*wire.Alive
	for _, peer := range snd.alive {
		streams = append(streams, peer...)
	}
	i := 0
	ns, allocs := timeOp(200000, func() {
		a := streams[i%len(streams)]
		i++
		a.Seq++
		a.SendTime = time.Now().UnixNano()
		n.HandleMessage(a)
	})
	r.Metrics["core.handle_alive_ns"] = ns
	r.Metrics["core.handle_allocs_per_msg"] = allocs
	hello := &wire.Hello{Group: "g00", Sender: peerName(0), Incarnation: 1, Members: []wire.MemberInfo{
		{ID: floodSUT, Incarnation: n.Incarnation(), Candidate: true}}}
	for p := 0; p < floodPeers; p++ {
		hello.Members = append(hello.Members, wire.MemberInfo{ID: peerName(p), Incarnation: 1, Candidate: true})
	}
	ns, _ = timeOp(100000, func() { n.HandleMessage(hello) })
	r.Metrics["core.handle_hello_ns"] = ns
	return nil
}

// layerDetectors: what handleAlive calls underneath, each on its own, with
// the floods' parameters.
func layerDetectors(r *result) {
	rt := newBenchRuntime()
	est := linkest.New()
	var seq uint64
	ns, _ := timeOp(500000, func() {
		seq++
		est.Observe("g00", seq, 40*time.Microsecond)
	})
	r.Metrics["linkest.observe_ns"] = ns

	mon := fd.NewMonitor(fd.Config{Clock: rt, Spec: qos.Default(), Estimator: est, OnEdge: func(bool) {}})
	defer mon.Stop()
	ns, _ = timeOp(500000, func() {
		now := time.Now()
		mon.Observe(now, floodInterval, now)
	})
	r.Metrics["fd.observe_ns"] = ns

	env := &electionEnv{members: []group.Member{{ID: floodSUT, Incarnation: 1, Candidate: true}}}
	for p := 0; p < floodPeers; p++ {
		env.members = append(env.members, group.Member{ID: peerName(p), Incarnation: 1, Candidate: true})
	}
	algo := election.New(election.OmegaL, env)
	algo.Start()
	defer algo.Stop()
	alive := &wire.Alive{Group: "g00", Sender: peerName(0), Incarnation: 1, AccTime: time.Now().UnixNano()}
	ns, _ = timeOp(500000, func() {
		alive.Seq++
		algo.HandleAlive(alive)
	})
	r.Metrics["election.handle_alive_ns"] = ns

	link := qos.LinkStats{Loss: 0.001, MeanDelay: 40 * time.Microsecond, StdDelay: 20 * time.Microsecond}
	ns, _ = timeOp(2000, func() { _ = qos.Configure(qos.Default(), link) })
	r.Metrics["qos.configure_us"] = ns / 1000
}

// layerOutbound: stage 16 heartbeats for each of four peers, then drain.
func layerOutbound(r *result) {
	rt := newBenchRuntime()
	s := outbound.New(outbound.Config{Clock: rt, Emit: func(id.Process, wire.Message) {}})
	defer s.Stop()
	_, snd := floodMessages()
	ns, _ := timeOp(5000, func() {
		for p, peer := range snd.alive {
			for _, a := range peer {
				s.Enqueue(peerName(p), a, time.Millisecond)
			}
		}
		s.FlushAll()
	})
	r.Metrics["outbound.enqueue_flush_ns_per_msg"] = ns / (floodPeers * floodGroups)
}

// layerSubs: the registry at client_fanout's population.
func layerSubs(r *result) {
	rt := newBenchRuntime()
	view := subs.View{Leader: "n00", Incarnation: 1, Elected: true, At: time.Now()}
	reg := subs.New(subs.Config{Self: "n02", Incarnation: 1, Clock: rt,
		Send:   func(_ id.Process, m wire.Message, _ bool) { wire.ReleaseOutbound(m) },
		Leader: func(id.Group) (subs.View, bool) { return view, true }})
	defer reg.Stop()
	var renews []*wire.LeaseRenew
	for k := 0; k < fanoutClients; k++ {
		name := id.Process(fmt.Sprintf("c%04d", k))
		for g := 0; g < fanoutGroups; g++ {
			gid := floodGroup(g)
			reg.HandleSubscribe(&wire.Subscribe{Group: gid, Sender: name, Incarnation: 1, TTL: int64(fanoutTTL)})
			renews = append(renews, &wire.LeaseRenew{Group: gid, Sender: name, Incarnation: 1, TTL: int64(fanoutTTL)})
		}
	}
	i := 0
	ns, _ := timeOp(200000, func() {
		reg.HandleRenew(renews[i%len(renews)])
		i++
	})
	r.Metrics["subs.renew_ns"] = ns
	ns, _ = timeOp(100, func() {
		view.At = time.Now()
		reg.PublishLeaderChange("g00", view)
	})
	r.Metrics["subs.publish_ns_per_subscriber"] = ns / fanoutClients
}

// layerWheel: the timer wheel at one steady node's timer population (a
// deadline and a pacing timer per group and peer).
func layerWheel(r *result) {
	const population = steadyGroups * (steadyNodes - 1) * 2
	start := time.Now()
	w := timerwheel.New(start, timerwheel.DefaultTick)
	rng := rand.New(rand.NewSource(1))
	now := start
	entries := make([]*timerwheel.Entry, population)
	for i := range entries {
		i := i
		entries[i] = timerwheel.NewEntry(func() {
			w.Schedule(entries[i], now.Add(steadyTdU/2))
		})
		w.Schedule(entries[i], start.Add(time.Duration(rng.Int63n(int64(steadyTdU)))))
	}
	i := 0
	ns, _ := timeOp(500000, func() {
		w.Schedule(entries[i%population], start.Add(steadyTdU))
		i++
	})
	r.Metrics["timerwheel.rearm_ns"] = ns
	ns, _ = timeOp(2000, func() {
		now = now.Add(timerwheel.DefaultTick)
		w.Advance(now)
	})
	r.Metrics["timerwheel.advance_ns_per_tick"] = ns
}

// layerTransport: a UDP pair on loopback with a no-op handler, the sender
// keeping a window of datagrams in flight. CPU per datagram for send +
// kernel + receive, and for the same sends into a socket nobody reads;
// receive is the difference.
func layerTransport(r *result) error {
	const (
		bursts = 3000
		window = 256
	)
	for _, size := range []struct {
		name  string
		bytes int
	}{{"81B", 81}, {"846B", 846}} {
		recv, err := transport.NewUDP(loopback, nil, transport.WithSocketBuffers(floodSockBuf))
		if err != nil {
			return err
		}
		var got atomic.Int64
		recv.Receive(func([]byte) { got.Add(1) })
		// Nobody reads the sink: once its buffer is full the kernel drops
		// each datagram on arrival, after doing everything a delivery does
		// except waking a reader.
		sink, err := net.ListenPacket("udp", loopback)
		if err != nil {
			_ = recv.Close()
			return err
		}
		send, err := transport.NewUDP(loopback, map[id.Process]string{
			"rx": recv.LocalAddr().String(), "sink": sink.LocalAddr().String()})
		if err != nil {
			_ = recv.Close()
			_ = sink.Close()
			return err
		}
		burst := make([]transport.Datagram, 32)
		payload := make([]byte, size.bytes)
		pump := func(to id.Process, paced bool) float64 {
			for i := range burst {
				burst[i] = transport.Datagram{To: to, Payload: payload}
			}
			var perDgram []float64
			for rep := 0; rep < layerReps; rep++ {
				base, sent := got.Load(), int64(0)
				cpu0 := processCPU()
				for b := 0; b < bursts; b++ {
					for paced && sent-(got.Load()-base) > window {
						time.Sleep(50 * time.Microsecond)
					}
					n, _ := send.SendBatch(burst)
					sent += int64(n)
				}
				for deadline := time.Now().Add(time.Second); paced && got.Load()-base < sent && time.Now().Before(deadline); {
					time.Sleep(50 * time.Microsecond)
				}
				perDgram = append(perDgram, float64(processCPU()-cpu0)/float64(sent))
			}
			return median(perDgram)
		}
		loop := pump("rx", true)
		sendOnly := pump("sink", false)
		_ = send.Close()
		_ = recv.Close()
		_ = sink.Close()
		r.Metrics["transport.loop_ns_per_dgram_"+size.name] = loop
		r.Metrics["transport.send_ns_per_dgram_"+size.name] = sendOnly
		r.Metrics["transport.recv_ns_per_dgram_"+size.name] = loop - sendOnly
	}
	r.Metrics["transport.recv_ns_per_dgram"] = r.Metrics["transport.recv_ns_per_dgram_81B"]
	r.Metrics["transport.send_ns_per_dgram"] = r.Metrics["transport.send_ns_per_dgram_81B"]
	return nil
}

// layerService: the Service's inbound path called directly with the
// coalesced flood's datagrams (decode, steering, ring hop, handlers), and
// the cost of its command queue.
func layerService(ctx context.Context, r *result) error {
	ct := &captureTransport{}
	svc, err := stableleader.New(floodSUT, ct)
	if err != nil {
		return err
	}
	defer svc.Close(ctx)
	var grp0 *stableleader.Group
	for g := 0; g < floodGroups; g++ {
		grp, err := svc.Join(ctx, floodGroup(g), stableleader.AsCandidate())
		if err != nil {
			return err
		}
		if g == 0 {
			grp0 = grp
		}
	}
	joins, snd := floodMessages()
	for _, j := range joins {
		ct.deliver(wire.Marshal(j))
	}
	for svc.PacketStats().MessagesIn < int64(len(joins)) {
		time.Sleep(50 * time.Microsecond)
	}
	// CPU, not wall time: the shards work in parallel, and the budget adds
	// CPU up. Every burst is marshalled afresh so each heartbeat is live
	// when the failure detector sees it; that cost (wire.marshal, measured
	// above) is taken out again. At most inboundWindow datagrams wait in
	// the rings, so the delivering goroutine sleeps instead of blocking.
	const (
		bursts        = 1500
		inboundWindow = 64 * floodGroups
	)
	var nss, als []float64
	var ms runtime.MemStats
	for rep := 0; rep < layerReps; rep++ {
		base, sent := svc.PacketStats().MessagesIn, int64(0)
		runtime.ReadMemStats(&ms)
		m0, cpu0 := ms.Mallocs, processCPU()
		for b := 0; b < bursts; b++ {
			for sent-(svc.PacketStats().MessagesIn-base) > inboundWindow {
				time.Sleep(50 * time.Microsecond)
			}
			sent += int64(snd.fill(floodGroups))
			for _, buf := range snd.bufs {
				ct.deliver(buf)
			}
		}
		for svc.PacketStats().MessagesIn-base < sent {
			time.Sleep(50 * time.Microsecond)
		}
		cpu := processCPU() - cpu0
		runtime.ReadMemStats(&ms)
		nss = append(nss, float64(cpu)/float64(sent)-r.Metrics["wire.marshal_ns_per_msg"])
		als = append(als, float64(ms.Mallocs-m0)/float64(sent))
	}
	r.Metrics["service.inbound_ns_per_msg"] = median(nss)
	r.Metrics["service.inbound_allocs_per_msg"] = median(als)

	ns, _ := timeOp(200000, func() { _, _ = grp0.Leader(ctx) })
	r.Metrics["service.leader_read_ns"] = ns
	sync := stableleader.WithSyncRead()
	ns, _ = timeOp(5000, func() { _, _ = grp0.Leader(ctx, sync) })
	r.Metrics["service.call_roundtrip_us"] = ns / 1000
	return nil
}

// layerSim: the simulator's prediction for the failover and steady
// scenarios, printed beside the measured values, and its own speed. The
// same seed must give the same result twice.
func layerSim(r *result) error {
	crash := sim.Scenario{
		Name: "bench-failover", N: failoverNodes, Groups: failoverGroups,
		Algorithm: stableleader.OmegaL, QoS: specFor(failoverTdU),
		ProcessFaults: &sim.Faults{MTBF: 30 * time.Second, MTTR: time.Second},
		Duration:      5 * time.Minute, Warmup: 5 * time.Second, Seed: 7,
	}
	a, err := sim.Run(crash)
	if err != nil {
		return err
	}
	b, err := sim.Run(crash)
	if err != nil {
		return err
	}
	events := float64(a.EventsSimulated) / a.WallTime.Seconds()
	a.WallTime, b.WallTime = 0, 0
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		r.fail("sim.Run at a fixed seed gave two different results")
	}
	r.Metrics["sim.events_per_s"] = events
	r.Metrics["sim.pred_crash_recovery_ms"] = float64(a.Metrics.TrMean) / float64(time.Millisecond)

	quiet, err := sim.Run(sim.Scenario{
		Name: "bench-steady", N: steadyNodes, Groups: steadyGroups,
		Algorithm: stableleader.OmegaL, QoS: specFor(steadyTdU),
		Duration: 30 * time.Second, Warmup: 5 * time.Second, Seed: 7,
	})
	if err != nil {
		return err
	}
	// The simulator counts sent + received; the benchmark counts each byte
	// once, at its sender.
	r.Metrics["sim.pred_kB_per_node_s"] = quiet.KBPerSec / 2
	return nil
}
