// Package sim runs the leader election service inside a deterministic
// virtual-time network simulator and measures the QoS metrics of the paper
// (leader recovery time, mistake rate, leader availability) together with
// the service's CPU and bandwidth costs.
//
// It replaces the paper's physical testbed: 12 workstations whose fault
// injectors dropped and delayed messages, killed and restarted service
// instances, and crashed links. A Scenario is a complete description of one
// such experiment cell; Run executes it; the Figure functions regenerate
// every figure of the paper's evaluation (Section 6). Results are
// reproducible: a scenario is a pure function of its Seed.
package sim

import (
	"errors"
	"fmt"
	"time"

	stableleader "stableleader"
	"stableleader/id"
	"stableleader/internal/clientcore"
	"stableleader/internal/core"
	"stableleader/internal/election"
	"stableleader/internal/metrics"
	"stableleader/internal/simnet"
	"stableleader/qos"
)

// LinkModel is the lossy-link behaviour of the paper's Section 6.1: iid
// message loss with probability Loss, exponential delay with mean MeanDelay.
type LinkModel struct {
	MeanDelay time.Duration
	Loss      float64
}

// String renders the paper's "(D, pL)" notation.
func (l LinkModel) String() string {
	d := l.MeanDelay.Seconds() * 1000
	if d == float64(int64(d)) {
		return fmt.Sprintf("(%dms, %g)", int64(d), l.Loss)
	}
	return fmt.Sprintf("(%gms, %g)", d, l.Loss)
}

// Faults is an exponential crash/recovery process (MTBF up, MTTR down).
type Faults struct {
	MTBF time.Duration
	MTTR time.Duration
}

// PartitionPlan cuts the group in two at a fixed virtual time and heals it
// later: every link between the sides drops all traffic in both directions,
// links within a side keep working. The minority side is the last Minority
// workstations by id — pair it with Scenario.Candidates to control whether
// any candidate is cut off.
type PartitionPlan struct {
	// At is when the partition starts, measured from the start of the run.
	At time.Duration
	// Heal is when the partition heals; zero (or ≤ At) makes it permanent.
	Heal time.Duration
	// Minority is how many workstations (the last by id) are isolated.
	// Values outside [1, N-1] default to N/2.
	Minority int
}

// RestartPlan gracefully restarts every workstation in turn: each process
// leaves (planned handover first if it leads and the plane is on), stays
// down for Downtime, and reboots with a fresh incarnation — a rolling
// upgrade across the whole group.
type RestartPlan struct {
	// Start is when the first process leaves, measured from the start of
	// the run.
	Start time.Duration
	// Every is the gap between consecutive departures.
	Every time.Duration
	// Downtime is how long each process stays down before rebooting.
	Downtime time.Duration
	// Rounds is how many full passes over the group to make (default 1).
	// Each pass displaces the current leader at least once, so more rounds
	// give the leaderless-window percentiles more samples.
	Rounds int
}

// Scenario describes one experiment cell.
type Scenario struct {
	// Name labels the cell in reports.
	Name string
	// N is the number of workstations (each runs one service instance and
	// one application process in the observed group).
	N int
	// Groups is how many groups every process joins (default 1). All
	// groups share the same peer set — the paper's shared-infrastructure
	// setting — and QoS metrics are observed on the first group; the
	// others exist to load the shared packet plane.
	Groups int
	// Candidates is how many of the N processes compete for leadership
	// (the first Candidates by id). Zero means all.
	Candidates int
	// Algorithm selects the election core.
	Algorithm stableleader.Algorithm
	// QoS is the failure detection requirement; zero means qos.Default().
	QoS qos.Spec
	// Link is the behaviour of every directed link.
	Link LinkModel
	// ProcessFaults, when non-nil, crashes and recovers every process.
	ProcessFaults *Faults
	// LinkFaults, when non-nil, crashes and recovers every directed link.
	LinkFaults *Faults
	// Duration is the simulated experiment length (after Warmup).
	Duration time.Duration
	// Warmup precedes measurement: group formation is excluded, like the
	// paper's steady-state measurements. Default 30s.
	Warmup time.Duration
	// Seed makes the run reproducible. Same scenario + same seed = same
	// result, bit for bit.
	Seed int64
	// HelloInterval overrides the gossip period (default 1s).
	HelloInterval time.Duration
	// DisableStartupGrace removes the join-time self-claim suppression;
	// for the ablation experiment only (see BenchmarkAblationStartupGrace).
	DisableStartupGrace bool
	// DisableCoalescing switches the outbound packet scheduler off: every
	// message ships as its own datagram, the pre-batching wire behaviour.
	// For the multigroup and client-fanout ablation experiments (it
	// applies to servers and simulated clients alike).
	DisableCoalescing bool
	// Clients is how many simulated non-member client processes consult
	// the service through the remote client plane. Each subscribes to
	// every group of the scenario across all N service endpoints
	// (spreading initial load, failing over on silence and tombstones).
	// Zero means no client plane.
	Clients int
	// ClientTTL is the lease the clients request (default 10s).
	ClientTTL time.Duration
	// ClientChurn, when non-nil, crashes and recovers every client with
	// the given exponential process — exercising server-side lease expiry
	// and client restarts under load.
	ClientChurn *Faults
	// Dup and Reorder extend every link with the injector's duplication and
	// hold-back knobs (see simnet.LinkModel); ReorderDelay tunes the
	// hold-back. All zero by default, which replays byte-identically with
	// pre-knob scenarios.
	Dup          float64
	Reorder      float64
	ReorderDelay time.Duration
	// ClockSkew, when nonzero, gives every workstation lifetime a fixed
	// clock offset drawn uniformly from [-ClockSkew, +ClockSkew]: its
	// timestamps (accusation times, heartbeat send times) shift while its
	// timers stay exact. Exercises the protocol's independence from
	// synchronized clocks.
	ClockSkew time.Duration
	// Partition, when non-nil, cuts the group in two and optionally heals.
	Partition *PartitionPlan
	// RollingRestart, when non-nil, gracefully restarts every workstation
	// in turn.
	RollingRestart *RestartPlan
	// DisableHandover turns off the warm-standby/planned-handover plane:
	// graceful departures fail over reactively (peers wait out the failure
	// detector). The before/after baseline of the failover experiment.
	DisableHandover bool
}

// withDefaults fills unset fields.
func (sc Scenario) withDefaults() Scenario {
	if sc.N == 0 {
		sc.N = 12
	}
	if sc.Groups <= 0 {
		sc.Groups = 1
	}
	if sc.Candidates <= 0 || sc.Candidates > sc.N {
		sc.Candidates = sc.N
	}
	if sc.QoS == (qos.Spec{}) {
		sc.QoS = qos.Default()
	}
	if sc.Link.MeanDelay <= 0 {
		sc.Link.MeanDelay = 25 * time.Microsecond
	}
	if sc.Warmup <= 0 {
		sc.Warmup = 30 * time.Second
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	return sc
}

// PerEventCPUCost converts protocol event counts (messages sent, messages
// received, timer fires) into CPU time for the paper-style "CPU % per
// workstation" figure. The 5µs constant is calibrated so that the paper's
// 12-workstation S2/S3 cells land near its reported 0.3%/0.04%; only the
// scaling *shape* (linear vs quadratic in group size) is meaningful.
const PerEventCPUCost = 5 * time.Microsecond

// Result is the outcome of one scenario run.
type Result struct {
	// Scenario echoes the (defaulted) input.
	Scenario Scenario
	// Metrics holds the paper's QoS metrics.
	Metrics metrics.Report
	// CPUPercent is the modelled CPU share per workstation.
	CPUPercent float64
	// KBPerSec is wire traffic (sent+received, one UDP/IP header per
	// datagram) per workstation per second, in KB/s.
	KBPerSec float64
	// MsgsPerSec is protocol messages (sent+received) per workstation per
	// second; messages inside a coalesced batch count individually.
	MsgsPerSec float64
	// DatagramsPerSec is datagrams (sent+received) per workstation per
	// second: the syscall/packet rate the coalescing plane minimises.
	DatagramsPerSec float64
	// TotalDatagramsSent and TotalMsgsSent are system-wide send totals —
	// servers and simulated clients together — the figure of merit for
	// the client-plane fan-out sweep.
	TotalDatagramsSent int64
	TotalMsgsSent      int64
	// EventsSimulated counts simulator callbacks executed.
	EventsSimulated int64
	// WallTime is how long the simulation took in real time.
	WallTime time.Duration
}

// groupID is the group every scenario elects in and observes.
const groupID id.Group = "g"

// extraGroup names the i-th additional group (zero-based) of a multigroup
// scenario.
func extraGroup(i int) id.Group { return id.Group(fmt.Sprintf("g%02d", i+2)) }

// procName returns the id of workstation i (zero-based). Ids sort in
// workstation order, which matters for OmegaID.
func procName(i int) id.Process { return id.Process(fmt.Sprintf("w%02d", i+1)) }

// clientName returns the id of simulated client i (zero-based).
func clientName(i int) id.Process { return id.Process(fmt.Sprintf("c%05d", i+1)) }

// allGroups lists every group of the scenario (the observed one first).
func (sc Scenario) allGroups() []id.Group {
	out := []id.Group{groupID}
	for i := 0; i < sc.Groups-1; i++ {
		out = append(out, extraGroup(i))
	}
	return out
}

// Run executes one scenario and returns its measurements.
func Run(sc Scenario) (Result, error) {
	sc = sc.withDefaults()
	if sc.Duration <= 0 {
		return Result{}, errors.New("sim: Scenario.Duration must be positive")
	}
	if err := sc.QoS.Validate(); err != nil {
		return Result{}, err
	}
	wallStart := time.Now()

	eng := simnet.NewEngine(sc.Seed)
	net := simnet.NewNetwork(eng, simnet.LinkModel{
		Loss:         sc.Link.Loss,
		MeanDelay:    sc.Link.MeanDelay,
		Dup:          sc.Dup,
		Reorder:      sc.Reorder,
		ReorderDelay: sc.ReorderDelay,
	})

	procs := make([]id.Process, sc.N)
	for i := range procs {
		procs[i] = procName(i)
		net.Attach(procs[i])
	}

	obs := metrics.NewObserver(groupID, simnet.Epoch().Add(sc.Warmup))
	cl := &cluster{sc: sc, eng: eng, net: net, obs: obs, procs: procs,
		runtimes:      make(map[id.Process]*simnet.NodeRuntime),
		nodes:         make(map[id.Process]*core.Node),
		crashed:       make(map[id.Process]bool),
		clientRTs:     make(map[id.Process]*simnet.NodeRuntime),
		clientCrashed: make(map[id.Process]bool)}

	// Start every service instance with a small jitter, as independent
	// workstations would boot.
	for i, p := range procs {
		p := p
		candidate := i < sc.Candidates
		startJitter := time.Duration(eng.Rand().Int63n(int64(100 * time.Millisecond)))
		eng.After(startJitter, func() { cl.start(p, candidate) })
	}

	// The simulated client population: non-member processes consulting
	// the service through the remote client plane, booting spread over a
	// few seconds (a thundering subscribe herd is not the steady state
	// the sweep measures).
	clients := make([]id.Process, sc.Clients)
	for i := range clients {
		clients[i] = clientName(i)
		net.Attach(clients[i])
	}
	for _, p := range clients {
		p := p
		startJitter := time.Duration(eng.Rand().Int63n(int64(3 * time.Second)))
		eng.After(startJitter, func() { cl.startClient(p) })
	}

	// Fault injection.
	if f := sc.ProcessFaults; f != nil {
		for _, p := range procs {
			p := p
			simnet.ScheduleFaults(eng, simnet.FaultPlan{MTBF: f.MTBF, MTTR: f.MTTR},
				func() { cl.crash(p) },
				func() { cl.recover(p) },
			)
		}
	}
	if f := sc.LinkFaults; f != nil {
		simnet.ScheduleAllLinkFaults(eng, net, procs,
			simnet.FaultPlan{MTBF: f.MTBF, MTTR: f.MTTR})
	}
	if f := sc.ClientChurn; f != nil {
		for _, p := range clients {
			p := p
			simnet.ScheduleFaults(eng, simnet.FaultPlan{MTBF: f.MTBF, MTTR: f.MTTR},
				func() { cl.crashClient(p) },
				func() { cl.recoverClient(p) },
			)
		}
	}
	if pp := sc.Partition; pp != nil {
		m := pp.Minority
		if m <= 0 || m >= sc.N {
			m = sc.N / 2
		}
		simnet.SchedulePartition(eng, net, procs[:sc.N-m], procs[sc.N-m:], pp.At, pp.Heal)
	}
	if rp := sc.RollingRestart; rp != nil {
		rounds := rp.Rounds
		if rounds <= 0 {
			rounds = 1
		}
		for r := 0; r < rounds; r++ {
			base := rp.Start + time.Duration(r*len(procs))*rp.Every
			for i, p := range procs {
				p := p
				at := base + time.Duration(i)*rp.Every
				eng.After(at, func() { cl.leave(p) })
				eng.After(at+rp.Downtime, func() { cl.recover(p) })
			}
		}
	}

	end := simnet.Epoch().Add(sc.Warmup + sc.Duration)
	eng.RunUntil(end)
	report := obs.Finish(eng.Now())

	// Cost accounting. Per-workstation figures cover the N service
	// endpoints only (the paper's per-workstation costs); the system-wide
	// send totals include the client population — the fan-out sweep's
	// figure of merit.
	isServer := make(map[id.Process]bool, len(procs))
	for _, p := range procs {
		isServer[p] = true
	}
	var msgs, datagrams, bytes, events int64
	var totalDgramsSent, totalMsgsSent int64
	for _, ep := range net.Endpoints() {
		c := ep.Counters()
		totalDgramsSent += c.DatagramsSent
		totalMsgsSent += c.MsgsSent
		if !isServer[ep.ID()] {
			continue
		}
		msgs += c.MsgsSent + c.MsgsRecv
		datagrams += c.DatagramsSent + c.DatagramsRecv
		bytes += c.BytesSent + c.BytesRecv
		events += c.MsgsSent + c.MsgsRecv + c.TimerFires
	}
	seconds := (sc.Warmup + sc.Duration).Seconds()
	n := float64(sc.N)
	res := Result{
		Scenario:           sc,
		Metrics:            report,
		CPUPercent:         100 * float64(events) * PerEventCPUCost.Seconds() / (n * seconds),
		KBPerSec:           float64(bytes) / n / seconds / 1024,
		MsgsPerSec:         float64(msgs) / n / seconds,
		DatagramsPerSec:    float64(datagrams) / n / seconds,
		TotalDatagramsSent: totalDgramsSent,
		TotalMsgsSent:      totalMsgsSent,
		EventsSimulated:    eng.EventsFired(),
		WallTime:           time.Since(wallStart),
	}
	return res, nil
}

// cluster manages process lifecycles inside one run.
type cluster struct {
	sc       Scenario
	eng      *simnet.Engine
	net      *simnet.Network
	obs      *metrics.Observer
	procs    []id.Process
	runtimes map[id.Process]*simnet.NodeRuntime
	nodes    map[id.Process]*core.Node
	crashed  map[id.Process]bool

	clientRTs     map[id.Process]*simnet.NodeRuntime
	clientCrashed map[id.Process]bool
}

// start boots a service instance for p (fresh incarnation). A boot racing
// an already-injected crash is suppressed (the workstation is down).
func (cl *cluster) start(p id.Process, candidate bool) {
	if cl.crashed[p] || cl.runtimes[p] != nil {
		return
	}
	rt := simnet.NewNodeRuntime(cl.net, p)
	cl.runtimes[p] = rt
	if d := cl.sc.ClockSkew; d > 0 {
		// Per-lifetime skew from the node-local stream: a skew of zero
		// draws nothing, so skew-free scenarios replay byte-identically.
		rt.SetSkew(time.Duration(rt.Rand().Int63n(int64(2*d)+1)) - d)
	}
	nodeOpts := []core.NodeOption{core.WithCoalescing(!cl.sc.DisableCoalescing)}
	if cl.sc.Clients > 0 {
		nodeOpts = append(nodeOpts, core.WithClientPlane())
	}
	node := core.NewNode(p, rt, nodeOpts...)
	cl.nodes[p] = node
	cl.net.SetUp(p, true, node)
	cl.obs.NodeUp(cl.eng.Now(), p, node.Incarnation())
	// A join is considered complete when the service first answers a
	// leader query (the observer handles that), or after this bound — a
	// genuinely leaderless group cannot hide behind "still joining".
	joinBound := 2 * cl.sc.QoS.DetectionTime
	cl.eng.After(joinBound, func() {
		if cl.runtimes[p] == rt {
			cl.obs.MarkJoined(cl.eng.Now(), p)
		}
	})
	opts := core.JoinOptions{
		Candidate:           candidate,
		Algorithm:           election.Kind(cl.sc.Algorithm),
		QoS:                 cl.sc.QoS,
		Seeds:               cl.procs,
		HelloInterval:       cl.sc.HelloInterval,
		DisableStartupGrace: cl.sc.DisableStartupGrace,
		DisableHandover:     cl.sc.DisableHandover,
		OnLeaderChange: func(li core.LeaderInfo) {
			cl.obs.LeaderView(cl.eng.Now(), p, li.Leader, li.Incarnation, li.Elected)
		},
	}
	if err := node.Join(groupID, opts); err != nil {
		panic(fmt.Sprintf("sim: join failed for %s: %v", p, err))
	}
	// The additional groups of a multigroup scenario load the shared
	// infrastructure (per-peer estimators, pacers, packet scheduler) with
	// the same peer set but are not observed.
	extra := opts
	extra.OnLeaderChange = nil
	for i := 0; i < cl.sc.Groups-1; i++ {
		if err := node.Join(extraGroup(i), extra); err != nil {
			panic(fmt.Sprintf("sim: join %s failed for %s: %v", extraGroup(i), p, err))
		}
	}
}

// crash kills p's service instance: its timers die, its endpoint goes
// down, in-flight messages to it will be dropped on delivery.
func (cl *cluster) crash(p id.Process) {
	cl.crashed[p] = true
	if rt := cl.runtimes[p]; rt != nil {
		rt.Shutdown()
		delete(cl.runtimes, p)
	}
	delete(cl.nodes, p)
	cl.net.SetUp(p, false, nil)
	cl.obs.NodeDown(cl.eng.Now(), p)
}

// leave shuts p down gracefully: every group is departed with a LEAVE —
// preceded by a planned handover when p leads and the plane is on — before
// the endpoint goes dark, so the farewell datagrams are already in flight.
func (cl *cluster) leave(p id.Process) {
	node := cl.nodes[p]
	if cl.crashed[p] || node == nil {
		return
	}
	cl.crashed[p] = true
	for _, g := range cl.sc.allGroups() {
		if err := node.Leave(g); err != nil {
			panic(fmt.Sprintf("sim: leave %s failed for %s: %v", g, p, err))
		}
	}
	if rt := cl.runtimes[p]; rt != nil {
		rt.Shutdown()
		delete(cl.runtimes, p)
	}
	delete(cl.nodes, p)
	cl.net.SetUp(p, false, nil)
	cl.obs.NodeLeft(cl.eng.Now(), p)
}

// recover restarts p with a new incarnation. Candidacy is preserved from
// the scenario definition.
func (cl *cluster) recover(p id.Process) {
	cl.crashed[p] = false
	candidate := false
	for i, q := range cl.procs {
		if q == p {
			candidate = i < cl.sc.Candidates
		}
	}
	cl.start(p, candidate)
}

// startClient boots one simulated client (fresh incarnation): it
// subscribes to every group of the scenario across all service endpoints.
// A boot racing an already-injected crash is suppressed.
func (cl *cluster) startClient(p id.Process) {
	if cl.clientCrashed[p] || cl.clientRTs[p] != nil {
		return
	}
	rt := simnet.NewNodeRuntime(cl.net, p)
	cl.clientRTs[p] = rt
	ttl := cl.sc.ClientTTL
	node := clientcore.NewNode(rt, clientcore.Config{
		Self:              p,
		Endpoints:         cl.procs,
		TTL:               ttl,
		DisableCoalescing: cl.sc.DisableCoalescing,
	})
	cl.net.SetUp(p, true, node)
	for _, g := range cl.sc.allGroups() {
		node.Subscribe(g)
	}
}

// crashClient kills one simulated client without goodbye: its lease must
// expire server-side.
func (cl *cluster) crashClient(p id.Process) {
	cl.clientCrashed[p] = true
	if rt := cl.clientRTs[p]; rt != nil {
		rt.Shutdown()
		delete(cl.clientRTs, p)
	}
	cl.net.SetUp(p, false, nil)
}

// recoverClient restarts a crashed client with a fresh incarnation (its
// new subscriptions supersede the stale server-side registrations).
func (cl *cluster) recoverClient(p id.Process) {
	cl.clientCrashed[p] = false
	cl.startClient(p)
}
