// Package fd implements the monitoring side of Chen et al.'s failure
// detector with QoS (Section 3 of the paper). A Monitor watches one remote
// process through the ALIVE heartbeats it receives:
//
//   - every heartbeat feeds the shared link quality estimator;
//   - the NFD-S freshness rule keeps the remote trusted until
//     sendTime + interval + δ of the freshest heartbeat;
//   - a periodic reconfiguration step recomputes (η, δ) from the QoS spec
//     and the current link estimate, and asks the remote — through a RATE
//     message issued by the host — to adjust its sending interval.
//
// Trust/suspect transitions are delivered to the host synchronously on the
// node's event loop.
package fd

import (
	"sync"
	"time"

	"stableleader/id"
	"stableleader/internal/clock"
	"stableleader/internal/linkest"
	"stableleader/internal/obs"
	"stableleader/qos"
)

// DefaultReconfigureInterval is how often a monitor re-runs the
// configurator against fresh link estimates.
const DefaultReconfigureInterval = time.Second

// rateChangeThreshold is the relative change in the computed heartbeat
// interval that moves the agreed one (see Rate) and so triggers new RATE
// requests to the sender; smaller drifts are absorbed silently to avoid
// RATE chatter.
const rateChangeThreshold = 0.10

// Config assembles a Monitor's dependencies.
type Config struct {
	// Clock supplies time and timers on the host's event loop.
	Clock clock.Clock
	// Spec is the QoS requirement for detecting this process's crash.
	Spec qos.Spec
	// Estimator is the (possibly shared) link quality estimator for the
	// incoming link from the monitored process.
	Estimator *linkest.Estimator
	// OnEdge is called on every trust/suspect transition.
	OnEdge func(trusted bool)
	// RequestRate asks the monitored process to send heartbeats at the
	// given interval (the host wraps this into a RATE message).
	RequestRate func(interval time.Duration)
	// OnReconfigure, if set, is called whenever a reconfiguration step
	// changed the monitor's (η, δ) parameters. Unlike RequestRate it is not
	// threshold-gated: any parameter movement is reported, so hosts can
	// surface the configurator's behaviour to observers.
	OnReconfigure func(params qos.Params)
	// ReconfigureInterval overrides DefaultReconfigureInterval when positive.
	ReconfigureInterval time.Duration
	// Rate, when set, is the interval agreement this monitor shares with
	// every other monitor its process runs on the same remote process at
	// the same Spec (see Rates); a monitor given none agrees with itself.
	Rate *Rate
	// Obs, when set, receives the monitor's counters (heartbeats
	// observed, reconfigurations adopted) on the owning event loop.
	// Every obs.Shard method is nil-safe, so the zero Config is fine.
	Obs *obs.Shard
}

// Rate is the heartbeat interval one process asks of one remote process
// at one QoS spec, agreed among all the monitors that share it. Each
// monitor computes its own η from the link estimate as it stands at its
// own reconfiguration, and estimates a hair apart land on different
// points of the configurator's grid; a sender asked for different
// intervals by the groups of one peer beats for them at different
// instants and can never share a datagram between them. So the RATE
// hysteresis lives here rather than in each monitor: the standing interval
// moves only when some monitor's fresh η drifts from it by more than
// rateChangeThreshold, and every monitor asks for exactly the standing
// one. The monitors sharing a Rate judge the same link by the same
// estimate (linkest.Pool), so their η differ by a grid step at most, never
// for long by more than the threshold: nothing here arbitrates between
// lasting disagreement. Safe for concurrent use; touched once per monitor
// per reconfiguration, never per heartbeat.
type Rate struct {
	mu    sync.Mutex
	asked time.Duration // guarded by mu
}

// agree folds one monitor's freshly computed interval into the agreement
// and returns the interval to ask for.
func (r *Rate) agree(want time.Duration) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.asked <= 0 || relativeDiff(want, r.asked) > rateChangeThreshold {
		r.asked = want
	}
	return r.asked
}

// Rates hands out the Rate of each (remote process, spec) pair. One Rates
// serves every monitor of a process: a host running several protocol nodes
// (one per shard) shares it among them. The zero value is ready to use.
type Rates struct {
	mu sync.Mutex
	m  map[rateKey]*Rate // guarded by mu
}

type rateKey struct {
	p    id.Process
	spec qos.Spec
}

// For returns the Rate monitors of p at spec share.
func (rs *Rates) For(p id.Process, spec qos.Spec) *Rate {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	k := rateKey{p, spec}
	r := rs.m[k]
	if r == nil {
		if rs.m == nil {
			rs.m = make(map[rateKey]*Rate)
		}
		r = new(Rate)
		rs.m[k] = r
	}
	return r
}

// Monitor is the per-(group, remote process) failure detector state.
type Monitor struct {
	cfg     Config
	params  qos.Params
	trusted bool
	// deadline is the current freshness deadline; zero until the first
	// heartbeat arrives.
	deadline time.Time
	// requested is the last interval communicated to the sender.
	requested time.Duration
	// observed is the sending interval advertised by the freshest
	// heartbeat seen since the last request was issued; zero when nothing
	// has arrived since. If it drifts from requested, the RATE message was
	// lost (or the sender restarted): the request is repeated at the next
	// reconfiguration. Without this, a single lost RATE leaves the link
	// heartbeating slower than the configured timeout assumes, quietly
	// voiding the QoS guarantee. A sender heard nothing from since the
	// request — an ΩL follower silent on purpose — is no evidence of being
	// ignored, and is not asked again until it speaks.
	observed time.Duration

	// deadlineTimer and reconfTimer are re-armable: created once with the
	// monitor and re-armed in place for its whole lifetime. On a
	// wheel-backed clock a re-arm is an O(1) pointer splice — the monitor
	// re-arms deadlineTimer on every heartbeat, the steady-state hot path.
	deadlineTimer clock.Rearmer
	reconfTimer   clock.Rearmer
	stopped       bool
}

// NewMonitor creates a monitor in the suspected state (nothing has been
// heard yet) and starts its reconfiguration loop. The initial parameters
// come from the configurator applied to the estimator's current snapshot,
// and the initial rate is requested immediately.
func NewMonitor(cfg Config) *Monitor {
	if cfg.ReconfigureInterval <= 0 {
		cfg.ReconfigureInterval = DefaultReconfigureInterval
	}
	if cfg.Rate == nil {
		cfg.Rate = new(Rate)
	}
	m := &Monitor{cfg: cfg}
	m.deadlineTimer = clock.NewTimer(cfg.Clock, m.expire)
	m.reconfTimer = clock.NewTimer(cfg.Clock, m.reconfTick)
	m.params = qos.Configure(cfg.Spec, statsOf(cfg.Estimator))
	m.request(cfg.Rate.agree(m.params.Interval))
	m.armReconf()
	return m
}

// armReconf schedules the next configurator run on the beat grid: whole
// multiples of ReconfigureInterval, so every monitor of a loop — whenever
// it was created — reconfigures in the same wake-up, the one a heartbeat
// beat falls on whenever η divides the interval.
func (m *Monitor) armReconf() {
	now := m.cfg.Clock.Now()
	m.reconfTimer.Reset(clock.NextBeat(now, m.cfg.ReconfigureInterval).Sub(now))
}

// request records want as the interval asked of the sender and issues the
// RATE. Evidence of the sender's behaviour starts afresh: only a heartbeat
// observed from here on can show this request ignored.
func (m *Monitor) request(want time.Duration) {
	m.requested = want
	m.observed = 0
	if m.cfg.RequestRate != nil {
		m.cfg.RequestRate(want)
	}
}

// statsOf converts the estimator snapshot into configurator input.
func statsOf(e *linkest.Estimator) qos.LinkStats {
	s := e.Snapshot()
	return qos.LinkStats{Loss: s.Loss, MeanDelay: s.MeanDelay, StdDelay: s.StdDelay}
}

// Params returns the monitor's current (η, δ).
func (m *Monitor) Params() qos.Params { return m.params }

// Trusted reports whether the remote process is currently trusted.
func (m *Monitor) Trusted() bool { return m.trusted }

// Deadline returns the current freshness deadline (zero before the first
// heartbeat).
func (m *Monitor) Deadline() time.Time { return m.deadline }

// Observe processes one heartbeat: the caller has already fed the link
// estimator; the monitor extends the freshness deadline if the heartbeat is
// fresh enough. sendTime and interval come from the message; now is the
// local receive time.
//
//leadervet:hotpath
func (m *Monitor) Observe(sendTime time.Time, interval time.Duration, now time.Time) {
	if m.stopped {
		return
	}
	m.cfg.Obs.Inc(obs.CHeartbeats)
	// Guard against a sender advertising an absurd interval.
	if interval <= 0 {
		interval = m.params.Interval
	}
	m.observed = interval
	candidate := sendTime.Add(interval + m.params.Timeout)
	if candidate.After(m.deadline) {
		m.deadline = candidate
		m.armDeadline(now)
		if !m.trusted {
			m.trusted = true
			m.edge(true)
		}
	}
}

// armDeadline (re)schedules the suspicion timer for the current deadline.
func (m *Monitor) armDeadline(now time.Time) {
	m.deadlineTimer.Reset(m.deadline.Sub(now))
}

// expire fires when the freshness deadline passes without a fresh heartbeat.
func (m *Monitor) expire() {
	if m.stopped {
		return
	}
	now := m.cfg.Clock.Now()
	if now.Before(m.deadline) {
		// The deadline moved after this timer was scheduled; re-arm.
		m.armDeadline(now)
		return
	}
	if m.trusted {
		m.trusted = false
		m.edge(false)
	}
}

// edge reports a transition to the host.
func (m *Monitor) edge(trusted bool) {
	if m.cfg.OnEdge != nil {
		m.cfg.OnEdge(trusted)
	}
}

// reconfTick is the periodic configurator run; it re-arms itself.
func (m *Monitor) reconfTick() {
	if m.stopped {
		return
	}
	m.reconfigure()
	m.armReconf()
}

// reconfigure recomputes (η, δ) from the latest link estimate and requests
// a new heartbeat rate when the agreed one moved — or when a heartbeat
// seen since the previous request shows the sender not honouring it (the
// RATE was lost on an unreliable link, or the sender restarted or resumed
// competing at its default).
func (m *Monitor) reconfigure() {
	prev := m.params
	m.params = qos.Configure(m.cfg.Spec, statsOf(m.cfg.Estimator))
	if m.params != prev {
		m.cfg.Obs.Inc(obs.CFDReconfigs)
		if m.cfg.OnReconfigure != nil {
			m.cfg.OnReconfigure(m.params)
		}
	}
	want := m.cfg.Rate.agree(m.params.Interval)
	ignored := m.observed > 0 && relativeDiff(m.observed, m.requested) > rateChangeThreshold
	if want != m.requested || ignored {
		m.request(want)
	}
}

// relativeDiff is |a-b| / b.
func relativeDiff(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	d := float64(a-b) / float64(b)
	if d < 0 {
		return -d
	}
	return d
}

// Stop cancels all timers. The monitor must not be used afterwards.
func (m *Monitor) Stop() {
	m.stopped = true
	m.deadlineTimer.Stop()
	m.reconfTimer.Stop()
}
