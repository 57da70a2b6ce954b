package fd

import (
	"testing"
	"time"

	"stableleader/internal/clock"
	"stableleader/internal/linkest"
	"stableleader/internal/simnet"
	"stableleader/qos"
)

// harness wires a monitor to a virtual clock and records its outputs.
type harness struct {
	eng   *simnet.Engine
	est   *linkest.Estimator
	mon   *Monitor
	edges []bool
	rates []time.Duration
}

func newHarness(t *testing.T, spec qos.Spec) *harness {
	t.Helper()
	h := &harness{eng: simnet.NewEngine(1), est: linkest.New()}
	h.mon = NewMonitor(Config{
		Clock:       clockAdapter{h.eng},
		Spec:        spec,
		Estimator:   h.est,
		OnEdge:      func(trusted bool) { h.edges = append(h.edges, trusted) },
		RequestRate: func(iv time.Duration) { h.rates = append(h.rates, iv) },
	})
	return h
}

// clockAdapter exposes the engine as a clock.Clock.
type clockAdapter struct{ eng *simnet.Engine }

func (c clockAdapter) Now() time.Time { return c.eng.Now() }
func (c clockAdapter) AfterFunc(d time.Duration, fn func()) clock.Timer {
	return c.eng.After(d, fn)
}

// heartbeat feeds one heartbeat stamped now with the given interval, as the
// host would after receiving an ALIVE.
func (h *harness) heartbeat(seq uint64, interval time.Duration) {
	now := h.eng.Now()
	h.est.Observe("g", seq, 0)
	h.mon.Observe(now, interval, now)
}

func TestInitialRateRequested(t *testing.T) {
	h := newHarness(t, qos.Default())
	if len(h.rates) != 1 {
		t.Fatalf("rates requested at construction = %d, want 1", len(h.rates))
	}
	if h.rates[0] != h.mon.Params().Interval {
		t.Errorf("requested %v, params say %v", h.rates[0], h.mon.Params().Interval)
	}
}

func TestTrustOnFirstHeartbeatSuspectOnSilence(t *testing.T) {
	h := newHarness(t, qos.Default())
	if h.mon.Trusted() {
		t.Fatal("monitor must start suspected (nothing heard yet)")
	}
	interval := 100 * time.Millisecond
	h.heartbeat(1, interval)
	if !h.mon.Trusted() {
		t.Fatal("first heartbeat should establish trust")
	}
	if len(h.edges) != 1 || !h.edges[0] {
		t.Fatalf("edges = %v, want [true]", h.edges)
	}
	// Silence: suspicion must fire by interval + timeout.
	h.eng.RunFor(interval + h.mon.Params().Timeout + time.Millisecond)
	if h.mon.Trusted() {
		t.Fatal("monitor still trusting after the freshness deadline")
	}
	if len(h.edges) != 2 || h.edges[1] {
		t.Fatalf("edges = %v, want [true false]", h.edges)
	}
}

func TestDetectionWithinBound(t *testing.T) {
	spec := qos.Default()
	h := newHarness(t, spec)
	// Steady heartbeats from a sender that obeys RATE requests (it always
	// advertises the monitor's current interval), then a crash.
	var lastSend time.Time
	var interval time.Duration
	for i := 1; i <= 500; i++ {
		interval = h.mon.Params().Interval
		lastSend = h.eng.Now()
		h.heartbeat(uint64(i), interval)
		h.eng.RunFor(interval)
	}
	// The sender is dead now. Detection must happen within interval+delta
	// of the last heartbeat, which the configurator keeps at or under TdU.
	deadline := lastSend.Add(interval + h.mon.Params().Timeout)
	for h.mon.Trusted() {
		if !h.eng.Now().Before(deadline.Add(time.Millisecond)) {
			t.Fatalf("still trusted at %v, deadline was %v", h.eng.Now(), deadline)
		}
		h.eng.RunFor(time.Millisecond)
	}
	if detection := h.eng.Now().Sub(lastSend); detection > spec.DetectionTime+2*time.Millisecond {
		t.Errorf("detection took %v from last heartbeat, bound is %v", detection, spec.DetectionTime)
	}
}

func TestNoFalseSuspicionUnderSteadyHeartbeats(t *testing.T) {
	h := newHarness(t, qos.Default())
	interval := h.mon.Params().Interval
	for i := 1; i <= 2000; i++ {
		h.heartbeat(uint64(i), interval)
		h.eng.RunFor(interval)
	}
	for _, e := range h.edges[1:] {
		if !e {
			t.Fatal("monitor suspected a steadily heartbeating process")
		}
	}
}

func TestReTrustAfterResume(t *testing.T) {
	h := newHarness(t, qos.Default())
	interval := 50 * time.Millisecond
	h.heartbeat(1, interval)
	h.eng.RunFor(2 * time.Second) // silence: suspicion
	if h.mon.Trusted() {
		t.Fatal("expected suspicion after 2s of silence")
	}
	h.heartbeat(2, interval)
	if !h.mon.Trusted() {
		t.Fatal("resumed heartbeats should restore trust")
	}
	want := []bool{true, false, true}
	if len(h.edges) != len(want) {
		t.Fatalf("edges = %v, want %v", h.edges, want)
	}
}

func TestStaleHeartbeatDoesNotRegressDeadline(t *testing.T) {
	h := newHarness(t, qos.Default())
	interval := 100 * time.Millisecond
	now := h.eng.Now()
	h.est.Observe("g", 5, 0)
	h.mon.Observe(now, interval, now)
	d1 := h.mon.Deadline()
	// A reordered heartbeat sent earlier arrives late: deadline unchanged.
	h.est.Observe("g", 4, 0)
	h.mon.Observe(now.Add(-3*interval), interval, now)
	if !h.mon.Deadline().Equal(d1) {
		t.Errorf("deadline regressed from %v to %v", d1, h.mon.Deadline())
	}
}

func TestSenderIntervalGovernsDeadline(t *testing.T) {
	h := newHarness(t, qos.Default())
	// The sender declares a much longer interval than we asked for (e.g.
	// our RATE was lost): the monitor must wait interval+delta, not
	// suspect early.
	declared := 700 * time.Millisecond
	h.heartbeat(1, declared)
	h.eng.RunFor(declared + h.mon.Params().Timeout - time.Millisecond)
	if !h.mon.Trusted() {
		t.Fatal("suspected before the declared interval + timeout elapsed")
	}
	h.eng.RunFor(5 * time.Millisecond)
	if h.mon.Trusted() {
		t.Fatal("not suspected after the declared interval + timeout")
	}
}

func TestReconfigureRequestsNewRateWhenLinkDegrades(t *testing.T) {
	h := newHarness(t, qos.Default())
	initial := h.rates[0]
	// Feed the estimator a terrible link: 30% loss, 50ms delays.
	seq := uint64(0)
	rngDrop := 0
	for i := 0; i < 3000; i++ {
		seq++
		rngDrop++
		if rngDrop%3 == 0 {
			continue // lost heartbeat (gap)
		}
		h.est.Observe("g", seq, 50*time.Millisecond)
	}
	// Let several reconfiguration rounds run.
	h.eng.RunFor(5 * time.Second)
	if len(h.rates) < 2 {
		t.Fatalf("no new RATE requested after the link degraded (rates=%v)", h.rates)
	}
	last := h.rates[len(h.rates)-1]
	if last >= initial {
		t.Errorf("degraded link should demand faster heartbeats: %v -> %v", initial, last)
	}
}

func TestStopCancelsTimers(t *testing.T) {
	h := newHarness(t, qos.Default())
	h.heartbeat(1, 50*time.Millisecond)
	h.mon.Stop()
	edgesBefore := len(h.edges)
	h.eng.RunFor(time.Minute)
	if len(h.edges) != edgesBefore {
		t.Error("edges delivered after Stop")
	}
	if h.eng.Pending() != 0 {
		// Stopped timers may linger in the heap but must all be cancelled;
		// RunFor above drains them. Anything left pending would be a leak.
		t.Errorf("%d events still pending after Stop and a minute of draining", h.eng.Pending())
	}
}

func TestObserveAfterStopIgnored(t *testing.T) {
	h := newHarness(t, qos.Default())
	h.mon.Stop()
	h.heartbeat(1, 50*time.Millisecond)
	if h.mon.Trusted() || len(h.edges) != 0 {
		t.Error("stopped monitor processed a heartbeat")
	}
}

// TestLostRateIsRepeated is a regression test for a robustness gap found by
// the multi-seed stability sweep: if the initial RATE request is lost, the
// sender keeps heartbeating at its slow default while the monitor's timeout
// assumes the fast configured rate, silently voiding the QoS. The monitor
// must notice the advertised interval differs from its request and repeat
// the request.
func TestLostRateIsRepeated(t *testing.T) {
	h := newHarness(t, qos.Default())
	requested := h.rates[0]
	// The sender clearly ignores us: its heartbeats advertise a much
	// larger interval than requested.
	ignoredInterval := 4 * requested
	for i := 1; i <= 20; i++ {
		h.heartbeat(uint64(i), ignoredInterval)
		h.eng.RunFor(ignoredInterval)
	}
	if len(h.rates) < 2 {
		t.Fatalf("monitor never repeated its RATE request (rates=%v)", h.rates)
	}
}

// TestSilentSenderIsNotAskedAgain is the regression test for the RATE
// chatter ΩL followers used to draw: a peer that heartbeat at its default
// interval before our request reached it and then fell silent on purpose
// advertised "another interval" forever in the monitor's memory, so the
// request was repeated every reconfigure period with nobody sending. Only a
// heartbeat seen after a request is evidence of that request being ignored.
func TestSilentSenderIsNotAskedAgain(t *testing.T) {
	h := newHarness(t, qos.Default())
	defaultInterval := 2 * h.rates[0]
	for i := 1; i <= 3; i++ {
		h.heartbeat(uint64(i), defaultInterval)
		h.eng.RunFor(defaultInterval)
	}
	asked := len(h.rates)
	h.eng.RunFor(30 * time.Second)
	if repeats := len(h.rates) - asked; repeats > 1 {
		t.Fatalf("RATE repeated %d times toward a silent sender in 30s, want at most 1 (rates=%v)", repeats, h.rates)
	}
	// The follower starts competing again at its default: that heartbeat is
	// evidence, and the repair must come within one reconfigure period.
	asked = len(h.rates)
	h.heartbeat(4, defaultInterval)
	h.eng.RunFor(DefaultReconfigureInterval)
	if len(h.rates) != asked+1 {
		t.Fatalf("resumed sender at the wrong interval drew %d requests in one period, want 1", len(h.rates)-asked)
	}
}

// TestMonitorsOfOnePeerAgreeOnTheRate: two monitors of one remote process
// — two groups, or two shards of a host — whose link estimates put them a
// grid step apart ask for one interval, the standing one, and when the
// link changes for good they move together.
func TestMonitorsOfOnePeerAgreeOnTheRate(t *testing.T) {
	eng := simnet.NewEngine(1)
	var rates Rates
	type mon struct {
		est   *linkest.Estimator
		m     *Monitor
		asked []time.Duration
	}
	start := func(delay time.Duration) *mon {
		mo := &mon{est: linkest.New()}
		for seq := uint64(1); seq <= 100; seq++ {
			mo.est.Observe("g", seq, delay)
		}
		mo.m = NewMonitor(Config{
			Clock: clockAdapter{eng}, Spec: qos.Default(), Estimator: mo.est,
			Rate:        rates.For("p", qos.Default()),
			RequestRate: func(iv time.Duration) { mo.asked = append(mo.asked, iv) },
		})
		return mo
	}
	last := func(mo *mon) time.Duration { return mo.asked[len(mo.asked)-1] }

	a := start(70 * time.Millisecond)
	b := start(80 * time.Millisecond)
	if a.m.Params().Interval == b.m.Params().Interval {
		t.Fatalf("the two estimates configure the same η %v; the test needs them a step apart", a.m.Params().Interval)
	}
	eng.RunFor(3 * DefaultReconfigureInterval)
	if last(a) != last(b) {
		t.Errorf("monitors of one peer ask for %v and %v", last(a), last(b))
	}
	if len(a.asked) != 1 || len(b.asked) != 1 {
		t.Errorf("a hair's difference drew repeated requests: %v, %v", a.asked, b.asked)
	}
	if other := rates.For("q", qos.Default()); other == rates.For("p", qos.Default()) {
		t.Error("two peers share one Rate")
	}

	// The link gets much slower for both: the agreement follows the first
	// monitor to notice, and both ask again, for the same interval.
	for seq := uint64(101); seq <= 1500; seq++ {
		a.est.Observe("g", seq, 300*time.Millisecond)
		b.est.Observe("g", seq, 310*time.Millisecond)
	}
	eng.RunFor(DefaultReconfigureInterval)
	if len(a.asked) != 2 || len(b.asked) != 2 || last(a) != last(b) {
		t.Errorf("after the link slowed the monitors asked %v and %v, want one new common interval", a.asked, b.asked)
	}
	if relativeDiff(last(a), a.asked[0]) <= rateChangeThreshold {
		t.Errorf("the new interval %v is within the hysteresis of the old %v; the test needs a real change", last(a), a.asked[0])
	}
}

// TestReconfigurationsShareTheBeat: monitors created at unrelated instants
// run their configurator at the same instants, whole multiples of the
// reconfigure interval.
func TestReconfigurationsShareTheBeat(t *testing.T) {
	eng := simnet.NewEngine(1)
	est := linkest.New()
	// A link that keeps getting slower moves the parameters at every
	// configurator run, which makes every run visible.
	var seq uint64
	var worsen func()
	worsen = func() {
		seq++
		est.Observe("g", seq, time.Duration(seq)*5*time.Millisecond)
		eng.After(50*time.Millisecond, worsen)
	}
	worsen()
	runs := map[int][]time.Time{}
	for i := 0; i < 3; i++ {
		i := i
		NewMonitor(Config{
			Clock: clockAdapter{eng}, Spec: qos.Default(), Estimator: est,
			OnReconfigure: func(qos.Params) { runs[i] = append(runs[i], eng.Now()) },
		})
		eng.RunFor(317 * time.Millisecond)
	}
	eng.RunFor(10 * time.Second)
	for i := 0; i < 3; i++ {
		if len(runs[i]) < 5 {
			t.Fatalf("monitor %d reconfigured %d times in 10s", i, len(runs[i]))
		}
		for _, at := range runs[i] {
			if off := at.UnixNano() % int64(DefaultReconfigureInterval); off != 0 {
				t.Fatalf("monitor %d reconfigured %v off the %v grid", i, time.Duration(off), DefaultReconfigureInterval)
			}
		}
	}
}
