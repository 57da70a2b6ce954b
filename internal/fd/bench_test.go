package fd

// Benchmarks for the monitoring hot path: one Observe per received ALIVE,
// re-arming the freshness deadline each time. On a wheel-backed clock the
// re-arm is an O(1) splice — zero allocations, zero runtime timers — where
// the AfterFunc path allocated a timer per heartbeat per monitor.

import (
	"testing"
	"time"

	"stableleader/internal/clock"
	"stableleader/internal/linkest"
	"stableleader/internal/obs"
	"stableleader/internal/timerwheel"
	"stableleader/qos"
)

// wheelClock is a test stand-in for the service runtime: a manually
// advanced clock whose timers live on a hashed timer wheel.
type wheelClock struct {
	now time.Time
	w   *timerwheel.Wheel
}

func newWheelClock() *wheelClock {
	now := time.Date(2008, time.March, 1, 0, 0, 0, 0, time.UTC)
	return &wheelClock{now: now, w: timerwheel.New(now, timerwheel.DefaultTick)}
}

func (c *wheelClock) Now() time.Time { return c.now }

func (c *wheelClock) AfterFunc(d time.Duration, fn func()) clock.Timer {
	t := c.NewTimer(fn)
	t.Reset(d)
	return t
}

func (c *wheelClock) NewTimer(fn func()) clock.Rearmer {
	return &wheelClockTimer{c: c, e: timerwheel.NewEntry(fn)}
}

func (c *wheelClock) advance(d time.Duration) {
	c.now = c.now.Add(d)
	c.w.Advance(c.now)
}

type wheelClockTimer struct {
	c *wheelClock
	e *timerwheel.Entry
}

func (t *wheelClockTimer) Reset(d time.Duration) bool {
	pending := t.e.Pending()
	t.c.w.Schedule(t.e, t.c.now.Add(d))
	return pending
}

func (t *wheelClockTimer) Stop() bool { return t.c.w.Stop(t.e) }

// BenchmarkMonitorObserve is the per-ALIVE steady state: fresh heartbeat,
// deadline extension, wheel re-arm, periodic wheel advance (which also
// runs the reconfiguration ticks a real monitor pays). The allocs/op
// column is the acceptance metric: 0 means no runtime timer — in fact no
// allocation at all — per processed heartbeat. The obs shard is wired
// exactly as the service runtime wires it, so this measures the
// production (instrumented) path.
func BenchmarkMonitorObserve(b *testing.B) {
	c := newWheelClock()
	sh := obs.NewRegistry(1, obs.FlightDepthDefault).Shard(0)
	m := NewMonitor(Config{Clock: c, Spec: qos.Default(), Estimator: linkest.New(), Obs: sh})
	defer m.Stop()
	const interval = 100 * time.Millisecond
	sendTime := c.now
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.advance(interval)
		sendTime = sendTime.Add(interval)
		m.Observe(sendTime, interval, c.now)
	}
}

// TestObserveAllocFree asserts the acceptance criterion directly: zero
// allocations per processed heartbeat on a wheel-backed clock. The huge
// reconfigure interval keeps the (allocating, once-a-second) configurator
// step out of the measurement — it is not part of the per-ALIVE path.
func TestObserveAllocFree(t *testing.T) {
	c := newWheelClock()
	m := NewMonitor(Config{
		Clock:               c,
		Spec:                qos.Default(),
		Estimator:           linkest.New(),
		ReconfigureInterval: 24 * time.Hour,
		Obs:                 obs.NewRegistry(1, obs.FlightDepthDefault).Shard(0),
	})
	defer m.Stop()
	const interval = 100 * time.Millisecond
	sendTime := c.now
	if allocs := testing.AllocsPerRun(1000, func() {
		c.advance(interval)
		sendTime = sendTime.Add(interval)
		m.Observe(sendTime, interval, c.now)
	}); allocs != 0 {
		t.Fatalf("Observe allocated %.1f objects per heartbeat, want 0", allocs)
	}
}
