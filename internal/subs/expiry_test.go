package subs

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"stableleader/id"
	"stableleader/internal/clock"
	"stableleader/internal/obs"
	"stableleader/internal/timerwheel"
	"stableleader/internal/wire"
)

// wheelClock stands in for the real-time service: a manually advanced
// clock whose timers are entries on one hashed timer wheel, handed out
// through clock.TimerFactory as the Service hands out its shard wheel's.
// Stop unlinks an entry, so the wheel holds exactly what is armed. (The
// simnet clock of the other tests cannot show that: its fallback timers
// leave stopped events queued until their deadline.)
type wheelClock struct {
	now time.Time
	w   *timerwheel.Wheel
}

func newWheelClock() *wheelClock {
	now := time.Date(2008, time.June, 24, 0, 0, 0, 0, time.UTC)
	return &wheelClock{now: now, w: timerwheel.New(now, timerwheel.DefaultTick)}
}

func (c *wheelClock) Now() time.Time { return c.now }

func (c *wheelClock) AfterFunc(d time.Duration, fn func()) clock.Timer {
	t := c.NewTimer(fn)
	t.Reset(d)
	return t
}

func (c *wheelClock) NewTimer(fn func()) clock.Rearmer {
	return &wheelTimer{c: c, e: timerwheel.NewEntry(fn)}
}

// advance moves the clock forward, firing whatever came due.
func (c *wheelClock) advance(d time.Duration) {
	c.now = c.now.Add(d)
	c.w.Advance(c.now)
}

type wheelTimer struct {
	c *wheelClock
	e *timerwheel.Entry
}

func (t *wheelTimer) Reset(d time.Duration) bool {
	pending := t.e.Pending()
	t.c.w.Schedule(t.e, t.c.now.Add(d))
	return pending
}

func (t *wheelTimer) Stop() bool { return t.c.w.Stop(t.e) }

// newWheelRegistry returns a registry on a wheel clock, and the obs shard
// it counts into. Sent snapshots are released at once, as the real-time
// host releases them after marshalling.
func newWheelRegistry() (*Registry, *wheelClock, *obs.Shard) {
	c := newWheelClock()
	sh := obs.NewRegistry(1, obs.FlightDepthDefault).Shard(0)
	reg := New(Config{
		Self: "w01", Incarnation: 1, Clock: c, Obs: sh,
		Send:   func(_ id.Process, m wire.Message, _ bool) { wire.ReleaseOutbound(m) },
		Leader: func(id.Group) (View, bool) { return View{Leader: "w01", Elected: true}, true },
	})
	return reg, c, sh
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestRenewalStormHoldsNoPerRenewalState: a lease costs the registry the
// same memory however often its client renews it. 1 000 leases renewed
// every 10 ms through one 3 s TTL are 300 000 renewals. An expiry plane
// that remembers each renewal until its old deadline passes, as a lazily
// invalidated heap does (+11 MB here), lets any client grow the service's
// heap at will.
func TestRenewalStormHoldsNoPerRenewalState(t *testing.T) {
	const (
		leases = 1000
		ttl    = 3 * time.Second
		every  = 10 * time.Millisecond
	)
	reg, c, sh := newWheelRegistry()
	clients := make([]id.Process, leases)
	for i := range clients {
		clients[i] = id.Process(fmt.Sprintf("c%04d", i))
		reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: clients[i], Incarnation: 1, TTL: int64(ttl)})
	}
	renew := &wire.LeaseRenew{Group: "g", Incarnation: 1, TTL: int64(ttl)}
	before := liveHeap()
	for elapsed := time.Duration(0); elapsed < ttl; elapsed += every {
		c.advance(every)
		for _, p := range clients {
			renew.Sender = p
			reg.HandleRenew(renew)
		}
	}
	grown := liveHeap() - before
	t.Logf("live heap grew %.2f MB over %d renewals", float64(grown)/(1<<20), leases*int(ttl/every))
	if st := reg.Stats(); st.Leases != leases {
		t.Fatalf("%d leases after the storm, want %d", st.Leases, leases)
	}
	if n := sh.Snapshot().Get(obs.CLeaseExpiries); n != 0 {
		t.Fatalf("%d renewed leases expired", n)
	}
	if grown > 1<<20 {
		t.Fatalf("live heap grew %.2f MB while renewing %d leases, want < 1 MB: renewals are being remembered",
			float64(grown)/(1<<20), leases)
	}
	runtime.KeepAlive(reg)
}

// TestOnlyUnrenewedLeasesExpire: a lease its client withdrew, or one
// superseded by the client's next lifetime, takes its timer with it and
// never counts as an expiry; a lease left unrenewed counts exactly once.
func TestOnlyUnrenewedLeasesExpire(t *testing.T) {
	reg, c, sh := newWheelRegistry()
	ttl := int64(2 * time.Second)
	reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "gone", Incarnation: 1, TTL: ttl})
	reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "restarted", Incarnation: 1, TTL: ttl})
	reg.HandleUnsubscribe(&wire.Unsubscribe{Group: "g", Sender: "gone", Incarnation: 1})
	reg.HandleSubscribe(&wire.Subscribe{Group: "g", Sender: "restarted", Incarnation: 2, TTL: ttl})
	if n := c.w.Len(); n != 1 {
		t.Fatalf("%d timers armed for one live lease, want 1 (its own)", n)
	}
	c.advance(time.Second)
	reg.HandleRenew(&wire.LeaseRenew{Group: "g", Sender: "restarted", Incarnation: 2, TTL: ttl})
	c.advance(1500 * time.Millisecond) // past the first deadline, before the renewed one
	if n := sh.Snapshot().Get(obs.CLeaseExpiries); n != 0 {
		t.Fatalf("%d expiries counted for withdrawn and superseded leases, want 0", n)
	}
	c.advance(time.Second)
	if n := sh.Snapshot().Get(obs.CLeaseExpiries); n != 1 {
		t.Fatalf("%d expiries counted once the live lease went unrenewed, want 1", n)
	}
	if st := reg.Stats(); st.Leases != 0 || c.w.Len() != 0 {
		t.Fatalf("%+v and %d timers armed after the last lease expired, want none", st, c.w.Len())
	}
}

// TestStopDisarmsEveryLeaseTimer: after Stop (a crash of the serving
// node) no lease timer is left to fire.
func TestStopDisarmsEveryLeaseTimer(t *testing.T) {
	reg, c, sh := newWheelRegistry()
	for i := 0; i < 10; i++ {
		reg.HandleSubscribe(&wire.Subscribe{
			Group: "g", Sender: id.Process(fmt.Sprintf("c%d", i)), Incarnation: 1, TTL: int64(time.Second),
		})
	}
	reg.Stop()
	if n := c.w.Len(); n != 0 {
		t.Fatalf("%d timers still armed after Stop", n)
	}
	c.advance(time.Minute)
	if n := sh.Snapshot().Get(obs.CLeaseExpiries); n != 0 {
		t.Fatalf("%d leases expired after Stop", n)
	}
}
