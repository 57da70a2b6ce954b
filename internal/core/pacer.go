package core

import (
	"cmp"
	"slices"
	"time"

	"stableleader/id"
	"stableleader/internal/clock"
)

// maxCoalesceDelay caps how long any message may wait in the outbound
// scheduler for companions. Two milliseconds is invisible against the
// default 1s detection bound but long enough to merge a burst of per-group
// heartbeats into one datagram.
const maxCoalesceDelay = 2 * time.Millisecond

// pacer is the heartbeat schedule toward one destination: one timer per
// peer instead of one per (group, peer) stream, the timer-side half of the
// paper's shared-infrastructure argument. Streams come due on the beat grid
// (clock.NextBeat), so a node in G groups wakes once per period and emits
// all G ALIVEs toward the peer back to back, which the outbound scheduler
// coalesces into one datagram — and since the grid is the same for every
// pacer, that one wake-up serves every peer.
type pacer struct {
	n    *Node
	dest id.Process
	// streams is sorted by group id, at register/drop time, so the
	// per-interval fire walks it in reproducible order without sorting.
	streams []*hbStream
	// timer is re-armable and lives as long as the pacer: the per-wake
	// re-arm is an O(1) splice on wheel-backed clocks, so the pacer costs
	// zero runtime-timer allocations in steady state.
	timer clock.Rearmer
	minIv time.Duration
}

// hbStream is one group's heartbeat schedule toward the pacer's peer.
type hbStream struct {
	gs  *groupState
	ds  *destState
	due time.Time
}

// pacerFor returns (creating if needed) the pacer toward dest.
func (n *Node) pacerFor(dest id.Process) *pacer {
	pp := n.pacers[dest]
	if pp == nil {
		pp = &pacer{n: n, dest: dest}
		pp.timer = clock.NewTimer(n.rt, pp.tick)
		n.pacers[dest] = pp
	}
	return pp
}

// registerStream starts gs's heartbeat stream toward dest: an immediate
// greeting (election rounds must not wait a full interval) and then sends
// on the beat grid. The first beat comes up to an interval early, which is
// always safe: a heartbeat is stamped with its interval, so an early one is
// simply fresher at the receiver.
func (n *Node) registerStream(gs *groupState, dest id.Process, ds *destState) {
	pp := n.pacerFor(dest)
	gs.sendAliveTo(dest, ds)
	due := clock.NextBeat(n.rt.Now(), gs.intervalFor(ds))
	i, _ := pp.find(gs.gid)
	pp.streams = slices.Insert(pp.streams, i, &hbStream{gs: gs, ds: ds, due: due})
	pp.refresh()
	pp.rearm()
}

// dropStream stops gid's heartbeat stream toward dest, removing the pacer
// when its last stream goes.
func (n *Node) dropStream(gid id.Group, dest id.Process) {
	pp := n.pacers[dest]
	if pp == nil {
		return
	}
	i, ok := pp.find(gid)
	if !ok {
		return
	}
	pp.streams = slices.Delete(pp.streams, i, i+1)
	if len(pp.streams) == 0 {
		pp.timer.Stop()
		// An already-queued callback is disarmed by tick's identity check
		// (n.pacers no longer maps dest to this pacer).
		delete(n.pacers, dest)
		return
	}
	pp.refresh()
	pp.rearm()
}

// retimeStream puts gid's stream toward dest on the grid of its new
// interval (a RATE request changed it). The next heartbeat is the first
// beat after the last one actually sent: re-anchoring to "now" would
// silently stretch the gap on every rate change, and a monitor repeating
// its RATE could starve the very stream it is trying to speed up.
func (n *Node) retimeStream(gid id.Group, dest id.Process) {
	pp := n.pacers[dest]
	if pp == nil {
		return
	}
	i, ok := pp.find(gid)
	if !ok {
		return
	}
	st := pp.streams[i]
	st.due = clock.NextBeat(st.ds.lastSent, st.gs.intervalFor(st.ds))
	pp.refresh()
	pp.rearm()
}

// coalesceDelayFor derives the outbound coalescing delay for traffic to
// to from the link's heartbeat cadence: an eighth of the fastest interval,
// capped at maxCoalesceDelay. Peers we send no heartbeats to get a
// conservative default.
func (n *Node) coalesceDelayFor(to id.Process) time.Duration {
	d := time.Millisecond
	if pp := n.pacers[to]; pp != nil && pp.minIv > 0 {
		d = pp.minIv / 8
	}
	if d > maxCoalesceDelay {
		d = maxCoalesceDelay
	}
	return d
}

// find returns gid's position in the sorted stream list, or where it would
// be inserted.
func (pp *pacer) find(gid id.Group) (int, bool) {
	return slices.BinarySearchFunc(pp.streams, gid, func(st *hbStream, gid id.Group) int {
		return cmp.Compare(st.gs.gid, gid)
	})
}

// earliest returns the soonest due time across streams.
func (pp *pacer) earliest() (time.Time, bool) {
	var e time.Time
	found := false
	for _, st := range pp.streams {
		if !found || st.due.Before(e) {
			e, found = st.due, true
		}
	}
	return e, found
}

// refresh recomputes the cached minimum interval. Called on the rare
// stream-set or rate changes, never per send.
func (pp *pacer) refresh() {
	pp.minIv = 0
	for _, st := range pp.streams {
		iv := st.gs.intervalFor(st.ds)
		if pp.minIv == 0 || iv < pp.minIv {
			pp.minIv = iv
		}
	}
}

// rearm schedules the next wake-up at the earliest due time.
func (pp *pacer) rearm() {
	e, ok := pp.earliest()
	if !ok {
		return
	}
	pp.timer.Reset(e.Sub(pp.n.rt.Now()))
}

// tick is the timer callback. A stale callback (the pacer was dropped, or
// the node stopped, after the fire was already queued) is discarded by
// the identity check; a merely re-armed wake-up is harmless because fire
// only sends streams actually due.
func (pp *pacer) tick() {
	if pp.n.stopped || pp.n.pacers[pp.dest] != pp {
		return
	}
	pp.fire()
}

// fire sends every stream due now and puts it back on the grid. A wake-up
// that comes late sends once and skips the beats it missed.
//
//leadervet:hotpath
func (pp *pacer) fire() {
	now := pp.n.rt.Now()
	for _, st := range pp.streams {
		if st.gs.stopped || !st.gs.active {
			continue // unregistration is in flight; do not send
		}
		if st.due.After(now) {
			continue
		}
		st.gs.sendAliveTo(pp.dest, st.ds)
		st.due = clock.NextBeat(now, st.gs.intervalFor(st.ds))
	}
	pp.rearm()
}
