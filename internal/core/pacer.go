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

// pacer aligns the heartbeat streams of every group toward one destination
// so that a node in G groups wakes once per interval and emits all G ALIVEs
// back to back — which the outbound scheduler then coalesces into a single
// datagram. This replaces the per-(group, destination) timers the node used
// to run: one timer per peer instead of one per stream, the timer-side half
// of the paper's shared-infrastructure argument.
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
// greeting (election rounds must not wait a full interval) and then paced
// sends. A new stream adopts the pacer's existing phase when that phase is
// earlier than its own natural one, so equal-interval streams converge onto
// one wake-up — sending early is always safe (a heartbeat is stamped with
// its interval, so an early one is simply fresher at the receiver).
func (n *Node) registerStream(gs *groupState, dest id.Process, ds *destState) {
	pp := n.pacerFor(dest)
	gs.sendAliveTo(dest, ds)
	due := n.rt.Now().Add(gs.intervalFor(ds))
	if e, ok := pp.earliest(); ok && e.Before(due) {
		due = e
	}
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

// retimeStream moves gid's stream toward dest to a new due time (a RATE
// request changed the interval; the next heartbeat is re-anchored to the
// last one actually sent, so repeated RATEs cannot starve the stream).
func (n *Node) retimeStream(gid id.Group, dest id.Process, due time.Time) {
	pp := n.pacers[dest]
	if pp == nil {
		return
	}
	i, ok := pp.find(gid)
	if !ok {
		return
	}
	pp.streams[i].due = due
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

// fire sends every stream due now — including streams due within a quarter
// interval, pulled forward so they share the wake-up and the datagram. The
// early-send slack costs at most a third more heartbeats on a stream in the
// worst case and is what keeps unequal phases from persisting forever.
//
//leadervet:hotpath
func (pp *pacer) fire() {
	now := pp.n.rt.Now()
	for _, st := range pp.streams {
		if st.gs.stopped || !st.gs.active {
			continue // unregistration is in flight; do not send
		}
		iv := st.gs.intervalFor(st.ds)
		if st.due.After(now.Add(iv / 4)) {
			continue
		}
		st.gs.sendAliveTo(pp.dest, st.ds)
		st.due = now.Add(iv)
	}
	pp.rearm()
}
