package stableleader

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stableleader/id"
	"stableleader/internal/core"
)

// LeaderInfo describes the leadership of one group as seen locally.
type LeaderInfo struct {
	// Group is the group concerned.
	Group id.Group
	// Leader is the elected process (empty if Elected is false).
	Leader id.Process
	// Incarnation distinguishes successive lifetimes of the leader process.
	Incarnation int64
	// Elected is false while the group looks leaderless from this process
	// (for example during an election).
	Elected bool
	// At is when this view was adopted.
	At time.Time
}

// MemberStatus is one group member as seen by the local failure detection
// layer: identity, candidacy, the detector's current trust verdict, and the
// (η, δ) parameters its QoS configurator chose for the link.
type MemberStatus struct {
	ID          id.Process
	Incarnation int64
	Candidate   bool
	Self        bool
	Trusted     bool
	// Interval (η) is the heartbeat rate requested from this member;
	// Timeout (δ) the timeout shift applied to its heartbeats.
	Interval time.Duration
	Timeout  time.Duration
}

// leaderView is the copy-on-write leader snapshot behind the wait-free
// read plane. A new view is published (never mutated) on the service
// event loop at exactly the points the LeaderChanged interrupt fires.
type leaderView struct {
	info LeaderInfo
	// observed distinguishes a real leadership observation from the
	// join-time seed: the closed-service fallback only serves the former,
	// mirroring the event stream's "last published view" semantics.
	observed bool
	// err, when non-nil, tombstones the view (the group was left).
	err error
}

// statusView is the copy-on-write membership/FD snapshot behind
// Group.Status. The slice is immutable once published.
type statusView struct {
	rows []MemberStatus
	err  error // tombstone: the group was left
}

// standbyView is the copy-on-write warm-standby snapshot behind
// Group.Standby, published on the event loop at every nomination change.
type standbyView struct {
	p   id.Process
	inc int64
	err error // tombstone: the group was left
}

// Deposition errors, mirrored from the core so callers can test with
// errors.Is against the public package.
var (
	// ErrNotLeader reports a Depose on a group this process does not lead.
	ErrNotLeader = core.ErrNotLeader
	// ErrNoStandby reports a Depose with no live standby to hand over to.
	ErrNoStandby = core.ErrNoStandby
)

// Group is a handle on one joined group.
type Group struct {
	svc *Service
	// sh is the event-loop shard that owns this group's protocol state;
	// every loop-serialised operation on the group routes to it. Fixed at
	// Join: a group never migrates between shards.
	sh *serviceShard
	id id.Group

	// leader, status and standby are the atomic read plane: Leader, Status
	// and Standby are single atomic loads against these, with no event-loop
	// round-trip and no contention with protocol work. Writers (the event
	// loop, plus Leave's tombstone) publish whole new views.
	leader  atomic.Pointer[leaderView]
	status  atomic.Pointer[statusView]
	standby atomic.Pointer[standbyView]

	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
	left   bool
	donec  chan struct{} // closed with the subscribers; ends Watch reapers
}

// newGroup builds the handle for group g, owned by shard sh.
func newGroup(svc *Service, sh *serviceShard, g id.Group) *Group {
	return &Group{
		svc:   svc,
		sh:    sh,
		id:    g,
		subs:  make(map[*subscriber]struct{}),
		donec: make(chan struct{}),
	}
}

// ID returns the group identifier.
func (g *Group) ID() id.Group { return g.id }

// publish fans one event out to every subscriber. It runs on the service
// event loop (one publisher at a time); the mutex orders it against
// subscription and teardown.
func (g *Group) publish(ev Event) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if lc, ok := ev.(LeaderChanged); ok {
		g.leader.Store(&leaderView{info: lc.Info, observed: true})
	}
	if g.closed {
		return
	}
	for s := range g.subs {
		s.offer(ev)
	}
}

// seedLeader installs the initial leader view at join time, unless an
// observation already beat it to the store (a leadership change fired
// during the core join itself).
func (g *Group) seedLeader(info LeaderInfo) {
	g.leader.CompareAndSwap(nil, &leaderView{info: info})
}

// storeStatus publishes a status snapshot: its own copy of the rows the
// core's OnStatus hook shows it on the event loop, already sorted.
func (g *Group) storeStatus(rows []core.MemberStatus) {
	g.status.Store(&statusView{rows: publicStatusRows(rows)})
}

// storeStandby publishes a warm-standby view; called from the core's
// OnStandbyChange hook on the event loop.
func (g *Group) storeStandby(p id.Process, inc int64) {
	g.standby.Store(&standbyView{p: p, inc: inc})
}

// publicStatusRows converts the internal status rows.
func publicStatusRows(rows []core.MemberStatus) []MemberStatus {
	out := make([]MemberStatus, len(rows))
	for i, r := range rows {
		out[i] = MemberStatus{
			ID:          r.ID,
			Incarnation: r.Incarnation,
			Candidate:   r.Candidate,
			Self:        r.Self,
			Trusted:     r.Trusted,
			Interval:    r.Interval,
			Timeout:     r.Timeout,
		}
	}
	return out
}

// Watch subscribes to the group's event stream: leadership changes,
// membership joins and leaves, failure detector suspicion edges and QoS
// reconfigurations (filterable with WithEventFilter). Any number of
// subscribers may watch one group concurrently; each receives its own
// copy of every event through its own buffer. Delivery never blocks the
// service: a subscriber that falls behind loses the oldest undelivered
// events, never the newest.
//
// The returned channel closes when ctx is cancelled, the group is left,
// or the service closes. Watching an already-left group returns a closed
// channel.
func (g *Group) Watch(ctx context.Context, opts ...WatchOption) <-chan Event {
	cfg := watchConfig{buffer: defaultWatchBuffer}
	for _, o := range opts {
		o(&cfg)
	}
	sub := &subscriber{ch: make(chan Event, cfg.buffer), mask: cfg.mask}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		close(sub.ch)
		return sub.ch
	}
	g.subs[sub] = struct{}{}
	if lv := g.leader.Load(); cfg.initial && lv != nil && lv.observed {
		sub.offer(LeaderChanged{Info: lv.info})
	}
	g.mu.Unlock()

	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				g.unsubscribe(sub)
			case <-g.donec:
				// Teardown already closed every subscriber channel.
			}
		}()
	}
	return sub.ch
}

// unsubscribe detaches one subscriber and closes its channel.
func (g *Group) unsubscribe(sub *subscriber) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.subs[sub]; !ok {
		return
	}
	delete(g.subs, sub)
	close(sub.ch)
}

// closeSubscribers ends every Watch stream exactly once.
func (g *Group) closeSubscribers() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.closed = true
	for s := range g.subs {
		close(s.ch)
		delete(g.subs, s)
	}
	close(g.donec)
}

// Leader returns the current leader view — the paper's "query" mode, the
// surface every application request path hits. By default it is a single
// atomic load: wait-free, allocation-free, and contention-free against
// protocol work. The view is the one most recently published by the
// event loop; an event being processed concurrently with the load may
// not be reflected yet (it is observable no later than its LeaderChanged
// event on Watch). WithSyncRead serialises the read through the event
// loop instead, for callers needing read-your-event-loop semantics.
//
// On a closed service Leader falls back to the last locally observed
// view when one exists.
//
//leadervet:hotpath
func (g *Group) Leader(ctx context.Context, opts ...QueryOption) (LeaderInfo, error) {
	if wantSyncRead(opts) {
		return g.leaderSync(ctx)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return LeaderInfo{}, err
		}
	}
	lv := g.leader.Load()
	select {
	case <-g.svc.closing:
		// Closed-service semantics match the loop path: the last observed
		// view when there is one, ErrClosed otherwise.
		if lv != nil && lv.observed && lv.err == nil {
			return lv.info, nil
		}
		return LeaderInfo{}, ErrClosed
	default:
	}
	if lv == nil {
		// Unreachable through the public API (Join seeds the view before
		// returning the handle), kept as a defensive fallback.
		return g.leaderSync(ctx)
	}
	if lv.err != nil {
		return LeaderInfo{}, lv.err
	}
	return lv.info, nil
}

// leaderSync is the loop-serialised leader query behind WithSyncRead,
// serialised through the group's owning shard.
func (g *Group) leaderSync(ctx context.Context) (LeaderInfo, error) {
	var li LeaderInfo
	var lerr error
	err := g.sh.call(ctx, func() {
		cli, e := g.sh.node.Leader(g.id)
		li, lerr = publicInfo(cli), e
	})
	if err != nil {
		if errors.Is(err, ErrClosed) {
			if lv := g.leader.Load(); lv != nil && lv.observed && lv.err == nil {
				return lv.info, nil
			}
		}
		return LeaderInfo{}, err
	}
	return li, lerr
}

// Status queries the group's membership and failure detection state — the
// query surface of the shared failure detector service underlying the
// election (Section 4 of the paper). By default it is a single atomic
// load of the latest copy-on-write snapshot published by the event loop
// (same staleness contract as Leader).
//
// The returned slice is the shared snapshot itself, not a copy: treat it
// as strictly read-only. Mutating it (even reordering rows in place) is
// a data race against every concurrent Status caller. Callers that need
// a private, mutable copy must copy the rows, or use WithSyncRead, which
// builds a fresh slice on the event loop per call.
//
//leadervet:hotpath
func (g *Group) Status(ctx context.Context, opts ...QueryOption) ([]MemberStatus, error) {
	if wantSyncRead(opts) {
		return g.statusSync(ctx)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	select {
	case <-g.svc.closing:
		return nil, ErrClosed
	default:
	}
	sv := g.status.Load()
	if sv == nil {
		return g.statusSync(ctx) // defensive; Join seeds the snapshot
	}
	if sv.err != nil {
		return nil, sv.err
	}
	return sv.rows, nil
}

// statusSync is the loop-serialised status query behind WithSyncRead,
// serialised through the group's owning shard.
func (g *Group) statusSync(ctx context.Context) ([]MemberStatus, error) {
	var out []MemberStatus
	var serr error
	err := g.sh.call(ctx, func() {
		rows, e := g.sh.node.Status(g.id)
		if e != nil {
			serr = e
			return
		}
		out = publicStatusRows(rows)
	})
	if err != nil {
		return nil, err
	}
	return out, serr
}

// Standby returns the group's current warm standby as seen locally: the
// follower the leader has nominated (and continuously announces in its
// heartbeat stream) to take over on a planned handover. ok is false while
// no nomination has been observed — on followers that predates the first
// STANDBY adoption; on the leader it means no live follower qualifies.
// Like Leader, it is a single atomic load against the copy-on-write view
// the event loop publishes.
func (g *Group) Standby(ctx context.Context) (p id.Process, incarnation int64, ok bool, err error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return "", 0, false, err
		}
	}
	select {
	case <-g.svc.closing:
		return "", 0, false, ErrClosed
	default:
	}
	sv := g.standby.Load()
	if sv == nil {
		return "", 0, false, nil
	}
	if sv.err != nil {
		return "", 0, false, sv.err
	}
	return sv.p, sv.inc, sv.p != "", nil
}

// Depose steps this process down as the group's leader without leaving:
// a planned handover transfers leadership to the current warm standby
// immediately (urgent HANDOVER to every peer), and this process stays in
// the group as a ranked-last follower. It fails with ErrNotLeader when
// this process does not lead the group, and with ErrNoStandby when no
// live follower qualifies as successor (deposing would leave the group
// leaderless until the next election). Serialised through the group's
// event-loop shard.
func (g *Group) Depose(ctx context.Context) error {
	var derr error
	if err := g.sh.call(ctx, func() { derr = g.sh.node.Depose(g.id) }); err != nil {
		return err
	}
	return derr
}

// Leave departs the group gracefully: a LEAVE is announced so peers
// re-elect immediately rather than waiting for failure detection. It
// honours ctx for cancellation; the departure still completes in the
// background if ctx expires first. Leave is idempotent.
func (g *Group) Leave(ctx context.Context) error {
	g.mu.Lock()
	if g.left {
		g.mu.Unlock()
		return nil
	}
	g.left = true
	g.mu.Unlock()
	// leave departs on the loop and then tombstones the read plane, so
	// wait-free reads after Leave report the same not-joined error the
	// loop path would. Tombstoning ON the loop, after node.Leave, is what
	// makes it final: every publication also runs on the loop, so none
	// can overwrite it. (The closing check in Leader/Status still takes
	// precedence, matching the loop path's ErrClosed-first ordering.)
	tombstone := func() {
		tomb := fmt.Errorf("%w: %q", core.ErrNotJoined, g.id)
		g.leader.Store(&leaderView{err: tomb})
		g.status.Store(&statusView{err: tomb})
		g.standby.Store(&standbyView{err: tomb})
	}
	var lerr error
	err := g.sh.call(ctx, func() {
		lerr = g.sh.node.Leave(g.id)
		tombstone()
	})
	if err != nil && !errors.Is(err, ErrClosed) {
		// ctx expired before the loop ran the departure; finish it in the
		// background (leaving twice is a harmless no-op).
		g.sh.enqueue(func() {
			_ = g.sh.node.Leave(g.id)
			tombstone()
		})
	}
	g.svc.mu.Lock()
	delete(g.svc.groups, g.id)
	g.svc.mu.Unlock()
	g.closeSubscribers()
	if err != nil {
		return err
	}
	return lerr
}

// publicInfo converts the internal view type.
func publicInfo(li core.LeaderInfo) LeaderInfo {
	return LeaderInfo{
		Group:       li.Group,
		Leader:      li.Leader,
		Incarnation: li.Incarnation,
		Elected:     li.Elected,
		At:          li.At,
	}
}
