// Package clientcore implements the client half of the remote client
// plane: the protocol state machine a non-member process runs to consult
// the leader election service over the wire.
//
// Mirroring the architecture of internal/core, the state machine is
// host-agnostic: the public client package drives it in real time over
// UDP or the in-process transport, and the simulator drives whole client
// populations in virtual time. All entry points — message delivery, timer
// callbacks, API commands — must be serialised by the host: the client
// package takes one mutex per entry, the simulator runs one event loop.
//
// Per subscribed group the machine:
//
//   - SUBSCRIBEs to one service endpoint and caches the LeaderSnapshot it
//     returns, stamped with a lease;
//   - renews the lease with LEASE_RENEW from one node-wide timer that
//     fires at a third of the shortest granted lease, so every group's
//     renewal rides one datagram per endpoint (the service answers a
//     renewal with a snapshot when the client has had none for lease/6);
//   - treats the cached view as fresh until the lease runs out without a
//     snapshot — the staleness bound the client API advertises;
//   - on expiry or tombstone, fails over across the configured endpoints
//     (unsubscribing from the old one), with immediate rotation on
//     tombstones and paced retries once the whole list has been tried.
package clientcore

import (
	"math/rand"
	"time"

	"stableleader/id"
	"stableleader/internal/clock"
	"stableleader/internal/outbound"
	"stableleader/internal/wire"
)

// Runtime is everything the client node needs from its host: a clock,
// timers, a transmit primitive and a deterministic random stream (jitter,
// endpoint spreading). The contract matches core.Runtime, so simnet's
// NodeRuntime serves both.
type Runtime interface {
	clock.Clock
	Send(to id.Process, m wire.Message)
	Rand() *rand.Rand
}

// DefaultTTL is the lease requested when Config.TTL is zero.
const DefaultTTL = 10 * time.Second

// coalesceDelay is how long client-plane sends may wait for companions
// bound to the same endpoint: long enough to merge a burst of per-group
// subscribes or renewals into one datagram, invisible against any lease.
const coalesceDelay = 2 * time.Millisecond

// failoverAfter is how many consecutive unanswered subscribe attempts the
// machine tolerates at one endpoint before rotating to the next.
const failoverAfter = 2

// Update is one observation published to the host: an accepted snapshot,
// a tombstone, or a staleness edge.
type Update struct {
	// Group is the group concerned.
	Group id.Group
	// Leader, LeaderIncarnation and Elected are the served leadership
	// view (the last known one on tombstone/stale updates).
	Leader            id.Process
	LeaderIncarnation int64
	Elected           bool
	// Tombstone reports that the serving endpoint stopped serving the
	// group; failover is already in progress.
	Tombstone bool
	// Stale reports that the lease ran out without a fresh snapshot: the
	// view may be outdated and must not be served as fresh.
	Stale bool
	// Changed reports whether the visible content (leadership, tombstone
	// or staleness) differs from the previously published update — hosts
	// use it to separate Watch-worthy events from silent lease refreshes.
	Changed bool
	// ServedBy is the service endpoint this view came from.
	ServedBy id.Process
	// At is the local adoption time; Expires is when the lease runs out.
	At      time.Time
	Expires time.Time
}

// Config parameterises a client node.
type Config struct {
	// Self is the client's process id (how snapshots find their way back).
	Self id.Process
	// Endpoints are the service nodes to consult, in preference order
	// before the per-node deterministic shuffle.
	Endpoints []id.Process
	// TTL is the lease to request (default DefaultTTL; the service clamps).
	TTL time.Duration
	// OnUpdate, if set, receives every accepted snapshot, staleness edge
	// and tombstone, on the host's event loop.
	OnUpdate func(Update)
	// DisableCoalescing bypasses the outbound scheduler (ablation).
	DisableCoalescing bool
	// NoShuffle keeps Endpoints in the given order instead of spreading
	// initial load across them (tests want determinism relative to the
	// list, simulations want the spread).
	NoShuffle bool
}

// Node is one client process's state machine, multiplexing any number of
// group subscriptions over one endpoint list.
type Node struct {
	self id.Process
	inc  int64
	rt   Runtime
	cfg  Config
	out  *outbound.Scheduler
	// eps is the node's endpoint order: shuffled ONCE per client, shared
	// as the starting order by every subscription. Pinning all of one
	// client's groups to the same endpoint is what lets the server and
	// the renewal path coalesce its per-group traffic into per-client
	// datagrams; the population still spreads load because each client
	// shuffles differently.
	eps    []id.Process
	groups map[id.Group]*groupSub
	// renewTimer paces LEASE_RENEWs for every healthy subscription at
	// once; renewAt is its deadline (zero when idle). An accepted
	// snapshot may only pull the deadline earlier: were arrivals to push
	// it back, snapshots (answers to renewals, fan-outs) could perpetually
	// defer the renewal that is the only thing keeping the server-side
	// lease alive.
	renewTimer clock.Rearmer
	renewAt    time.Time
	stopped    bool
}

// groupSub is one group's subscription state.
type groupSub struct {
	n   *Node
	gid id.Group
	// eps is this subscription's endpoint rotation order; epIdx the
	// current endpoint.
	eps   []id.Process
	epIdx int
	// attempts counts consecutive disappointments (unanswered subscribes,
	// tombstones) since the last accepted snapshot.
	attempts int
	// haveServer/serverInc/seq order snapshots from the current endpoint.
	haveServer bool
	serverInc  int64
	seq        uint64
	// last is the most recently published update; haveView marks it
	// meaningful.
	last     Update
	haveView bool
	stale    bool
	// succ/succInc/succLease hold the successor hint a departing endpoint
	// stages just before its tombstone (haveSucc marks it set): the next
	// tombstone from the same stream fails over to the named successor
	// without a stale window instead of probing blindly.
	succ      id.Process
	succInc   int64
	succLease time.Duration
	haveSucc  bool
	// leaseDur is the granted lease (the server may clamp the requested
	// TTL); renewals pace off it, not off the request.
	leaseDur time.Duration
	// deadTimer is the lease/subscribe deadline driving staleness edges
	// and failover.
	deadTimer clock.Rearmer
	removed   bool
}

// NewNode creates a client node. The incarnation distinguishes restarts,
// exactly like a service node's.
func NewNode(rt Runtime, cfg Config) *Node {
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	n := &Node{
		self:   cfg.Self,
		inc:    rt.Now().UnixNano(),
		rt:     rt,
		cfg:    cfg,
		groups: make(map[id.Group]*groupSub),
	}
	n.renewTimer = clock.NewTimer(rt, n.renewTick)
	n.out = outbound.New(outbound.Config{
		Clock:    rt,
		Emit:     rt.Send,
		Disabled: cfg.DisableCoalescing,
	})
	n.eps = make([]id.Process, len(cfg.Endpoints))
	copy(n.eps, cfg.Endpoints)
	if !cfg.NoShuffle && len(n.eps) > 1 {
		rng := rt.Rand()
		for i := len(n.eps) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			n.eps[i], n.eps[j] = n.eps[j], n.eps[i]
		}
	}
	return n
}

// Subscribe starts (or restarts) the subscription for g. It is
// asynchronous: the first Update arrives through OnUpdate once an endpoint
// answers.
func (n *Node) Subscribe(g id.Group) {
	if n.stopped {
		return
	}
	if _, ok := n.groups[g]; ok {
		return
	}
	sub := &groupSub{n: n, gid: g, eps: n.endpointOrder()}
	sub.deadTimer = clock.NewTimer(n.rt, sub.deadTick)
	n.groups[g] = sub
	sub.sendSubscribe()
	sub.armRetry()
}

// Snapshot returns the last published update for g. ok is false before
// the first snapshot (or when g was never subscribed).
func (n *Node) Snapshot(g id.Group) (Update, bool) {
	sub, ok := n.groups[g]
	if !ok || !sub.haveView {
		return Update{}, false
	}
	return sub.last, true
}

// Stop halts the node. Graceful stops unsubscribe everywhere first (one
// coalesced datagram per endpoint); otherwise timers just die — crash
// semantics, the leases expire server-side.
func (n *Node) Stop(graceful bool) {
	if n.stopped {
		return
	}
	n.stopped = true
	n.renewTimer.Stop()
	for _, g := range id.SortedMapKeys(n.groups) {
		sub := n.groups[g]
		if graceful {
			n.sendUnsubscribe(sub.currentEP(), g)
		}
		sub.stopTimers()
	}
	if graceful {
		n.out.FlushAll()
	}
	n.out.Stop()
	n.groups = make(map[id.Group]*groupSub)
}

// HandleMessage dispatches one received datagram: a LeaderSnapshot or a
// SuccessorHint, or a Batch envelope whose inner messages dispatch
// individually. Hosts call it on the node's event loop; other kinds are
// ignored (a client shares transports with nothing else, but hostile
// traffic must be harmless).
//
//leadervet:hotpath
func (n *Node) HandleMessage(m wire.Message) {
	if n.stopped || m == nil {
		return
	}
	if b, ok := m.(*wire.Batch); ok {
		for _, inner := range b.Msgs {
			if n.stopped {
				return
			}
			switch t := inner.(type) {
			case *wire.LeaderSnapshot:
				n.handleSnapshot(t)
			case *wire.SuccessorHint:
				n.handleHint(t)
			}
		}
		return
	}
	switch t := m.(type) {
	case *wire.LeaderSnapshot:
		n.handleSnapshot(t)
	case *wire.SuccessorHint:
		n.handleHint(t)
	}
}

// endpointOrder returns this client's endpoint order (see Node.eps) as a
// fresh slice, so per-subscription failover rotation stays independent.
func (n *Node) endpointOrder() []id.Process {
	eps := make([]id.Process, len(n.eps))
	copy(eps, n.eps)
	return eps
}

// handleSnapshot is the receive path for one (possibly batched) snapshot.
//
//leadervet:hotpath
func (n *Node) handleSnapshot(m *wire.LeaderSnapshot) {
	sub, ok := n.groups[m.Group]
	if !ok {
		// Not subscribed (any more): tell the sender to stop. The
		// incarnation is ours, so a reordered copy cannot hurt a future
		// lifetime's subscription.
		n.sendUnsubscribe(m.Sender, m.Group)
		return
	}
	sub.handleSnapshot(m)
}

// handleHint is the receive path for a departing endpoint's successor
// hint. Unknown groups are simply dropped: the tombstone that follows the
// hint handles any unsubscribe bookkeeping.
func (n *Node) handleHint(m *wire.SuccessorHint) {
	if sub, ok := n.groups[m.Group]; ok {
		sub.handleHint(m)
	}
}

// sendUnsubscribe emits one UNSUBSCRIBE on the coalescing path.
func (n *Node) sendUnsubscribe(to id.Process, g id.Group) {
	if to == "" {
		return
	}
	n.out.Enqueue(to, &wire.Unsubscribe{
		Group: g, Sender: n.self, Incarnation: n.inc,
	}, coalesceDelay)
}

// --- per-group machinery ---------------------------------------------

// currentEP is the endpoint this subscription is pinned to.
func (sub *groupSub) currentEP() id.Process {
	if len(sub.eps) == 0 {
		return ""
	}
	return sub.eps[sub.epIdx%len(sub.eps)]
}

// retryEvery is the pacing of unanswered subscribe attempts: a quarter
// lease, clamped to stay responsive for long leases and gentle for short
// ones, jittered so client herds desynchronise.
func (sub *groupSub) retryEvery() time.Duration {
	d := sub.n.cfg.TTL / 4
	if d < 200*time.Millisecond {
		d = 200 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	jitter := 0.75 + 0.5*sub.n.rt.Rand().Float64()
	return time.Duration(float64(d) * jitter)
}

// sendSubscribe asks the current endpoint for a lease.
func (sub *groupSub) sendSubscribe() {
	ep := sub.currentEP()
	if ep == "" {
		return
	}
	sub.n.out.Enqueue(ep, &wire.Subscribe{
		Group:       sub.gid,
		Sender:      sub.n.self,
		Incarnation: sub.n.inc,
		TTL:         int64(sub.n.cfg.TTL),
	}, coalesceDelay)
}

// armRetry arms the deadline timer for an unanswered subscribe.
func (sub *groupSub) armRetry() {
	sub.deadTimer.Reset(sub.retryEvery())
}

// rotate moves to the next endpoint, withdrawing from the current one.
func (sub *groupSub) rotate() {
	if len(sub.eps) == 0 {
		return
	}
	sub.n.sendUnsubscribe(sub.currentEP(), sub.gid)
	sub.epIdx = (sub.epIdx + 1) % len(sub.eps)
	// A new endpoint is a new snapshot stream.
	sub.haveServer = false
	sub.seq = 0
	sub.serverInc = 0
	sub.haveSucc = false
}

// rotateTo re-pins the subscription to the named endpoint if it is in the
// rotation; otherwise it falls back to plain rotation.
func (sub *groupSub) rotateTo(ep id.Process) {
	for i, e := range sub.eps {
		if e != ep {
			continue
		}
		sub.n.sendUnsubscribe(sub.currentEP(), sub.gid)
		sub.epIdx = i
		sub.haveServer = false
		sub.seq = 0
		sub.serverInc = 0
		sub.haveSucc = false
		return
	}
	sub.rotate()
}

// handleSnapshot applies one snapshot from the wire.
func (sub *groupSub) handleSnapshot(m *wire.LeaderSnapshot) {
	if sub.removed || m.Sender != sub.currentEP() {
		// Stragglers from a rotated-away endpoint: already unsubscribed,
		// and its lease will expire; ignore.
		return
	}
	if sub.haveServer {
		if m.Incarnation < sub.serverInc {
			return // from before the endpoint's restart
		}
		if m.Incarnation == sub.serverInc && m.Seq <= sub.seq {
			// Reordered duplicate of an older view. Tombstones are not
			// exempt: the server bumps the sequence for them too, so a
			// duplicated old goodbye cannot tear down a newer healthy
			// subscription (and must not regress sub.seq below).
			return
		}
	}
	sub.haveServer = true
	sub.serverInc = m.Incarnation
	sub.seq = m.Seq

	now := sub.n.rt.Now()
	if m.Tombstone {
		if sub.haveSucc {
			sub.failoverToSuccessor(m, now)
			return
		}
		// The endpoint stopped serving the group: publish the edge (the
		// last view rides along as a stale hint), then fail over. After a
		// full lap of tombstoning endpoints, pace the retries instead of
		// spinning around the ring.
		sub.publish(Update{
			Group:             sub.gid,
			Leader:            m.Leader,
			LeaderIncarnation: m.LeaderIncarnation,
			Elected:           m.Elected,
			Tombstone:         true,
			Stale:             true,
			ServedBy:          m.Sender,
			At:                now,
		})
		sub.stale = true
		sub.attempts++
		sub.rotate()
		if sub.attempts%max(len(sub.eps), 1) != 0 {
			sub.sendSubscribe()
		}
		sub.armRetry()
		return
	}

	lease := time.Duration(m.Lease)
	if lease <= 0 {
		lease = sub.n.cfg.TTL
	}
	sub.attempts = 0
	sub.stale = false
	sub.haveSucc = false // a healthy snapshot supersedes any staged hint
	sub.leaseDur = lease
	sub.publish(Update{
		Group:             sub.gid,
		Leader:            m.Leader,
		LeaderIncarnation: m.LeaderIncarnation,
		Elected:           m.Elected,
		ServedBy:          m.Sender,
		At:                now,
		Expires:           now.Add(lease),
	})
	sub.n.armRenewal(lease)
	sub.deadTimer.Reset(lease)
}

// handleHint stages a successor hint from the wire. It shares the
// snapshot stream's (incarnation, seq) ordering — the server numbers hints
// and tombstones from the same counter, hint first — so a reordered
// delivery (tombstone before hint) degrades to the reactive failover path
// rather than applying the hint late.
func (sub *groupSub) handleHint(m *wire.SuccessorHint) {
	if sub.removed || m.Sender != sub.currentEP() {
		return
	}
	if sub.haveServer {
		if m.Incarnation < sub.serverInc {
			return
		}
		if m.Incarnation == sub.serverInc && m.Seq <= sub.seq {
			return
		}
	}
	sub.haveServer = true
	sub.serverInc = m.Incarnation
	sub.seq = m.Seq
	sub.succ, sub.succInc = m.Successor, m.SuccessorInc
	sub.succLease = time.Duration(m.Lease)
	sub.haveSucc = m.Successor != ""
}

// failoverToSuccessor handles a tombstone whose stream carried a successor
// hint: the departing leader already handed the group to the named
// successor, so the client publishes the successor as the fresh leader —
// no stale window — and re-pins to the successor's endpoint for its next
// lease.
func (sub *groupSub) failoverToSuccessor(m *wire.LeaderSnapshot, now time.Time) {
	succ, succInc, lease := sub.succ, sub.succInc, sub.succLease
	sub.haveSucc = false
	if lease <= 0 {
		lease = sub.n.cfg.TTL
	}
	sub.attempts = 0
	sub.stale = false
	sub.leaseDur = lease
	sub.rotateTo(succ)
	sub.publish(Update{
		Group:             sub.gid,
		Leader:            succ,
		LeaderIncarnation: succInc,
		Elected:           true,
		ServedBy:          m.Sender,
		At:                now,
		Expires:           now.Add(lease),
	})
	sub.sendSubscribe()
	sub.n.armRenewal(lease)
	sub.deadTimer.Reset(lease)
}

// armRenewal makes the renewal timer fire within lease/3 of now, keeping
// an earlier deadline: a subscription granted lease is owed a renewal by
// then, and one already due sooner renews with it.
func (n *Node) armRenewal(lease time.Duration) {
	at := n.rt.Now().Add(lease / 3)
	if n.renewAt.IsZero() || at.Before(n.renewAt) {
		n.renewAt = at
		n.renewTimer.Reset(lease / 3)
	}
}

// renewTick extends every healthy subscription's lease server-side —
// enqueued together, so each endpoint gets one datagram carrying all of
// this client's renewals — and re-arms at a third of the shortest GRANTED
// lease, which may be shorter than the requested TTL. With no healthy
// subscription it stays idle until the next accepted snapshot.
func (n *Node) renewTick() {
	n.renewAt = time.Time{}
	if n.stopped {
		return
	}
	var shortest time.Duration
	for _, g := range id.SortedMapKeys(n.groups) {
		sub := n.groups[g]
		if !sub.haveView || sub.stale {
			continue
		}
		n.out.Enqueue(sub.currentEP(), &wire.LeaseRenew{
			Group:       g,
			Sender:      n.self,
			Incarnation: n.inc,
			TTL:         int64(n.cfg.TTL),
		}, coalesceDelay)
		if shortest == 0 || sub.leaseDur < shortest {
			shortest = sub.leaseDur
		}
	}
	if shortest > 0 {
		n.armRenewal(shortest)
	}
}

// deadTick fires when the lease (or a subscribe attempt) ran out: publish
// the staleness edge once, then retry — rotating endpoints after
// failoverAfter consecutive disappointments.
func (sub *groupSub) deadTick() {
	if sub.removed || sub.n.stopped {
		return
	}
	if sub.haveView && !sub.stale {
		sub.stale = true
		up := sub.last
		up.Stale = true
		up.At = sub.n.rt.Now()
		sub.publish(up)
	}
	sub.attempts++
	if sub.attempts%failoverAfter == 0 {
		sub.rotate()
	}
	sub.sendSubscribe()
	sub.armRetry()
}

// publish stores and delivers one update, computing the Changed flag.
func (sub *groupSub) publish(up Update) {
	up.Changed = !sub.haveView ||
		sub.last.Leader != up.Leader ||
		sub.last.LeaderIncarnation != up.LeaderIncarnation ||
		sub.last.Elected != up.Elected ||
		sub.last.Tombstone != up.Tombstone ||
		sub.last.Stale != up.Stale
	sub.last = up
	sub.haveView = true
	if sub.n.cfg.OnUpdate != nil {
		sub.n.cfg.OnUpdate(up)
	}
}

// stopTimers quiesces the subscription's timer.
func (sub *groupSub) stopTimers() {
	sub.deadTimer.Stop()
	sub.removed = true
}
