// Package core implements the node of the leader election service: the
// single-threaded state machine of Figure 2 of the paper. One Node runs per
// process; it multiplexes any number of groups, each owning
//
//   - a Group Maintenance instance (membership table + HELLO gossip +
//     JOIN/LEAVE handling),
//   - a Failure Detector instance per fellow member (Chen et al. monitors
//     sharing per-remote link estimators across groups),
//   - a heartbeat scheduler obeying per-destination RATE requests, and
//   - one pluggable Leader Election Algorithm.
//
// The Node is not safe for concurrent use: hosts (the real-time Service or
// the simulator) must serialise every entry point — message delivery, timer
// callbacks and API commands — onto one logical event loop. This mirrors the
// paper's Command Handler architecture and keeps protocol logic lock-free.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"stableleader/id"
	"stableleader/internal/clock"
	"stableleader/internal/election"
	"stableleader/internal/fd"
	"stableleader/internal/group"
	"stableleader/internal/linkest"
	"stableleader/internal/obs"
	"stableleader/internal/outbound"
	"stableleader/internal/subs"
	"stableleader/internal/wire"
	"stableleader/qos"
)

// Runtime is everything a Node needs from its host: a clock, timers, a
// transmit primitive and a deterministic random stream. Implementations:
// simnet.NodeRuntime (virtual time) and the real-time Service adapter.
type Runtime interface {
	clock.Clock
	// Send transmits m to process to. Best effort; may drop silently. It
	// is the node's port into the outbound scheduler (see outbound.Port),
	// called with the destination's queue locked: a host that shares the
	// scheduler among several nodes stages here and sends afterwards.
	Send(to id.Process, m wire.Message)
	// Rand is the node-local random stream (gossip target selection).
	Rand() *rand.Rand
}

// Errors returned by the Node API.
var (
	ErrAlreadyJoined = errors.New("core: group already joined")
	ErrNotJoined     = errors.New("core: group not joined")
	ErrStopped       = errors.New("core: node is stopped")
	// ErrNotLeader reports a deposition request on a group the local
	// process does not currently lead (or whose election core cannot
	// express a rank transfer — Ωid).
	ErrNotLeader = errors.New("core: not the group's leader")
	// ErrNoStandby reports a deposition request with nobody to hand the
	// group to: no live standby is nominated, or the handover plane is
	// disabled for the group.
	ErrNoStandby = errors.New("core: no live standby to hand over to")
)

// LeaderInfo describes one group's leadership as seen by the local node.
type LeaderInfo struct {
	// Group is the group this information concerns.
	Group id.Group
	// Leader is the elected process; empty when Elected is false.
	Leader id.Process
	// Incarnation is the leader's incarnation.
	Incarnation int64
	// Elected reports whether a leader is currently known. A false value
	// means the group looks leaderless from here (e.g. mid-election).
	Elected bool
	// At is when this view was adopted locally.
	At time.Time
}

// Same reports whether two views name the same leadership state (ignoring
// adoption time).
func (l LeaderInfo) Same(o LeaderInfo) bool {
	return l.Group == o.Group && l.Elected == o.Elected &&
		l.Leader == o.Leader && l.Incarnation == o.Incarnation
}

// JoinOptions configures membership in one group, mirroring the paper's
// join parameters: candidacy, notification mode and failure detection QoS.
type JoinOptions struct {
	// Candidate marks this process as willing to lead the group.
	Candidate bool
	// Algorithm selects the election core (default election.OmegaL).
	Algorithm election.Kind
	// QoS is the failure detection requirement used within this group
	// (default qos.Default(), the paper's setting).
	QoS qos.Spec
	// Seeds are processes contacted with the initial JOIN announcements.
	// Membership then spreads by gossip, so seeds need not be exhaustive.
	Seeds []id.Process
	// OnLeaderChange, if set, is the interrupt-mode notification: it is
	// invoked on the node's event loop whenever the local leader view
	// changes. Query mode (Node.Leader) works regardless.
	OnLeaderChange func(LeaderInfo)
	// OnMembership, if set, reports one member entering (joined=true) or
	// leaving (joined=false) this node's active view of the group. A
	// restart (new incarnation of a known member) reports a leave of the
	// old lifetime followed by a join of the new one. Invoked on the
	// node's event loop.
	OnMembership func(m group.Member, joined bool)
	// OnTrustChange, if set, reports every failure detector edge for a
	// fellow member: trusted=false when the member becomes suspected,
	// trusted=true when trust is restored. Invoked on the node's event
	// loop, before the election algorithm reacts to the edge.
	OnTrustChange func(p id.Process, incarnation int64, trusted bool)
	// OnReconfigured, if set, reports that the QoS configurator adopted
	// new failure detection parameters (η, δ) for the link from p.
	// Invoked on the node's event loop.
	OnReconfigured func(p id.Process, params qos.Params)
	// OnStandbyChange, if set, reports changes of the group's warm
	// standby as seen locally: the member the current leader nominated to
	// take over on a planned handover, announced in the heartbeat stream.
	// An empty p means no standby is currently known. Invoked on the
	// node's event loop.
	OnStandbyChange func(p id.Process, incarnation int64)
	// OnStatus, if set, is shown the group's complete membership/FD
	// status (the rows Node.Status would return) whenever it changes:
	// membership deltas, trust edges and QoS reconfigurations. The slice
	// is the node's own and valid only during the call — hosts copy it
	// into the snapshot they publish to lock-free readers. Invoked on the
	// node's event loop.
	OnStatus func([]MemberStatus)
	// HelloInterval is the group maintenance gossip period (default 1s).
	HelloInterval time.Duration
	// ReconfigureInterval is the FD configurator period (default 1s).
	ReconfigureInterval time.Duration
	// DisableStartupGrace removes the window during which a freshly
	// started process hides self-leadership claims. It exists for ablation
	// experiments only: without the grace, a leader that crashes and
	// recovers inside the detection bound transiently re-elects itself
	// against the group's stale views, inflating the mistake rate.
	DisableStartupGrace bool
	// DisableHandover turns off the warm-standby and planned-handover
	// plane for this group: no standby is nominated or announced, graceful
	// departures fail over reactively (peers wait out the failure
	// detector), and received STANDBY/HANDOVER messages are ignored. It
	// exists as the before/after baseline of the handover experiments.
	DisableHandover bool
}

// withDefaults fills unset options.
func (o JoinOptions) withDefaults() JoinOptions {
	if o.QoS == (qos.Spec{}) {
		o.QoS = qos.Default()
	}
	if o.HelloInterval <= 0 {
		o.HelloInterval = time.Second
	}
	if o.ReconfigureInterval <= 0 {
		o.ReconfigureInterval = time.Second
	}
	return o
}

// Node is one process's service instance.
type Node struct {
	self   id.Process
	inc    int64
	rt     Runtime
	groups map[id.Group]*groupState
	// est holds the per-remote link estimators, each shared across the
	// node's groups (the cost-sharing architecture of Section 4) and
	// feeding the estimate the process's other nodes feed too.
	est map[id.Process]*linkest.Estimator
	// shared is what this node has in common with the other nodes of its
	// process, if any; out is its port into the shared outbound scheduler.
	shared *Shared
	out    *outbound.Port
	pacers map[id.Process]*pacer
	// subs is the client-plane subscriber registry; nil unless the node
	// was built with WithClientPlane.
	subs *subs.Registry
	// obs is the node's slice of the host's observability registry; nil
	// when the host runs without one (the simulator). Every obs.Shard
	// method is nil-safe, so instrumentation sites need no guards.
	obs     *obs.Shard
	stopped bool
}

// nodeConfig is the result of applying NodeOptions.
type nodeConfig struct {
	coalesce    bool
	shared      *Shared
	clientPlane bool
	clientCfg   subs.Config
	incarnation int64
	obs         *obs.Shard
}

// NodeOption configures a Node at construction.
type NodeOption func(*nodeConfig)

// WithCoalescing switches the outbound packet scheduler's coalescing on or
// off (default on). Off means every message ships as its own datagram —
// the pre-batching behaviour, kept for ablation experiments.
func WithCoalescing(enabled bool) NodeOption {
	return func(c *nodeConfig) { c.coalesce = enabled }
}

// Shared is what the Nodes of one process hold in common. A sharded host
// runs one Node per event loop, but to its peers it is one process: what it
// owes a peer at one instant should leave as one datagram, and what it
// knows of the link from a peer — and asks of that peer — should not depend
// on which loop a group landed on. A Node built without WithShared gets a
// Shared of its own. The zero value is ready once Out is set.
type Shared struct {
	// Out is the process's outbound scheduler; each Node attaches its
	// runtime as one port.
	Out *outbound.Scheduler
	// Links is where the Nodes' link estimators share one estimate per
	// remote process.
	Links linkest.Pool
	// Rates is where their monitors agree on the interval to ask of one.
	Rates fd.Rates
}

// WithShared makes the node one of several serving the same process; the
// host builds Out, so WithCoalescing (which shapes a lone node's private
// scheduler) does not apply.
func WithShared(s *Shared) NodeOption {
	return func(c *nodeConfig) { c.shared = s }
}

// WithIncarnation fixes the node's incarnation number instead of deriving
// it from the runtime clock. A sharded host runs one Node per shard but is
// still ONE process lifetime to the rest of the cluster: every shard's
// node must announce the same incarnation, or peers would treat the
// shards as repeated restarts of the process. inc must be strictly greater
// than any incarnation a previous lifetime of this process announced;
// zero means "derive from the clock" (the default).
func WithIncarnation(inc int64) NodeOption {
	return func(c *nodeConfig) { c.incarnation = inc }
}

// WithClientPlane turns on the remote client plane: the node answers
// SUBSCRIBE/LEASE_RENEW/UNSUBSCRIBE messages from non-member processes and
// keeps them informed of leadership with lease-bounded LEADER_SNAPSHOTs
// (fan-out on leader-change edges plus staggered re-advertisement, all
// through the outbound coalescing path). cfg tunes the registry: the
// identity, clock and send fields are supplied by the node and ignored.
func WithClientPlane(cfg subs.Config) NodeOption {
	return func(c *nodeConfig) {
		c.clientPlane = true
		c.clientCfg = cfg
	}
}

// WithObs installs the host's per-shard observability slot: protocol
// counters, the leaderless-duration histogram and the flight recorder
// all write through it on the node's event loop (plain stores — the
// slot is owned by the loop like the rest of the node's state). A nil
// slot (or omitting the option) disables instrumentation.
func WithObs(sh *obs.Shard) NodeOption {
	return func(c *nodeConfig) { c.obs = sh }
}

// NewNode creates a node for process self. The incarnation is the start
// time in nanoseconds, strictly increasing across restarts of the same
// process.
func NewNode(self id.Process, rt Runtime, opts ...NodeOption) *Node {
	cfg := nodeConfig{coalesce: true}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shared == nil {
		cfg.shared = &Shared{Out: outbound.New(outbound.Config{Disabled: !cfg.coalesce})}
	}
	inc := cfg.incarnation
	if inc == 0 {
		inc = rt.Now().UnixNano()
	}
	n := &Node{
		self:   self,
		inc:    inc,
		rt:     rt,
		groups: make(map[id.Group]*groupState),
		est:    make(map[id.Process]*linkest.Estimator),
		pacers: make(map[id.Process]*pacer),
		shared: cfg.shared,
		obs:    cfg.obs,
	}
	n.out = cfg.shared.Out.Port(rt, rt.Send)
	if cfg.clientPlane {
		sc := cfg.clientCfg
		sc.Self = self
		sc.Incarnation = n.inc
		sc.Clock = rt
		sc.Obs = cfg.obs
		sc.Send = func(to id.Process, m wire.Message, urgent bool) {
			if urgent {
				n.sendNow(to, m)
			} else {
				n.sendLazy(to, m)
			}
		}
		sc.Leader = func(g id.Group) (subs.View, bool) {
			gs, ok := n.groups[g]
			if !ok || gs.stopped {
				return subs.View{}, false
			}
			return clientView(gs.currentInfo()), true
		}
		n.subs = subs.New(sc)
	}
	return n
}

// clientView converts a leader view for the client plane.
func clientView(li LeaderInfo) subs.View {
	return subs.View{
		Leader:      li.Leader,
		Incarnation: li.Incarnation,
		Elected:     li.Elected,
		At:          li.At,
	}
}

// ClientStats summarises the client-plane registry. ok is false when the
// node was built without a client plane.
func (n *Node) ClientStats() (st subs.Stats, ok bool) {
	if n.subs == nil {
		return subs.Stats{}, false
	}
	return n.subs.Stats(), true
}

// OutboundStaged reports the outbound scheduler's current staging
// depth: messages waiting in coalescing envelopes, and across how many
// destinations — of every node sharing the scheduler, when the host
// injected one.
func (n *Node) OutboundStaged() (msgs, dests int) { return n.shared.Out.Staged() }

// Incarnation returns the node's incarnation number.
func (n *Node) Incarnation() int64 { return n.inc }

// estimatorFor returns the shared estimator for the link from p, resetting
// it when p restarted with a newer incarnation (sequence numbering and link
// history restart with the process).
func (n *Node) estimatorFor(p id.Process, inc int64) *linkest.Estimator {
	e := n.est[p]
	if e == nil {
		e = n.shared.Links.New(p)
		n.est[p] = e
	}
	e.ResetFor(inc)
	return e
}

// Join enters group g with the given options and starts electing a leader.
func (n *Node) Join(g id.Group, opts JoinOptions) error {
	if n.stopped {
		return ErrStopped
	}
	if _, ok := n.groups[g]; ok {
		return fmt.Errorf("%w: %q", ErrAlreadyJoined, g)
	}
	if err := opts.withDefaults().QoS.Validate(); err != nil {
		return err
	}
	gs := newGroupState(n, g, opts.withDefaults())
	n.groups[g] = gs
	gs.start()
	return nil
}

// Leave departs group g gracefully: a LEAVE is announced so the group
// re-elects immediately if this process was the leader.
func (n *Node) Leave(g id.Group) error {
	gs, ok := n.groups[g]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotJoined, g)
	}
	gs.leave()
	delete(n.groups, g)
	return nil
}

// Leader returns the current leader view for group g.
func (n *Node) Leader(g id.Group) (LeaderInfo, error) {
	gs, ok := n.groups[g]
	if !ok {
		return LeaderInfo{}, fmt.Errorf("%w: %q", ErrNotJoined, g)
	}
	return gs.currentInfo(), nil
}

// Standby returns group g's current warm standby as seen locally: the
// member the leader nominated to take over on a planned handover. An empty
// process means none is known (no leader, no eligible follower, or the
// handover plane is disabled). Like every Node method, callers must be on
// the owning event loop.
//
//leadervet:onLoop
func (n *Node) Standby(g id.Group) (id.Process, int64, error) {
	gs, ok := n.groups[g]
	if !ok {
		return "", 0, fmt.Errorf("%w: %q", ErrNotJoined, g)
	}
	return gs.standby, gs.standbyInc, nil
}

// Depose hands group g's leadership — which the local process must
// currently hold — to the warm standby immediately: an urgent HANDOVER
// grants the standby the group-minimal rank, so every receiver elects it
// in one event instead of waiting out the failure detector. The local
// process stays in the group as an ordinary member (and future candidate).
func (n *Node) Depose(g id.Group) error {
	if n.stopped {
		return ErrStopped
	}
	gs, ok := n.groups[g]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotJoined, g)
	}
	return gs.depose()
}

// MemberStatus is one fellow group member as seen by the local failure
// detection layer — the query surface of the underlying shared FD service
// (Section 4 of the paper).
type MemberStatus struct {
	// ID and Incarnation identify the member lifetime.
	ID          id.Process
	Incarnation int64
	// Candidate reports whether the member competes for leadership.
	Candidate bool
	// Self marks the local process's own row.
	Self bool
	// Trusted is the failure detector's current verdict (always true for
	// the local process). Under OmegaL, silent processes that voluntarily
	// dropped out of the competition legitimately show as untrusted.
	Trusted bool
	// Interval and Timeout are the failure detector parameters (η, δ)
	// currently configured for the link from this member.
	Interval time.Duration
	Timeout  time.Duration
}

// Status returns the membership and failure detection state of group g,
// sorted by member id.
func (n *Node) Status(g id.Group) ([]MemberStatus, error) {
	gs, ok := n.groups[g]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotJoined, g)
	}
	return gs.appendStatusRows(nil), nil
}

// Stop halts the node abruptly (crash semantics: no LEAVE is sent, staged
// outbound traffic is dropped). Use Leave first for a graceful departure.
func (n *Node) Stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	for g, gs := range n.groups {
		gs.shutdown()
		delete(n.groups, g)
	}
	if n.subs != nil {
		n.subs.Stop()
	}
	n.out.Stop()
}

// HandleMessage dispatches one received datagram: a protocol message, or a
// Batch envelope whose inner messages dispatch individually. Hosts call it
// on the node's event loop.
//
//leadervet:hotpath
func (n *Node) HandleMessage(m wire.Message) {
	if n.stopped || m == nil {
		return
	}
	if b, ok := m.(*wire.Batch); ok {
		for _, inner := range b.Msgs {
			if n.stopped {
				return // an inner message may tear the node down
			}
			if inner == nil {
				continue
			}
			if _, nested := inner.(*wire.Batch); nested {
				continue // batches never nest; drop hostile framing
			}
			n.handleOne(inner)
		}
		return
	}
	n.handleOne(m)
}

// handleOne dispatches a single protocol message.
//
//leadervet:hotpath
func (n *Node) handleOne(m wire.Message) {
	if m.From() == n.self {
		// A process never processes its own traffic (possible with
		// broadcast transports).
		return
	}
	// Client-plane traffic routes to the subscriber registry: the senders
	// are non-members, and an unserved group must still be answered (with
	// a tombstone), so this dispatch precedes the membership lookup.
	switch t := m.(type) {
	case *wire.Subscribe:
		if n.subs != nil {
			n.subs.HandleSubscribe(t)
		}
		return
	case *wire.LeaseRenew:
		if n.subs != nil {
			n.subs.HandleRenew(t)
		}
		return
	case *wire.Unsubscribe:
		if n.subs != nil {
			n.subs.HandleUnsubscribe(t)
		}
		return
	case *wire.LeaderSnapshot:
		// Client-bound; a service node receiving one drops it.
		return
	case *wire.SuccessorHint:
		// Client-bound half of a goodbye; a service node drops it too.
		return
	}
	gs, ok := n.groups[m.GroupID()]
	if !ok {
		return
	}
	switch t := m.(type) {
	case *wire.Join:
		gs.handleJoin(t)
	case *wire.Leave:
		gs.handleLeave(t)
	case *wire.Hello:
		gs.handleHello(t)
	case *wire.Alive:
		gs.handleAlive(t)
	case *wire.Accuse:
		gs.handleAccuse(t)
	case *wire.Rate:
		gs.handleRate(t)
	case *wire.Standby:
		gs.handleStandby(t)
	case *wire.Handover:
		gs.handleHandover(t)
	}
}

// sendNow enqueues m for to on the urgent path: the destination's staging
// buffer is flushed synchronously, m included, preserving per-peer order.
//
//leadervet:hotpath
func (n *Node) sendNow(to id.Process, m wire.Message) {
	n.out.Enqueue(to, m, 0)
}

// sendLazy enqueues m for to on the coalescing path: m may wait up to the
// link's coalescing delay for companions bound to the same peer.
//
//leadervet:hotpath
func (n *Node) sendLazy(to id.Process, m wire.Message) {
	n.out.Enqueue(to, m, n.coalesceDelayFor(to))
}

// sendBackground enqueues m for to with no latency requirement of its own
// (periodic gossip, rate requests): it waits for the next heartbeat this
// node owes to — due at the pacer's earliest stream, leaving one coalescing
// delay later — and rides that datagram, though never longer than its own
// period (heartbeats slower than the gossip must not slow the gossip).
// Toward a peer we send no heartbeats it waits an eighth of its period
// instead, so the groups of a follower share datagrams with each other.
// Either way the deadline is armed now: a stream dropped before its beat
// delays nothing, and any lazy or urgent message bound for to meanwhile
// takes m along, in order.
//
//leadervet:hotpath
func (n *Node) sendBackground(to id.Process, m wire.Message, period time.Duration) {
	d := period / 8
	if pp := n.pacers[to]; pp != nil {
		if e, ok := pp.earliest(); ok {
			d = min(max(e.Sub(n.rt.Now()), 0)+n.coalesceDelayFor(to), period)
		}
	}
	n.out.Enqueue(to, m, d)
}
