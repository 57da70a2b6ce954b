// Package subs implements the server half of the client plane: a registry
// of remote subscribers that the election service keeps informed of
// leadership through lease-bounded LeaderSnapshot messages.
//
// The paper frames leader election as a *service* consulted by
// applications; members consult their in-process Group handle, but a
// production deployment also has non-member processes — frontends, load
// balancers, schedulers — that only need to know who leads. The registry
// turns those into cheap subscriptions:
//
//   - SUBSCRIBE registers a client under a lease and answers immediately
//     with the node's current view;
//   - every local leader-change edge fans a fresh snapshot out to the
//     group's subscribers;
//   - LEASE_RENEW extends the lease, and is answered with a snapshot
//     only when the client has had none for lease/6 — so a client that
//     renews every lease/3 hears the current view at least every lease/2,
//     and a lost change datagram heals inside the lease with no schedule
//     of the registry's own; a lease that expires unrenewed is dropped
//     silently (the client crashed);
//   - leaving a group publishes tombstone snapshots so clients fail over
//     to another service node instead of timing out.
//
// Fan-out cost is what makes this viable at 10k+ subscribers per node:
// every non-urgent send goes through the node's outbound coalescing
// scheduler, so a client subscribed to G groups — whose G renewals arrive
// in one datagram — receives one datagram carrying the G answers.
// Lease expiry rides the host's timer plane: each lease owns one
// re-armable timer (a hashed-timer-wheel entry in the real-time service)
// that subscribe and renew re-arm in place — O(1) per protocol event and
// one entry per lease, however often it renews.
//
// Like the protocol core, a Registry is single-threaded by contract: the
// host serialises message handlers, timer callbacks and publications onto
// one event loop.
package subs

import (
	"time"

	"stableleader/id"
	"stableleader/internal/clock"
	"stableleader/internal/obs"
	"stableleader/internal/wire"
)

// Defaults for Config fields left zero.
const (
	DefaultTTL    = 10 * time.Second
	DefaultMinTTL = time.Second
	DefaultMaxTTL = time.Minute
	// DefaultMaxLeases bounds the registry: a flood of subscriptions
	// (hostile or misconfigured) degrades to tombstone refusals instead of
	// unbounded memory.
	DefaultMaxLeases = 65536
)

// View is one group's leadership as the node currently sees it — the
// payload of a snapshot, decoupled from the core's internal types.
type View struct {
	Leader      id.Process
	Incarnation int64
	Elected     bool
	At          time.Time
	// Successor, when set, names the member a departing leader handed the
	// group to (the warm standby). Tombstone publications carry it so
	// clients re-pin to the successor immediately instead of probing.
	Successor    id.Process
	SuccessorInc int64
}

// Config parameterises a Registry.
type Config struct {
	// Self and Incarnation identify the serving node in snapshots.
	Self        id.Process
	Incarnation int64
	// Clock provides time and timers (the host's event-loop clock; the
	// real-time service backs timers with its wheel).
	Clock clock.Clock
	// Send transmits one client-bound message. Urgent sends flush the
	// destination immediately (tombstones racing a transport close);
	// everything else takes the coalescing path.
	Send func(to id.Process, m wire.Message, urgent bool)
	// Leader returns the node's current view of g, and whether the node
	// serves g at all.
	Leader func(g id.Group) (View, bool)
	// MaxLeases caps registered (client, group) leases (default
	// DefaultMaxLeases). Excess subscribers get tombstones: "go elsewhere".
	MaxLeases int
	// TTL bounds: requested leases clamp into [MinTTL, MaxTTL]; zero
	// requests get DefaultLease.
	DefaultLease, MinTTL, MaxTTL time.Duration
	// Obs, when set, receives the client-plane counters (subscribes,
	// renews, fan-outs, lease expiries) on the host's event loop. Every
	// obs.Shard method is nil-safe, so the field may stay unset.
	Obs *obs.Shard
}

func (c Config) withDefaults() Config {
	if c.MaxLeases <= 0 {
		c.MaxLeases = DefaultMaxLeases
	}
	if c.DefaultLease <= 0 {
		c.DefaultLease = DefaultTTL
	}
	if c.MinTTL <= 0 {
		c.MinTTL = DefaultMinTTL
	}
	if c.MaxTTL <= 0 {
		c.MaxTTL = DefaultMaxTTL
	}
	if c.MaxTTL < c.MinTTL {
		c.MaxTTL = c.MinTTL
	}
	return c
}

// clientSub is one remote client's registration: its current lifetime and
// its per-group leases.
type clientSub struct {
	client id.Process
	inc    int64
	leases map[id.Group]*lease
}

// lease is one (client, group) subscription.
type lease struct {
	sub   *clientSub
	group id.Group
	ttl   time.Duration
	// timer drops the lease once it has gone a whole ttl unrenewed.
	timer clock.Rearmer
	// lastSnap is when this client last got a snapshot for the group (any
	// reason); a renewal is answered once it is ttl/6 old.
	lastSnap time.Time
	removed  bool
}

// groupPub is the per-group publication state: the snapshot sequence and
// the reverse index from group to subscribed clients.
type groupPub struct {
	seq  uint64
	subs map[id.Process]*lease
}

// Stats is a point-in-time summary of the registry.
type Stats struct {
	// Clients is the number of distinct subscribed client processes.
	Clients int
	// Leases is the number of (client, group) subscriptions.
	Leases int
}

// Registry is the subscriber registry of one service node.
type Registry struct {
	cfg     Config
	clients map[id.Process]*clientSub
	groups  map[id.Group]*groupPub
	leases  int

	// clientScratch is a reusable sorted-key buffer for the fan-out
	// iterations: a leader-change under 10k subscribers must not allocate
	// a fresh key slice per publication. Safe as a registry field because
	// the registry is single-threaded and nothing downstream of a send
	// re-enters the iterations.
	clientScratch []id.Process

	stopped bool
}

// New returns an empty registry.
func New(cfg Config) *Registry {
	return &Registry{
		cfg:     cfg.withDefaults(),
		clients: make(map[id.Process]*clientSub),
		groups:  make(map[id.Group]*groupPub),
	}
}

// clampTTL applies the registry's lease bounds.
func (r *Registry) clampTTL(ns int64) time.Duration {
	ttl := time.Duration(ns)
	if ttl <= 0 {
		return r.cfg.DefaultLease
	}
	if ttl < r.cfg.MinTTL {
		return r.cfg.MinTTL
	}
	if ttl > r.cfg.MaxTTL {
		return r.cfg.MaxTTL
	}
	return ttl
}

// Stats summarises the current registration state.
func (r *Registry) Stats() Stats {
	return Stats{Clients: len(r.clients), Leases: r.leases}
}

// HandleSubscribe registers (or refreshes) one client's subscription and
// answers with an immediate snapshot. Unserved groups and a full registry
// answer with a tombstone: the client's cue to try another endpoint. A
// subscribe from a superseded client lifetime is dropped silently — a
// tombstone would reach the client's CURRENT lifetime (tombstones carry
// no client incarnation) and tear down its healthy subscription.
func (r *Registry) HandleSubscribe(m *wire.Subscribe) {
	if r.stopped {
		return
	}
	r.cfg.Obs.Inc(obs.CSubscribes)
	view, ok := r.cfg.Leader(m.Group)
	if !ok {
		r.sendTombstone(m.Sender, m.Group, View{}, false)
		return
	}
	l, staleLifetime := r.ensureLease(m.Group, m.Sender, m.Incarnation, m.TTL)
	if staleLifetime {
		return
	}
	if l == nil {
		r.sendTombstone(m.Sender, m.Group, view, false)
		return
	}
	gp := r.groups[m.Group]
	gp.seq++
	r.sendSnapshot(l, gp.seq, view)
}

// HandleRenew extends a lease, and answers with the current view once the
// client has gone ttl/6 without a snapshot. That is half the client's
// ttl/3 renewal period, so a renewing client hears the view at least every
// ttl/2 and one lost answer still leaves a snapshot inside its lease. A
// due renewal for a group the node no longer serves (leave publishes
// tombstones and drops leases, so this should not happen) gets a
// tombstone and loses its lease. An unknown registration (expired, or from
// a restarted node) is healed by treating the renew as a fresh subscribe —
// the client keeps working across server restarts without tracking them.
func (r *Registry) HandleRenew(m *wire.LeaseRenew) {
	if r.stopped {
		return
	}
	r.cfg.Obs.Inc(obs.CRenews)
	cs := r.clients[m.Sender]
	if cs != nil && cs.inc == m.Incarnation {
		if l := cs.leases[m.Group]; l != nil {
			l.ttl = r.clampTTL(m.TTL)
			l.timer.Reset(l.ttl)
			if r.cfg.Clock.Now().Sub(l.lastSnap) < l.ttl/6 {
				return
			}
			view, ok := r.cfg.Leader(m.Group)
			if !ok {
				r.sendTombstone(m.Sender, m.Group, View{}, false)
				r.dropLease(l)
				return
			}
			gp := r.groups[m.Group]
			gp.seq++
			r.sendSnapshot(l, gp.seq, view)
			return
		}
	}
	r.HandleSubscribe(&wire.Subscribe{
		Group: m.Group, Sender: m.Sender, Incarnation: m.Incarnation, TTL: m.TTL,
	})
}

// HandleUnsubscribe withdraws one lease. The incarnation must match: a
// reordered unsubscribe from a client's previous lifetime must not tear
// down its successor.
func (r *Registry) HandleUnsubscribe(m *wire.Unsubscribe) {
	if r.stopped {
		return
	}
	r.cfg.Obs.Inc(obs.CUnsubscribes)
	cs := r.clients[m.Sender]
	if cs == nil || cs.inc != m.Incarnation {
		return
	}
	if l := cs.leases[m.Group]; l != nil {
		r.dropLease(l)
	}
}

// PublishLeaderChange fans the new view out to every subscriber of g on
// the coalescing path — the interrupt-mode notification of the client
// plane, fired from the node's leader-change edge.
func (r *Registry) PublishLeaderChange(g id.Group, v View) {
	if r.stopped {
		return
	}
	gp := r.groups[g]
	if gp == nil || len(gp.subs) == 0 {
		return
	}
	gp.seq++
	r.clientScratch = id.AppendSortedMapKeys(r.clientScratch[:0], gp.subs)
	for _, c := range r.clientScratch {
		r.sendSnapshot(gp.subs[c], gp.seq, v)
	}
}

// PublishTombstone tells every subscriber of g that this node stopped
// serving it (graceful leave or shutdown), urgently — the transport may be
// about to close — and drops their leases.
func (r *Registry) PublishTombstone(g id.Group, v View) {
	if r.stopped {
		return
	}
	gp := r.groups[g]
	if gp == nil || len(gp.subs) == 0 {
		return
	}
	// The scratch snapshot (not live map iteration) is what makes the
	// dropLease mutations below safe.
	r.clientScratch = id.AppendSortedMapKeys(r.clientScratch[:0], gp.subs)
	for _, c := range r.clientScratch {
		l := gp.subs[c]
		if v.Successor != "" {
			r.sendSuccessorHint(l, v)
		}
		r.sendTombstone(c, g, v, true)
		r.dropLease(l)
	}
}

// sendSuccessorHint emits the where-to-next half of a goodbye: the member
// the departing leader handed the group to. It stages on the coalescing
// path so the urgent tombstone that follows flushes both in one datagram,
// hint first — a client that receives the pair fails over to the successor
// with no stale window, and one that sees only a lone or reordered
// tombstone (the hint's lower sequence is then rejected) degrades to the
// plain probing failover.
func (r *Registry) sendSuccessorHint(l *lease, v View) {
	gp := r.groups[l.group]
	gp.seq++
	r.cfg.Send(l.sub.client, &wire.SuccessorHint{
		Group:        l.group,
		Sender:       r.cfg.Self,
		Incarnation:  r.cfg.Incarnation,
		Seq:          gp.seq,
		Successor:    v.Successor,
		SuccessorInc: v.SuccessorInc,
		At:           viewAt(v),
		Lease:        int64(l.ttl),
	}, false)
}

// Stop halts the registry's timers without announcing anything (crash
// semantics; graceful paths publish tombstones through the core's leave).
func (r *Registry) Stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	for _, cs := range r.clients {
		for _, l := range cs.leases {
			l.timer.Stop()
		}
	}
}

// ensureLease finds or creates the lease for (client, g) under the client
// lifetime inc, extending its expiry. A nil lease means the registry is
// full; staleLifetime reports a message from before the client's restart,
// which callers must ignore entirely.
func (r *Registry) ensureLease(g id.Group, client id.Process, inc int64, ttlNS int64) (l *lease, staleLifetime bool) {
	cs := r.clients[client]
	if cs != nil && inc < cs.inc {
		return nil, true
	}
	if cs != nil && inc > cs.inc {
		// The client restarted: its old leases die with the old lifetime.
		for _, gid := range id.SortedMapKeys(cs.leases) {
			r.dropLease(cs.leases[gid])
		}
		cs = nil
	}
	if cs == nil {
		if r.leases >= r.cfg.MaxLeases {
			return nil, false
		}
		cs = &clientSub{client: client, inc: inc, leases: make(map[id.Group]*lease)}
		r.clients[client] = cs
	}
	l = cs.leases[g]
	if l == nil {
		if r.leases >= r.cfg.MaxLeases {
			if len(cs.leases) == 0 {
				delete(r.clients, client)
			}
			return nil, false
		}
		l = &lease{sub: cs, group: g}
		l.timer = clock.NewTimer(r.cfg.Clock, func() { r.expire(l) })
		cs.leases[g] = l
		gp := r.groups[g]
		if gp == nil {
			gp = &groupPub{subs: make(map[id.Process]*lease)}
			r.groups[g] = gp
		}
		gp.subs[client] = l
		r.leases++
	}
	l.ttl = r.clampTTL(ttlNS)
	l.timer.Reset(l.ttl)
	return l, false
}

// dropLease removes one lease and stops its timer (idempotent).
func (r *Registry) dropLease(l *lease) {
	if l.removed {
		return
	}
	l.removed = true
	l.timer.Stop()
	delete(l.sub.leases, l.group)
	if len(l.sub.leases) == 0 {
		delete(r.clients, l.sub.client)
	}
	if gp := r.groups[l.group]; gp != nil {
		delete(gp.subs, l.sub.client)
		// gp itself stays for the node's lifetime even with no
		// subscribers: its Seq must never restart, or a client that
		// re-subscribes mid-stream would reject the fresh snapshots as
		// reordered duplicates of its higher last-seen sequence.
	}
	r.leases--
}

// expire is a lease timer's callback: the lease went a whole ttl
// unrenewed, so its client is presumed gone. A lease already dropped (a
// timer whose Stop lost the race with its fire, on a clock that allows
// one) is left alone.
func (r *Registry) expire(l *lease) {
	if r.stopped || l.removed {
		return
	}
	r.cfg.Obs.Inc(obs.CLeaseExpiries)
	r.dropLease(l)
}

// viewAt encodes a view's adoption time, mapping the zero time to zero.
func viewAt(v View) int64 {
	if v.At.IsZero() {
		return 0
	}
	return v.At.UnixNano()
}

// sendSnapshot emits one lease-stamped snapshot on the coalescing path.
// The struct comes from the send pool: under a 10k-subscriber fan-out the
// per-subscriber snapshot is the dominant allocation, and the consuming
// host recycles it the moment the bytes hit the wire (the view itself is
// shared by value — only the lease stamp differs per subscriber).
func (r *Registry) sendSnapshot(l *lease, seq uint64, v View) {
	r.cfg.Obs.Inc(obs.CSnapshotsSent)
	l.lastSnap = r.cfg.Clock.Now()
	m := wire.GetLeaderSnapshot()
	*m = wire.LeaderSnapshot{
		Group:             l.group,
		Sender:            r.cfg.Self,
		Incarnation:       r.cfg.Incarnation,
		Seq:               seq,
		Elected:           v.Elected,
		Leader:            v.Leader,
		LeaderIncarnation: v.Incarnation,
		At:                viewAt(v),
		Lease:             int64(l.ttl),
	}
	r.cfg.Send(l.sub.client, m, false) //leadervet:handoff — the host's send path releases it
}

// sendTombstone emits a final "not serving this group" snapshot. The last
// known view rides along as a stale hint for the client's failover. Each
// tombstone bumps the group's sequence so it passes the client's
// ordering guard like any snapshot — a duplicated old tombstone must not
// be able to tear down a later, healthy subscription. Unknown groups
// deliberately get seq 0 rather than a groupPub allocation: a spray of
// subscribes for unique group names must not grow server state, and the
// receiving client is necessarily on a fresh stream (no guard to pass).
func (r *Registry) sendTombstone(to id.Process, g id.Group, v View, urgent bool) {
	r.cfg.Obs.Inc(obs.CTombstones)
	var seq uint64
	if gp := r.groups[g]; gp != nil {
		gp.seq++
		seq = gp.seq
	}
	m := wire.GetLeaderSnapshot()
	*m = wire.LeaderSnapshot{
		Group:             g,
		Sender:            r.cfg.Self,
		Incarnation:       r.cfg.Incarnation,
		Seq:               seq,
		Elected:           v.Elected,
		Leader:            v.Leader,
		LeaderIncarnation: v.Incarnation,
		Tombstone:         true,
		At:                viewAt(v),
	}
	r.cfg.Send(to, m, urgent) //leadervet:handoff — the host's send path releases it
}
