package stableleader

import (
	"time"

	"stableleader/id"
	"stableleader/internal/metrics"
)

// EventKind discriminates the concrete type of an Event without a type
// switch; it doubles as the unit of Watch filtering.
type EventKind uint8

// Event kinds, one per concrete Event type.
const (
	// KindLeaderChanged is a change of the locally observed leader view.
	KindLeaderChanged EventKind = iota + 1
	// KindMemberJoined is a member entering the group's active view.
	KindMemberJoined
	// KindMemberLeft is a member leaving the group's active view.
	KindMemberLeft
	// KindMemberSuspected is the failure detector suspecting a member.
	KindMemberSuspected
	// KindMemberTrusted is the failure detector restoring trust in a member.
	KindMemberTrusted
	// KindQoSReconfigured is the configurator adopting new failure
	// detection parameters for one monitored link.
	KindQoSReconfigured
	// KindStandbyChanged is the leader's warm-standby nomination changing.
	KindStandbyChanged
)

// String names the kind for logs.
func (k EventKind) String() string {
	switch k {
	case KindLeaderChanged:
		return "leader-changed"
	case KindMemberJoined:
		return "member-joined"
	case KindMemberLeft:
		return "member-left"
	case KindMemberSuspected:
		return "member-suspected"
	case KindMemberTrusted:
		return "member-trusted"
	case KindQoSReconfigured:
		return "qos-reconfigured"
	case KindStandbyChanged:
		return "standby-changed"
	default:
		return "unknown"
	}
}

// Event is one observation delivered on a Group.Watch stream: a sum type
// over leadership, membership, suspicion and QoS reconfiguration events.
// The concrete types are LeaderChanged, MemberJoined, MemberLeft,
// MemberSuspected, MemberTrusted, QoSReconfigured and StandbyChanged;
// switch on the value's type or on Kind().
type Event interface {
	// Kind identifies the concrete event type.
	Kind() EventKind
	// GroupID is the group the event concerns.
	GroupID() id.Group
	// When is when the event was observed locally.
	When() time.Time

	isEvent() // seals the sum type
}

// LeaderChanged reports a change of the locally observed leader view — the
// paper's interrupt-mode notification.
type LeaderChanged struct {
	// Info is the newly adopted view.
	Info LeaderInfo
}

// Kind implements Event.
func (e LeaderChanged) Kind() EventKind { return KindLeaderChanged }

// GroupID implements Event.
func (e LeaderChanged) GroupID() id.Group { return e.Info.Group }

// When implements Event.
func (e LeaderChanged) When() time.Time { return e.Info.At }

func (LeaderChanged) isEvent() {}

// MemberJoined reports a member (a specific incarnation of a process)
// entering the group's active view on this node.
type MemberJoined struct {
	// Group is the group concerned.
	Group id.Group
	// Member identifies the process and Incarnation its lifetime.
	Member      id.Process
	Incarnation int64
	// Candidate reports whether the member competes for leadership.
	Candidate bool
	// At is the local observation time.
	At time.Time
}

// Kind implements Event.
func (e MemberJoined) Kind() EventKind { return KindMemberJoined }

// GroupID implements Event.
func (e MemberJoined) GroupID() id.Group { return e.Group }

// When implements Event.
func (e MemberJoined) When() time.Time { return e.At }

func (MemberJoined) isEvent() {}

// MemberLeft reports a member leaving the group's active view on this
// node, whether by LEAVE announcement or by being superseded by a newer
// incarnation of the same process.
type MemberLeft struct {
	// Group is the group concerned.
	Group id.Group
	// Member identifies the process and Incarnation the lifetime that ended.
	Member      id.Process
	Incarnation int64
	// At is the local observation time.
	At time.Time
}

// Kind implements Event.
func (e MemberLeft) Kind() EventKind { return KindMemberLeft }

// GroupID implements Event.
func (e MemberLeft) GroupID() id.Group { return e.Group }

// When implements Event.
func (e MemberLeft) When() time.Time { return e.At }

func (MemberLeft) isEvent() {}

// MemberSuspected reports the local failure detector losing trust in a
// member: no sufficiently fresh heartbeat arrived within the configured
// timeout. Under OmegaL a member that voluntarily stopped competing is
// legitimately reported suspected.
type MemberSuspected struct {
	// Group is the group concerned.
	Group id.Group
	// Member identifies the suspected process and Incarnation its lifetime.
	Member      id.Process
	Incarnation int64
	// At is the local observation time.
	At time.Time
}

// Kind implements Event.
func (e MemberSuspected) Kind() EventKind { return KindMemberSuspected }

// GroupID implements Event.
func (e MemberSuspected) GroupID() id.Group { return e.Group }

// When implements Event.
func (e MemberSuspected) When() time.Time { return e.At }

func (MemberSuspected) isEvent() {}

// MemberTrusted reports the local failure detector restoring trust in a
// member: a fresh heartbeat arrived.
type MemberTrusted struct {
	// Group is the group concerned.
	Group id.Group
	// Member identifies the trusted process and Incarnation its lifetime.
	Member      id.Process
	Incarnation int64
	// At is the local observation time.
	At time.Time
}

// Kind implements Event.
func (e MemberTrusted) Kind() EventKind { return KindMemberTrusted }

// GroupID implements Event.
func (e MemberTrusted) GroupID() id.Group { return e.Group }

// When implements Event.
func (e MemberTrusted) When() time.Time { return e.At }

func (MemberTrusted) isEvent() {}

// QoSReconfigured reports the QoS configurator adopting new failure
// detection parameters for the link from one member, in response to
// measured link behaviour — the adaptation loop of Section 3 of the paper.
type QoSReconfigured struct {
	// Group is the group concerned.
	Group id.Group
	// Member is the monitored process whose link was reconfigured.
	Member id.Process
	// Interval (η) is the heartbeat interval now requested from Member;
	// Timeout (δ) the timeout shift now applied to its heartbeats.
	Interval time.Duration
	Timeout  time.Duration
	// At is the local observation time.
	At time.Time
}

// Kind implements Event.
func (e QoSReconfigured) Kind() EventKind { return KindQoSReconfigured }

// GroupID implements Event.
func (e QoSReconfigured) GroupID() id.Group { return e.Group }

// When implements Event.
func (e QoSReconfigured) When() time.Time { return e.At }

func (QoSReconfigured) isEvent() {}

// StandbyChanged reports the group's warm standby changing as seen
// locally: the follower the current leader nominates (and continuously
// re-announces in its heartbeat stream) to take over on a planned
// handover. An empty Standby means no live follower qualifies.
type StandbyChanged struct {
	// Group is the group concerned.
	Group id.Group
	// Standby identifies the nominated process and Incarnation its
	// lifetime; both are zero when the nomination was withdrawn.
	Standby     id.Process
	Incarnation int64
	// At is the local observation time.
	At time.Time
}

// Kind implements Event.
func (e StandbyChanged) Kind() EventKind { return KindStandbyChanged }

// GroupID implements Event.
func (e StandbyChanged) GroupID() id.Group { return e.Group }

// When implements Event.
func (e StandbyChanged) When() time.Time { return e.At }

func (StandbyChanged) isEvent() {}

// PacketStats is a point-in-time snapshot of the service's packet plane
// (Service.PacketStats); its Delta, RatesOver and per-syscall ratio
// methods apply to a difference of snapshots exactly as to a cumulative
// one.
type PacketStats = metrics.PacketStats

// PacketRates is a PacketStats delta normalised to per-second rates over
// a measurement interval; see PacketStats.RatesOver.
type PacketRates = metrics.PacketRates

// ClientStats is a point-in-time summary of the remote client plane (see
// WithClientPlane and the client package): how many remote client
// processes hold leadership subscriptions on this node, and how many
// (client, group) leases they add up to. Obtain it from
// Service.ClientStats.
type ClientStats struct {
	// Enabled mirrors the WithClientPlane option.
	Enabled bool
	// Clients is the number of distinct subscribed client processes.
	Clients int
	// Leases is the number of live (client, group) subscriptions.
	Leases int
}

// subscriber is one Watch stream: a buffered channel plus a kind filter.
// Delivery never blocks the event loop: when the buffer is full the oldest
// undelivered event is dropped, so a slow consumer loses history but always
// converges on the freshest events.
type subscriber struct {
	ch   chan Event
	mask uint64 // bitset of 1<<EventKind; 0 means all kinds
}

// wants reports whether the filter admits kind k.
func (s *subscriber) wants(k EventKind) bool {
	return s.mask == 0 || s.mask&(1<<uint(k)) != 0
}

// offer delivers ev with drop-oldest semantics. Only the owning Group's
// publisher (one goroutine at a time, under the group mutex) calls offer,
// so the drain-retry loop cannot livelock against another producer.
func (s *subscriber) offer(ev Event) {
	if !s.wants(ev.Kind()) {
		return
	}
	for {
		select {
		case s.ch <- ev:
			return
		default:
			// Buffer full: evict the oldest entry and retry. The receiver
			// may win the race and drain it first; either way one slot
			// frees up and the retry succeeds or loops again.
			select {
			case <-s.ch:
			default:
			}
		}
	}
}
