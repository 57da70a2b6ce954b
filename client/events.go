package client

import (
	"time"

	"stableleader/id"
)

// EventKind discriminates the concrete type of an Event.
type EventKind uint8

// Event kinds, one per concrete Event type.
const (
	// KindLeaderUpdated is a fresh leadership view adopted from a service
	// endpoint.
	KindLeaderUpdated EventKind = iota + 1
	// KindLeaseLost is the staleness edge: the lease ran out without a
	// fresh snapshot, so the cached view may be outdated.
	KindLeaseLost
	// KindEndpointTombstoned is a serving endpoint announcing it no longer
	// serves the group; failover is already in progress.
	KindEndpointTombstoned
)

// String names the kind for logs.
func (k EventKind) String() string {
	switch k {
	case KindLeaderUpdated:
		return "leader-updated"
	case KindLeaseLost:
		return "lease-lost"
	case KindEndpointTombstoned:
		return "endpoint-tombstoned"
	default:
		return "unknown"
	}
}

// Event is one observation delivered on a Client.Watch stream. The
// concrete types are LeaderUpdated, LeaseLost and EndpointTombstoned;
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

// LeaderUpdated reports a change of the leadership view served to this
// client — the interrupt-mode notification of the client plane. Silent
// lease refreshes (snapshots of an unchanged view, such as the answers to
// renewals) do not fire it.
type LeaderUpdated struct {
	// Lease is the newly adopted view.
	Lease LeaderLease
}

// Kind implements Event.
func (e LeaderUpdated) Kind() EventKind { return KindLeaderUpdated }

// GroupID implements Event.
func (e LeaderUpdated) GroupID() id.Group { return e.Lease.Group }

// When implements Event.
func (e LeaderUpdated) When() time.Time { return e.Lease.At }

func (LeaderUpdated) isEvent() {}

// LeaseLost reports that the lease on a group's view expired without a
// fresh snapshot: the service endpoint is unreachable or dead. The client
// is already retrying and failing over; a LeaderUpdated follows when an
// endpoint answers.
type LeaseLost struct {
	// Group is the group concerned.
	Group id.Group
	// ServedBy is the endpoint that went silent.
	ServedBy id.Process
	// Last is the now-stale view (still readable through Cached).
	Last LeaderLease
	// At is the local observation time.
	At time.Time
}

// Kind implements Event.
func (e LeaseLost) Kind() EventKind { return KindLeaseLost }

// GroupID implements Event.
func (e LeaseLost) GroupID() id.Group { return e.Group }

// When implements Event.
func (e LeaseLost) When() time.Time { return e.At }

func (LeaseLost) isEvent() {}

// EndpointTombstoned reports a serving endpoint's goodbye: it stopped
// serving the group (graceful leave or shutdown) and told us so, which is
// cheaper than waiting out the lease. Failover is already in progress.
//
// It is not delivered when the departing endpoint was also the group's
// leader and handed over on its way out: that goodbye names the successor,
// the client re-pins to it before the tombstone is processed, and the
// watcher sees a fresh LeaderUpdated naming the successor instead (no stale
// window). Code waiting for an endpoint to go away must accept either.
type EndpointTombstoned struct {
	// Group is the group concerned.
	Group id.Group
	// Endpoint is the service node that said goodbye.
	Endpoint id.Process
	// At is the local observation time.
	At time.Time
}

// Kind implements Event.
func (e EndpointTombstoned) Kind() EventKind { return KindEndpointTombstoned }

// GroupID implements Event.
func (e EndpointTombstoned) GroupID() id.Group { return e.Group }

// When implements Event.
func (e EndpointTombstoned) When() time.Time { return e.At }

func (EndpointTombstoned) isEvent() {}

// subscriber is one Watch stream: a buffered channel with drop-oldest
// delivery, exactly like the service-side event streams.
type subscriber struct {
	ch chan Event
}

// offer delivers ev without ever blocking the state machine: when the buffer
// is full the oldest undelivered event is dropped. Only the owning group
// view's publisher (one goroutine at a time, under its mutex) calls offer.
func (s *subscriber) offer(ev Event) {
	for {
		select {
		case s.ch <- ev:
			return
		default:
			select {
			case <-s.ch:
			default:
			}
		}
	}
}
