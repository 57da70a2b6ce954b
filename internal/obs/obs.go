// Package obs is the service's observability plane: a dependency-free,
// shard-local metrics registry, a protocol flight recorder, and a
// hand-rolled Prometheus text-exposition writer.
//
// The registry follows the same ownership discipline as the protocol
// itself. Each event-loop shard owns one Shard of cache-line-padded
// counter slots and writes them with plain stores — no atomics, no
// locks, nothing on the hot path but an indexed increment. Aggregation
// happens only at scrape time: the host serialises a Snapshot call
// through each shard's event loop (the same path as any loop query) and
// sums the copies off-loop. A scrape therefore observes each shard at a
// loop-quiescent instant, and the steady state pays nothing for being
// observable.
//
// The flight recorder applies the identical idea to *decisions* instead
// of counts: every protocol-visible edge (suspect, trust, rank change,
// standby nomination, handover, leader change) appends one fixed-size
// binary record to the shard's ring. Appends are plain stores into a
// preallocated buffer; dumping copies the ring out through the loop and
// renders JSON off it, so a disputed election can be reconstructed from
// every node's last N protocol decisions at zero steady-state cost.
//
// Every Shard method is nil-receiver safe: a host built without the
// plane passes nil and every instrumentation site degrades to a branch.
package obs

import "time"

// Counter names one shard-local counter slot. Counters are written by
// the owning event loop with plain stores and aggregated at scrape
// time; see the package comment for the ownership rules.
type Counter uint8

// The counter set. Grouped by subsystem; the exposition names and help
// strings live in counterDefs and must stay index-aligned.
const (
	// Election plane.
	CElectionsStarted Counter = iota // elected view lost: an election began
	CElectionsWon                    // local process adopted itself as leader
	CLeaderChanges                   // any elected leader view adopted
	CDemotions                       // local process lost its own leadership
	CDropouts                        // ΩL voluntary competition drop-outs

	// Failure detection plane.
	CSuspicions     // trust→suspect edges
	CTrustRestored  // suspect→trust edges
	CHeartbeats     // heartbeats fed to monitors
	CFDReconfigs    // (η, δ) reconfigurations adopted
	CAccusationsOut // ACCUSE messages sent
	CAccusationsIn  // ACCUSE messages received

	// Standby / handover plane.
	CStandbyNominations // standby view changes to a live nominee
	CHandoversSent      // planned handovers granted (leave, depose)
	CHandoversRecv      // HANDOVER messages received

	// Client plane.
	CSubscribes    // SUBSCRIBE messages accepted
	CRenews        // LEASE_RENEW messages handled
	CUnsubscribes  // UNSUBSCRIBE messages handled
	CSnapshotsSent // LeaderSnapshot fan-outs sent
	CLeaseExpiries // leases dropped unrenewed
	CTombstones    // tombstone snapshots sent

	// Inbound packet plane (per-shard share of the steered datagrams).
	CInboundParts      // datagram parts dispatched on this shard
	CInboundSplitParts // continuation parts of datagrams split across shards

	// Event-loop plane: what the at-rest cost is charged per.
	CLoopWakeups // shard-loop wake-ups (commands and inbound parts served)
	CTimerFires  // timer-driver fires (wheel advances run on the loop)

	counterCount // must stay last
)

// CounterCount is the number of counter slots (for hosts sizing
// aggregate arrays).
const CounterCount = int(counterCount)

// counterDef is one counter's exposition metadata.
type counterDef struct{ name, help string }

// counterDefs is index-aligned with the Counter constants.
var counterDefs = [counterCount]counterDef{
	CElectionsStarted:   {"stableleader_elections_started_total", "Elected leader views lost: elections begun from this node's perspective."},
	CElectionsWon:       {"stableleader_elections_won_total", "Elections in which this node adopted itself as leader."},
	CLeaderChanges:      {"stableleader_leader_changes_total", "Elected leader views adopted (any leader)."},
	CDemotions:          {"stableleader_demotions_total", "Times this node lost its own leadership."},
	CDropouts:           {"stableleader_election_dropouts_total", "Voluntary competition drop-outs (OmegaL phase bumps)."},
	CSuspicions:         {"stableleader_fd_suspicions_total", "Failure detector trust-to-suspect edges."},
	CTrustRestored:      {"stableleader_fd_trust_restored_total", "Failure detector suspect-to-trust edges."},
	CHeartbeats:         {"stableleader_fd_heartbeats_total", "Heartbeats observed by failure detector monitors."},
	CFDReconfigs:        {"stableleader_fd_reconfigurations_total", "QoS configurator parameter adoptions."},
	CAccusationsOut:     {"stableleader_accusations_sent_total", "ACCUSE messages sent."},
	CAccusationsIn:      {"stableleader_accusations_received_total", "ACCUSE messages received."},
	CStandbyNominations: {"stableleader_standby_nominations_total", "Warm-standby nominations adopted."},
	CHandoversSent:      {"stableleader_handovers_sent_total", "Planned handovers granted by this node."},
	CHandoversRecv:      {"stableleader_handovers_received_total", "HANDOVER messages received."},
	CSubscribes:         {"stableleader_client_subscribes_total", "Client-plane SUBSCRIBE messages handled."},
	CRenews:             {"stableleader_client_renews_total", "Client-plane LEASE_RENEW messages handled."},
	CUnsubscribes:       {"stableleader_client_unsubscribes_total", "Client-plane UNSUBSCRIBE messages handled."},
	CSnapshotsSent:      {"stableleader_client_snapshots_sent_total", "Leader snapshots fanned out to subscribers."},
	CLeaseExpiries:      {"stableleader_client_lease_expiries_total", "Client leases dropped unrenewed."},
	CTombstones:         {"stableleader_client_tombstones_total", "Tombstone snapshots sent to subscribers."},
	CInboundParts:       {"stableleader_inbound_parts_total", "Steered datagram parts dispatched on the event loops."},
	CInboundSplitParts:  {"stableleader_inbound_split_parts_total", "Continuation parts of datagrams split across shards."},
	CLoopWakeups:        {"stableleader_loop_wakeups_total", "Shard event-loop wake-ups: commands (timer advances included) and inbound datagram parts served."},
	CTimerFires:         {"stableleader_timer_driver_fires_total", "Timer-driver fires: wheel advances run on the shard loops."},
}

// Name returns the counter's Prometheus series name.
func (c Counter) Name() string { return counterDefs[c].name }

// Help returns the counter's exposition help string.
func (c Counter) Help() string { return counterDefs[c].help }

// Leaderless-duration histogram buckets, in seconds. Exponential from
// 1ms: a planned handover lands in the first buckets, a detection-bound
// failover around the QoS detection time, pathologies in the tail.
var leaderlessBounds = [...]float64{0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384, 65.536}

const histBuckets = len(leaderlessBounds) + 1 // + the +Inf bucket

// Histogram is a fixed-bucket duration histogram, loop-owned like the
// counters: plain stores on observe, copied whole at scrape time.
type Histogram struct {
	counts [histBuckets]uint64 //leadervet:loopOwned
	sumNS  uint64              //leadervet:loopOwned
	n      uint64              //leadervet:loopOwned
}

// observe records one duration with plain stores.
//
//leadervet:onLoop
func (h *Histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(leaderlessBounds) && s > leaderlessBounds[i] {
		i++
	}
	h.counts[i]++
	if d > 0 {
		h.sumNS += uint64(d)
	}
	h.n++
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Counts [histBuckets]uint64
	SumNS  uint64
	N      uint64
}

// Merge accumulates o into s.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.SumNS += o.SumNS
	s.N += o.N
}

// Shard is one event loop's slice of the registry: counters, the
// leaderless-duration histogram and the flight-recorder ring, all
// written only by the owning loop (every mutating method carries the
// //leadervet:onLoop contract — callers promise to be on it).
type Shard struct {
	c          [counterCount]uint64 //leadervet:loopOwned
	leaderless Histogram
	flight     Ring

	// pad keeps adjacent shards in the registry's contiguous slot slice
	// from sharing cache lines: each slot is written by a different
	// event-loop goroutine at full protocol rate.
	_ [64]byte
}

// Inc adds one to counter c with a plain store.
//
//leadervet:onLoop
func (s *Shard) Inc(c Counter) {
	if s == nil {
		return
	}
	s.c[c]++
}

// Add adds n to counter c with a plain store.
//
//leadervet:onLoop
func (s *Shard) Add(c Counter, n uint64) {
	if s == nil {
		return
	}
	s.c[c] += n
}

// ObserveLeaderless records one leaderless-window duration (the time
// between losing an elected view and adopting the next one).
//
//leadervet:onLoop
func (s *Shard) ObserveLeaderless(d time.Duration) {
	if s == nil {
		return
	}
	s.leaderless.observe(d)
}

// Snapshot copies the shard's counters and histogram. Like every
// mutating method it must run on the owning loop; hosts call it from a
// loop-serialised closure at scrape time.
//
//leadervet:onLoop
func (s *Shard) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	return Snapshot{
		Counters: s.c,
		Leaderless: HistogramSnapshot{
			Counts: s.leaderless.counts,
			SumNS:  s.leaderless.sumNS,
			N:      s.leaderless.n,
		},
	}
}

// Snapshot is a point-in-time copy of one shard's registry slice.
type Snapshot struct {
	Counters   [counterCount]uint64
	Leaderless HistogramSnapshot
}

// Merge accumulates o into s — the scrape-time aggregation across
// shards.
func (s *Snapshot) Merge(o Snapshot) {
	for i := range s.Counters {
		s.Counters[i] += o.Counters[i]
	}
	s.Leaderless.Merge(o.Leaderless)
}

// Get returns counter c's value in the snapshot.
func (s Snapshot) Get(c Counter) uint64 { return s.Counters[c] }

// registrySlot pads Shard (the struct already trails 64 bytes of pad;
// the contiguous slice keeps slots adjacent and index-addressable).
type registrySlot = Shard

// Registry is the per-service registry: one padded Shard slot per
// event-loop shard, allocated contiguously at construction.
type Registry struct {
	slots []registrySlot
}

// NewRegistry allocates a registry with n shard slots, each flight ring
// holding flightDepth records.
func NewRegistry(n, flightDepth int) *Registry {
	if n < 1 {
		n = 1
	}
	r := &Registry{slots: make([]registrySlot, n)}
	for i := range r.slots {
		r.slots[i].flight.init(flightDepth)
	}
	return r
}

// Shard returns slot i; the owning event loop writes through it.
func (r *Registry) Shard(i int) *Shard { return &r.slots[i] }

// NumShards reports the number of slots.
func (r *Registry) NumShards() int { return len(r.slots) }

// LeaderlessBounds exposes the histogram bucket upper bounds in seconds
// (exclusive of the implicit +Inf) for exposition writers.
func LeaderlessBounds() []float64 { return leaderlessBounds[:] }
