package stableleader

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"

	"stableleader/internal/obs"
	"stableleader/internal/subs"
)

// ObsHandler returns the service's observability surface as an
// http.Handler, for the host to mount on a listener of its choosing
// (leaderd exposes it behind -metrics-addr):
//
//   - /metrics — Prometheus text exposition: every protocol counter,
//     the leaderless-window histogram, per-shard runtime gauges, the
//     packet plane and its syscall-batching ratios.
//   - /healthz — liveness: 200 while the service runs, 503 once closed.
//   - /readyz — readiness: 200 once every joined group has a converged
//     (elected) leader view; 503 while any group is still electing. A
//     service with no groups joined is vacuously ready.
//   - /debug/flight — the protocol flight recorder as JSON (DumpFlight).
//   - /debug/pprof/ — the standard runtime profiles.
//
// Scrapes serialise one read through each shard's event loop — the same
// path as any loop query — so they observe loop-quiescent state and add
// nothing to the protocol hot path.
func (s *Service) ObsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/flight", s.handleFlight)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DumpFlight writes the service's protocol flight recorder — the last N
// protocol decisions (suspicions, trust edges, rank changes, standby
// nominations, handovers, leader changes) of every shard — as one JSON
// document, records sorted by timestamp. Each shard's ring is copied
// out through its event loop; ctx bounds the wait like any loop query.
func (s *Service) DumpFlight(ctx context.Context, w io.Writer) error {
	var records []obs.Record
	for _, sh := range s.shards {
		sh := sh
		var part []obs.Record
		if err := sh.call(ctx, func() { part = sh.obs.FlightSnapshot(nil) }); err != nil {
			return err
		}
		records = append(records, part...)
	}
	return obs.WriteFlightJSON(w, s.self, records)
}

// shardGauges is one shard's point-in-time runtime depth readings,
// collected in the same loop-serialised closure as the counter snapshot.
type shardGauges struct {
	wheel   int // pending timer-wheel entries
	inbound int // steered datagram parts queued for the loop
}

// obsScrape is one full scrape: the merged counter/histogram snapshot
// plus per-shard gauges, the shared outbound scheduler's staging depth and
// the aggregated client-plane state.
type obsScrape struct {
	snap          obs.Snapshot
	perShard      []shardGauges
	stagedMsgs    int // messages staged in the outbound coalescer
	stagedDests   int // destinations with at least one staged message
	clientEnabled bool
	clients       int
	leases        int
}

// scrapeObs serialises one read through every shard loop and aggregates.
func (s *Service) scrapeObs(ctx context.Context) (obsScrape, error) {
	sc := obsScrape{perShard: make([]shardGauges, len(s.shards))}
	for i, sh := range s.shards {
		sh := sh
		var snap obs.Snapshot
		var g shardGauges
		var st subs.Stats
		var enabled bool
		if err := sh.call(ctx, func() {
			snap = sh.obs.Snapshot()
			g.wheel = sh.rt.wheel.Len()
			g.inbound = len(sh.inbound)
			st, enabled = sh.node.ClientStats()
		}); err != nil {
			return obsScrape{}, err
		}
		sc.snap.Merge(snap)
		sc.perShard[i] = g
		sc.clientEnabled = enabled
		sc.clients += st.Clients
		sc.leases += st.Leases
	}
	sc.stagedMsgs, sc.stagedDests = s.shared.Out.Staged()
	return sc, nil
}

// groupConvergence reports how many groups are joined and how many of
// them currently see an elected leader, from the wait-free read plane.
func (s *Service) groupConvergence() (joined, converged int) {
	s.mu.Lock()
	groups := make([]*Group, 0, len(s.groups))
	for _, g := range s.groups {
		groups = append(groups, g)
	}
	s.mu.Unlock()
	for _, g := range groups {
		joined++
		if lv := g.leader.Load(); lv != nil && lv.err == nil && lv.info.Elected {
			converged++
		}
	}
	return joined, converged
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sc, err := s.scrapeObs(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	ps := s.PacketStats()
	joined, converged := s.groupConvergence()

	var e obs.Exposition
	for c := obs.Counter(0); int(c) < obs.CounterCount; c++ {
		e.Counter(c.Name(), c.Help())
		e.Sample(c.Name(), float64(sc.snap.Get(c)))
	}
	e.Histogram("stableleader_leaderless_seconds",
		"Duration of leaderless windows: elected view lost to next view adopted.",
		obs.LeaderlessBounds(), sc.snap.Leaderless)

	e.Simple("stableleader_shards", "Event-loop shards this service runs.", "gauge", float64(len(s.shards)))
	e.Simple("stableleader_groups_joined", "Groups currently joined.", "gauge", float64(joined))
	e.Simple("stableleader_groups_converged", "Joined groups with an elected leader view.", "gauge", float64(converged))

	e.Gauge("stableleader_timer_wheel_entries", "Pending timer-wheel deadlines per shard.")
	for i, g := range sc.perShard {
		e.Sample("stableleader_timer_wheel_entries", float64(g.wheel), "shard", strconv.Itoa(i))
	}
	e.Gauge("stableleader_inbound_queue_depth", "Steered datagram parts queued per shard loop.")
	for i, g := range sc.perShard {
		e.Sample("stableleader_inbound_queue_depth", float64(g.inbound), "shard", strconv.Itoa(i))
	}
	e.Gauge("stableleader_outbound_staged_messages", "Messages staged in the outbound coalescer.")
	e.Sample("stableleader_outbound_staged_messages", float64(sc.stagedMsgs))
	e.Gauge("stableleader_outbound_staged_destinations", "Destinations with staged outbound messages.")
	e.Sample("stableleader_outbound_staged_destinations", float64(sc.stagedDests))

	clientEnabled := 0.0
	if sc.clientEnabled {
		clientEnabled = 1
	}
	e.Simple("stableleader_client_plane_enabled", "Whether the remote client plane is on (WithClientPlane).", "gauge", clientEnabled)
	e.Simple("stableleader_client_subscribers", "Distinct subscribed client processes (per-shard registries summed).", "gauge", float64(sc.clients))
	e.Simple("stableleader_client_leases", "Live (client, group) subscription leases.", "gauge", float64(sc.leases))

	// Packet plane: the shared atomic counters plus, on transports that
	// account kernel crossings, the syscall columns and derived
	// batching ratios.
	e.Simple("stableleader_datagrams_sent_total", "Datagrams handed to the transport.", "counter", float64(ps.DatagramsOut))
	e.Simple("stableleader_datagrams_received_total", "Datagrams delivered by the transport.", "counter", float64(ps.DatagramsIn))
	e.Simple("stableleader_messages_sent_total", "Protocol messages sent, batched or bare.", "counter", float64(ps.MessagesOut))
	e.Simple("stableleader_messages_received_total", "Protocol messages received, batched or bare.", "counter", float64(ps.MessagesIn))
	e.Simple("stableleader_batches_sent_total", "Sent datagrams carrying more than one message.", "counter", float64(ps.BatchesOut))
	e.Simple("stableleader_batches_received_total", "Received datagrams carrying more than one message.", "counter", float64(ps.BatchesIn))
	e.Simple("stableleader_coalesced_messages_total", "Sent messages that shared a datagram with another.", "counter", float64(ps.CoalescedOut))
	e.Simple("stableleader_bytes_sent_total", "Outbound wire bytes, UDP/IP headers included.", "counter", float64(ps.BytesOut))
	e.Simple("stableleader_bytes_received_total", "Inbound wire bytes, UDP/IP headers included.", "counter", float64(ps.BytesIn))
	e.Simple("stableleader_unknown_dropped_total", "Received messages dropped for unknown wire kind.", "counter", float64(ps.UnknownDropped))
	e.Simple("stableleader_recv_syscalls_total", "Receive kernel crossings (0 when the transport does not account them).", "counter", float64(ps.RecvSyscalls))
	e.Simple("stableleader_send_syscalls_total", "Send kernel crossings (0 when the transport does not account them).", "counter", float64(ps.SendSyscalls))
	e.Simple("stableleader_recv_packets_per_syscall", "Mean datagrams per receive syscall (recvmmsg batching factor).", "gauge", ps.RecvPacketsPerSyscall())
	e.Simple("stableleader_send_packets_per_syscall", "Mean datagrams per send syscall (sendmmsg/GSO batching factor).", "gauge", ps.SendPacketsPerSyscall())
	e.Simple("stableleader_packets_per_syscall", "Mean datagrams per kernel crossing, both directions.", "gauge", ps.PacketsPerSyscall())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = e.WriteTo(w)
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	select {
	case <-s.closing:
		http.Error(w, "closed", http.StatusServiceUnavailable)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}
}

func (s *Service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	select {
	case <-s.closing:
		http.Error(w, "closed", http.StatusServiceUnavailable)
		return
	default:
	}
	joined, converged := s.groupConvergence()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if converged < joined {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "electing: %d/%d groups converged\n", converged, joined)
		return
	}
	fmt.Fprintf(w, "ready: %d/%d groups converged\n", converged, joined)
}

func (s *Service) handleFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.DumpFlight(r.Context(), w); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	}
}
