// Command leaderd runs one real leader election service instance over UDP —
// the deployment shape of the paper's C daemon. Start one per machine (or
// per terminal, with distinct ports) and watch the group elect and maintain
// a stable leader; kill the leader's process and watch the re-election.
//
// Example, three terminals on one machine:
//
//	leaderd -id a -listen :7401 -peer b=127.0.0.1:7402 -peer c=127.0.0.1:7403 -group demo
//	leaderd -id b -listen :7402 -peer a=127.0.0.1:7401 -peer c=127.0.0.1:7403 -group demo
//	leaderd -id c -listen :7403 -peer a=127.0.0.1:7401 -peer b=127.0.0.1:7402 -group demo
//
// Flags control the election algorithm (-algorithm omega-l|omega-lc|omega-id),
// candidacy (-candidate=false for a passive observer), and the failure
// detection QoS (-tdu, -tmr, -pa). -events widens the log from leadership
// changes to the full event stream (membership, suspicion, QoS
// reconfiguration).
//
// -serve-clients turns on the remote client plane: non-member processes
// (see the client package and examples/clientquery) can subscribe to
// leadership snapshots under renewable leases. Client addresses are
// learned from their own traffic, so clients need no -peer entries.
//
// -metrics-addr exposes the observability plane on a TCP listener:
// Prometheus metrics on /metrics, liveness and readiness probes on
// /healthz and /readyz, the protocol flight recorder on /debug/flight,
// and pprof under /debug/pprof/. Independent of it, SIGUSR1 dumps the
// flight recorder to stderr, and -stats-every logs a one-line packet-
// plane summary (rates and packets-per-syscall ratios) periodically.
//
// On SIGINT or SIGTERM the daemon leaves its group gracefully. If it holds
// leadership, it first performs a planned handover: the continuously agreed
// warm standby (nominated in the heartbeat stream at zero extra packets) is
// granted the group-minimal rank in a HANDOVER that ships in the same
// datagram as the LEAVE, so peers elect the standby in one event instead of
// waiting out the failure detector, and subscribed clients receive final
// tombstone snapshots carrying a successor hint so they re-pin at once with
// no stale window — and then it shuts down.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	stableleader "stableleader"
	"stableleader/id"
	"stableleader/qos"
	"stableleader/transport"
)

// shutdownTimeout bounds the graceful departure on SIGINT/SIGTERM.
const shutdownTimeout = 5 * time.Second

// peerFlags collects repeated -peer id=host:port flags.
type peerFlags map[id.Process]string

func (p peerFlags) String() string { return fmt.Sprintf("%v", map[id.Process]string(p)) }

func (p peerFlags) Set(v string) error {
	name, addr, ok := strings.Cut(v, "=")
	if !ok || name == "" || addr == "" {
		return fmt.Errorf("want id=host:port, got %q", v)
	}
	p[id.Process(name)] = addr
	return nil
}

func main() {
	peers := peerFlags{}
	var (
		self      = flag.String("id", "", "this process's unique id (required)")
		listen    = flag.String("listen", ":7400", "UDP listen address")
		group     = flag.String("group", "demo", "group to join")
		algoName  = flag.String("algorithm", "omega-l", "election algorithm: omega-l, omega-lc, omega-id (or s3, s2, s1)")
		candidate = flag.Bool("candidate", true, "compete for leadership")
		serveCli  = flag.Bool("serve-clients", false, "answer remote leadership subscriptions (the client package)")
		events    = flag.Bool("events", false, "log the full event stream, not just leadership changes")
		tdu       = flag.Duration("tdu", time.Second, "QoS: crash detection time bound (TdU)")
		tmr       = flag.Duration("tmr", 100*24*time.Hour, "QoS: mistake recurrence lower bound (TmrL)")
		pa        = flag.Float64("pa", 0.99999988, "QoS: query accuracy lower bound (PaL)")
		shards    = flag.Int("shards", 0, "event-loop shards (0 = one per CPU); groups hash across them")
		receivers = flag.Int("udp-receivers", 1, "parallel UDP receive sockets (needs SO_REUSEPORT; falls back to 1)")
		metrics   = flag.String("metrics-addr", "", "TCP address for /metrics, /healthz, /readyz, /debug/flight and /debug/pprof (off when empty)")
		statsEach = flag.Duration("stats-every", 0, "log a one-line packet-plane stats summary at this period (off when 0)")
	)
	flag.StringVar(algoName, "algo", *algoName, "alias for -algorithm")
	flag.Var(peers, "peer", "peer address as id=host:port (repeatable)")
	flag.Parse()

	if *self == "" {
		fmt.Fprintln(os.Stderr, "leaderd: -id is required")
		flag.Usage()
		os.Exit(2)
	}
	algo, err := stableleader.ParseAlgorithm(*algoName)
	if err != nil {
		log.Fatalf("leaderd: %v", err)
	}

	tr, err := transport.NewUDP(*listen, peers, transport.WithReceivers(*receivers))
	if err != nil {
		log.Fatalf("leaderd: %v", err)
	}
	svcOpts := []stableleader.Option{}
	if *serveCli {
		svcOpts = append(svcOpts, stableleader.WithClientPlane())
	}
	if *shards > 0 {
		svcOpts = append(svcOpts, stableleader.WithShards(*shards))
	}
	svc, err := stableleader.New(id.Process(*self), tr, svcOpts...)
	if err != nil {
		log.Fatalf("leaderd: %v", err)
	}

	seeds := make([]id.Process, 0, len(peers))
	for p := range peers {
		seeds = append(seeds, p)
	}
	// ctx ends on SIGINT/SIGTERM; everything blocking hangs off it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatalf("leaderd: metrics listener: %v", err)
		}
		defer ln.Close()
		log.Printf("leaderd: observability on http://%s (/metrics /healthz /readyz /debug/flight /debug/pprof)", ln.Addr())
		go func() {
			// Serve until the listener closes at exit; the error then is
			// the expected "use of closed network connection".
			_ = http.Serve(ln, svc.ObsHandler())
		}()
	}

	// SIGUSR1 dumps the protocol flight recorder to stderr — the last N
	// protocol decisions per shard, for post-hoc election forensics
	// without the HTTP plane.
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	go func() {
		for range usr1 {
			dumpCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
			if err := svc.DumpFlight(dumpCtx, os.Stderr); err != nil {
				log.Printf("leaderd: flight dump: %v", err)
			}
			cancel()
		}
	}()

	if *statsEach > 0 {
		go func() {
			prev := svc.PacketStats()
			tick := time.NewTicker(*statsEach)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				cur := svc.PacketStats()
				d := cur.Delta(prev)
				prev = cur
				r := d.RatesOver(*statsEach)
				log.Printf("stats: out %.0f dgram/s %.0f msg/s %.0f B/s | in %.0f dgram/s %.0f msg/s %.0f B/s | pkts/syscall recv=%.2f send=%.2f",
					r.DatagramsOutPerSec, r.MessagesOutPerSec, r.BytesOutPerSec,
					r.DatagramsInPerSec, r.MessagesInPerSec, r.BytesInPerSec,
					d.RecvPacketsPerSyscall(), d.SendPacketsPerSyscall())
			}
		}()
	}

	joinOpts := []stableleader.JoinOption{
		stableleader.WithAlgorithm(algo),
		stableleader.WithQoS(qos.Spec{
			DetectionTime:     *tdu,
			MistakeRecurrence: *tmr,
			QueryAccuracy:     *pa,
		}),
		stableleader.WithSeeds(seeds...),
	}
	if *candidate {
		joinOpts = append(joinOpts, stableleader.AsCandidate())
	}
	grp, err := svc.Join(ctx, id.Group(*group), joinOpts...)
	if err != nil {
		log.Fatalf("leaderd: join: %v", err)
	}

	log.Printf("leaderd: %s joined group %q on %s (algorithm=%s candidate=%v peers=%d serve-clients=%v shards=%d receivers=%d batch-io=%v)",
		*self, *group, tr.LocalAddr(), algo, *candidate, len(peers), *serveCli, svc.Shards(), tr.Receivers(), tr.BatchIO())

	watchOpts := []stableleader.WatchOption{stableleader.WithInitialState()}
	if !*events {
		watchOpts = append(watchOpts,
			stableleader.WithEventFilter(stableleader.KindLeaderChanged))
	}
	for ev := range grp.Watch(ctx, watchOpts...) {
		switch e := ev.(type) {
		case stableleader.LeaderChanged:
			if e.Info.Elected {
				mark := ""
				if e.Info.Leader == id.Process(*self) {
					mark = "  (that's me)"
				}
				log.Printf("leader of %q is now %s%s", e.Info.Group, e.Info.Leader, mark)
			} else {
				log.Printf("group %q has no leader (election in progress)", e.Info.Group)
			}
		case stableleader.MemberJoined:
			log.Printf("member %s joined %q (candidate=%v)", e.Member, e.Group, e.Candidate)
		case stableleader.MemberLeft:
			log.Printf("member %s left %q", e.Member, e.Group)
		case stableleader.MemberSuspected:
			log.Printf("member %s of %q suspected", e.Member, e.Group)
		case stableleader.MemberTrusted:
			log.Printf("member %s of %q trusted", e.Member, e.Group)
		case stableleader.QoSReconfigured:
			log.Printf("link from %s reconfigured: η=%v δ=%v", e.Member, e.Interval, e.Timeout)
		case stableleader.StandbyChanged:
			if e.Standby == "" {
				log.Printf("group %q has no warm standby", e.Group)
			} else {
				log.Printf("warm standby of %q is now %s (planned handovers land here)", e.Group, e.Standby)
			}
		}
	}

	// The stream closed: the signal context was cancelled. Restore the
	// default signal disposition first so a second SIGINT/SIGTERM
	// force-quits instead of being swallowed, then leave the group
	// gracefully so peers re-elect immediately, bounded by a fresh
	// timeout (the signal context is already dead).
	stop()
	log.Printf("leaderd: leaving group and shutting down")
	closeCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := svc.Close(closeCtx); err != nil {
		log.Printf("leaderd: close: %v", err)
	}
}
