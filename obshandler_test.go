package stableleader_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	stableleader "stableleader"
	"stableleader/id"
	"stableleader/transport"
)

// probe issues one request against the observability handler.
func probe(h http.Handler, path string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

// pollStatus polls path until it answers with code, failing at the
// deadline.
func pollStatus(t *testing.T, h http.Handler, path string, code int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if got, _ := probe(h, path); got == code {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	got, body := probe(h, path)
	t.Fatalf("%s = %d (%q), want %d within %v", path, got, strings.TrimSpace(body), code, timeout)
}

// metricValue extracts the value of an unlabelled sample from a text
// exposition body; -1 when the series is absent.
func metricValue(body, name string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

// checkExpositionFormat validates every sample line of a text exposition
// body: metric name (optionally labelled) followed by a float value.
func checkExpositionFormat(t *testing.T, body string) {
	t.Helper()
	if !strings.HasSuffix(body, "\n") {
		t.Error("exposition does not end in a newline")
	}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("sample line without value: %q", line)
			continue
		}
		name, value := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil && value != "+Inf" && value != "NaN" {
			t.Errorf("unparseable sample value in %q: %v", line, err)
		}
		base := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("malformed labels in %q", line)
			}
			base = name[:i]
		}
		for _, r := range base {
			if !(r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
				t.Errorf("invalid metric name %q", base)
				break
			}
		}
	}
}

// flightRecord mirrors the dump shape for decoding.
type flightRecord struct {
	At      string `json:"at"`
	Kind    string `json:"kind"`
	Group   string `json:"group"`
	Subject string `json:"subject"`
}

func TestObservabilityPlaneEndToEnd(t *testing.T) {
	hub := transport.NewInproc(nil)
	names := []id.Process{"a", "b"}
	svcs := startServices(t, hub, names...)
	defer func() {
		for _, svc := range svcs {
			_ = svc.Crash()
		}
	}()

	handlers := map[id.Process]http.Handler{}
	for name, svc := range svcs {
		handlers[name] = svc.ObsHandler()
	}

	// Liveness is immediate; with no groups joined, readiness is vacuous.
	for _, name := range names {
		if code, _ := probe(handlers[name], "/healthz"); code != http.StatusOK {
			t.Fatalf("healthz on %s = %d, want 200", name, code)
		}
		if code, body := probe(handlers[name], "/readyz"); code != http.StatusOK {
			t.Fatalf("readyz with no groups on %s = %d (%q), want 200", name, code, body)
		}
	}

	const g = id.Group("obs-e2e")
	groups := joinAll(t, svcs, g, names)
	leader := waitAgreement(t, groups, 5*time.Second)

	// Converged: every handler reports ready.
	for _, name := range names {
		pollStatus(t, handlers[name], "/readyz", http.StatusOK, 5*time.Second)
	}

	// Readiness flips with convergence: an observer joining a group with
	// no candidates yet is deterministically unready, and flips to ready
	// the moment candidates join and its view converges. (A two-node
	// crash re-election switches the survivor's view leader-to-leader in
	// one event, so it cannot demonstrate the unready state.)
	csvc, err := stableleader.New("c", hub.Endpoint("c"), stableleader.WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	svcs["c"] = csvc
	ch := csvc.ObsHandler()
	const g2 = id.Group("obs-flip")
	if _, err := csvc.Join(context.Background(), g2,
		stableleader.WithQoS(fastQoS()), stableleader.WithSeeds(names...)); err != nil {
		t.Fatal(err)
	}
	if code, body := probe(ch, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz on observer of candidate-less group = %d (%q), want 503", code, body)
	}
	ab := map[id.Process]*stableleader.Service{names[0]: svcs[names[0]], names[1]: svcs[names[1]]}
	joinAll(t, ab, g2, append([]id.Process{"c"}, names...))
	pollStatus(t, ch, "/readyz", http.StatusOK, 5*time.Second)

	// Kill the leader; the survivor re-elects and stays ready.
	survivor := names[0]
	if survivor == leader {
		survivor = names[1]
	}
	if err := svcs[leader].Crash(); err != nil {
		t.Fatal(err)
	}
	delete(svcs, leader)
	delete(groups, leader)
	sh := handlers[survivor]
	if waitAgreement(t, groups, 5*time.Second) != survivor {
		t.Fatal("survivor did not take leadership")
	}
	pollStatus(t, sh, "/readyz", http.StatusOK, 5*time.Second)

	// The metrics exposition must be valid text format and carry every
	// subsystem's series.
	code, body := probe(sh, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	checkExpositionFormat(t, body)
	for _, family := range []string{
		// Election plane.
		"stableleader_elections_started_total",
		"stableleader_elections_won_total",
		"stableleader_leader_changes_total",
		"stableleader_leaderless_seconds_bucket",
		// Failure detection plane.
		"stableleader_fd_heartbeats_total",
		"stableleader_fd_suspicions_total",
		"stableleader_accusations_sent_total",
		// Standby/handover plane.
		"stableleader_standby_nominations_total",
		"stableleader_handovers_sent_total",
		// Client plane.
		"stableleader_client_subscribes_total",
		"stableleader_client_leases",
		// Packet plane and syscall ratios.
		"stableleader_datagrams_sent_total",
		"stableleader_messages_received_total",
		"stableleader_recv_syscalls_total",
		"stableleader_recv_packets_per_syscall",
		"stableleader_send_packets_per_syscall",
		// Event-loop plane: what the at-rest cost is charged per.
		"stableleader_loop_wakeups_total",
		"stableleader_timer_driver_fires_total",
		// Runtime gauges.
		"stableleader_timer_wheel_entries",
		"stableleader_groups_joined",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("metrics missing %s", family)
		}
	}
	if v := metricValue(body, "stableleader_elections_won_total"); v < 1 {
		t.Errorf("elections_won = %v, want >= 1 (survivor won the re-election)", v)
	}
	if v := metricValue(body, "stableleader_fd_suspicions_total"); v < 1 {
		t.Errorf("fd_suspicions = %v, want >= 1 (crashed leader was suspected)", v)
	}
	if v := metricValue(body, "stableleader_leader_changes_total"); v < 1 {
		t.Errorf("leader_changes = %v, want >= 1", v)
	}
	if v := metricValue(body, "stableleader_fd_heartbeats_total"); v < 1 {
		t.Errorf("fd_heartbeats = %v, want >= 1", v)
	}
	// Every timer-driver fire is served by one loop wake-up, and inbound
	// datagrams wake the loop too.
	fires := metricValue(body, "stableleader_timer_driver_fires_total")
	if wakeups := metricValue(body, "stableleader_loop_wakeups_total"); fires < 1 || wakeups <= fires {
		t.Errorf("loop wake-ups = %v, timer fires = %v; want 1 <= fires < wake-ups", wakeups, fires)
	}
	if v := metricValue(body, "stableleader_groups_joined"); v != 2 {
		t.Errorf("groups_joined = %v, want 2 (obs-e2e and obs-flip)", v)
	}
	// The inproc transport accounts no syscalls, so the ratio reads 0.
	if v := metricValue(body, "stableleader_recv_packets_per_syscall"); v != 0 {
		t.Errorf("recv packets/syscall = %v, want 0 on inproc", v)
	}

	// The flight recorder must hold the crash-driven re-election as the
	// suspect → rank-change → leader-change sequence.
	var buf bytes.Buffer
	if err := svcs[survivor].DumpFlight(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Node    string         `json:"node"`
		Records []flightRecord `json:"records"`
	}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v", err)
	}
	if env.Node != string(survivor) {
		t.Errorf("flight node = %q, want %q", env.Node, survivor)
	}
	suspect := -1
	rankChange := -1
	leaderChange := -1
	for i, r := range env.Records {
		if r.Group != string(g) {
			continue
		}
		switch {
		case suspect < 0 && r.Kind == "suspect" && r.Subject == string(leader):
			suspect = i
		case suspect >= 0 && rankChange < 0 && r.Kind == "rank-change":
			rankChange = i
		case rankChange >= 0 && leaderChange < 0 && r.Kind == "leader-change" && r.Subject == string(survivor):
			leaderChange = i
		}
	}
	if suspect < 0 || rankChange < 0 || leaderChange < 0 {
		t.Fatalf("flight dump missing suspect(%d) -> rank-change(%d) -> leader-change(%d) sequence:\n%s",
			suspect, rankChange, leaderChange, buf.String())
	}

	// The HTTP flight endpoint serves the same dump.
	code, fbody := probe(sh, "/debug/flight")
	if code != http.StatusOK || !strings.Contains(fbody, `"records"`) {
		t.Errorf("/debug/flight = %d, body %q...", code, fbody[:min(len(fbody), 80)])
	}

	// A closed service reports unhealthy and unready.
	if err := svcs[survivor].Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	delete(svcs, survivor)
	if code, _ := probe(sh, "/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz after close = %d, want 503", code)
	}
	if code, _ := probe(sh, "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz after close = %d, want 503", code)
	}
}
