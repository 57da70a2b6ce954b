package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestCounterRegistry(t *testing.T) {
	r := NewRegistry(2, FlightDepthDefault)
	r.Shard(0).Inc(CElectionsWon)
	r.Shard(0).Add(CHeartbeats, 5)
	r.Shard(1).Inc(CElectionsWon)
	r.Shard(1).Inc(CSuspicions)

	var total Snapshot
	for i := 0; i < r.NumShards(); i++ {
		total.Merge(r.Shard(i).Snapshot())
	}
	if got := total.Get(CElectionsWon); got != 2 {
		t.Errorf("CElectionsWon = %d, want 2", got)
	}
	if got := total.Get(CHeartbeats); got != 5 {
		t.Errorf("CHeartbeats = %d, want 5", got)
	}
	if got := total.Get(CSuspicions); got != 1 {
		t.Errorf("CSuspicions = %d, want 1", got)
	}
	if got := total.Get(CDemotions); got != 0 {
		t.Errorf("CDemotions = %d, want 0", got)
	}
}

func TestNilShardIsSafe(t *testing.T) {
	var s *Shard
	s.Inc(CElectionsWon)
	s.Add(CHeartbeats, 3)
	s.ObserveLeaderless(time.Second)
	s.Record(KindSuspect, "g", "p", 1, 0, time.Now())
	if snap := s.Snapshot(); snap.Get(CElectionsWon) != 0 {
		t.Error("nil shard snapshot not zero")
	}
	if recs := s.FlightSnapshot(nil); len(recs) != 0 {
		t.Errorf("nil shard flight snapshot = %d records", len(recs))
	}
}

func TestCounterDefsComplete(t *testing.T) {
	seen := map[string]Counter{}
	for c := Counter(0); int(c) < CounterCount; c++ {
		name, help := c.Name(), c.Help()
		if name == "" || help == "" {
			t.Errorf("counter %d has empty name or help", c)
			continue
		}
		if !strings.HasPrefix(name, "stableleader_") || !strings.HasSuffix(name, "_total") {
			t.Errorf("counter %d name %q breaks the naming convention", c, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("counters %d and %d share name %q", prev, c, name)
		}
		seen[name] = c
	}
}

func TestHistogramBuckets(t *testing.T) {
	var s Shard
	s.ObserveLeaderless(0)                      // first bucket (≤ 1ms)
	s.ObserveLeaderless(500 * time.Microsecond) // first bucket
	s.ObserveLeaderless(100 * time.Millisecond) // ≤ 0.256
	s.ObserveLeaderless(time.Hour)              // +Inf bucket

	h := s.Snapshot().Leaderless
	if h.N != 4 {
		t.Fatalf("N = %d, want 4", h.N)
	}
	if h.Counts[0] != 2 {
		t.Errorf("bucket[0] = %d, want 2", h.Counts[0])
	}
	bounds := LeaderlessBounds()
	idx256 := -1
	for i, b := range bounds {
		if b == 0.256 {
			idx256 = i
		}
	}
	if idx256 < 0 || h.Counts[idx256] != 1 {
		t.Errorf("0.256 bucket = %v (idx %d), want 1", h.Counts, idx256)
	}
	if h.Counts[len(bounds)] != 1 {
		t.Errorf("+Inf bucket = %d, want 1", h.Counts[len(bounds)])
	}
	wantSum := uint64(500*time.Microsecond + 100*time.Millisecond + time.Hour)
	if h.SumNS != wantSum {
		t.Errorf("SumNS = %d, want %d", h.SumNS, wantSum)
	}
}

func TestFlightRingWraps(t *testing.T) {
	r := NewRegistry(1, 4)
	s := r.Shard(0)
	base := time.Date(2008, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 7; i++ {
		s.Record(KindLeaderChange, "g", "p", int64(i), 0, base.Add(time.Duration(i)*time.Second))
	}
	recs := s.FlightSnapshot(nil)
	if len(recs) != 4 {
		t.Fatalf("retained %d records, want 4 (ring depth)", len(recs))
	}
	for i, rec := range recs {
		if want := int64(3 + i); rec.Inc != want {
			t.Errorf("record %d Inc = %d, want %d (oldest-first, newest retained)", i, rec.Inc, want)
		}
	}
}

func TestFlightKindStrings(t *testing.T) {
	kinds := []Kind{KindSuspect, KindTrust, KindRankChange, KindStandby, KindHandover, KindLeaderChange}
	want := []string{"suspect", "trust", "rank-change", "standby", "handover", "leader-change"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want[i])
		}
	}
	if Kind(0).String() != "unknown" {
		t.Errorf("zero kind = %q, want unknown", Kind(0).String())
	}
}

func TestWriteFlightJSON(t *testing.T) {
	base := time.Date(2008, 3, 1, 0, 0, 0, 0, time.UTC)
	// Deliberately out of order: the writer sorts by timestamp.
	records := []Record{
		{At: base.Add(2 * time.Second), Kind: KindLeaderChange, Group: "g", Subject: "b", Inc: 7},
		{At: base, Kind: KindSuspect, Group: "g", Subject: "a", Inc: 3},
		{At: base.Add(time.Second), Kind: KindRankChange, Group: "g", Subject: "a", Inc: 3, Detail: 1},
	}
	var buf bytes.Buffer
	if err := WriteFlightJSON(&buf, "node-1", records); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Node    string `json:"node"`
		Records []struct {
			At      string `json:"at"`
			Kind    string `json:"kind"`
			Group   string `json:"group"`
			Subject string `json:"subject"`
			Inc     int64  `json:"inc"`
			Detail  int64  `json:"detail"`
		} `json:"records"`
	}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if env.Node != "node-1" || len(env.Records) != 3 {
		t.Fatalf("envelope = %+v", env)
	}
	wantKinds := []string{"suspect", "rank-change", "leader-change"}
	for i, r := range env.Records {
		if r.Kind != wantKinds[i] {
			t.Errorf("record %d kind = %q, want %q (time-sorted)", i, r.Kind, wantKinds[i])
		}
	}
}

func TestExpositionCounterAndGauge(t *testing.T) {
	var e Exposition
	e.Counter("x_total", "Help text.")
	e.Sample("x_total", 42)
	e.Gauge("y", "A gauge.")
	e.Sample("y", 1.5, "shard", "0")
	out := string(e.Bytes())
	for _, want := range []string{
		"# HELP x_total Help text.\n",
		"# TYPE x_total counter\n",
		"x_total 42\n",
		"# TYPE y gauge\n",
		`y{shard="0"} 1.5` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionHistogram(t *testing.T) {
	var s Shard
	s.ObserveLeaderless(2 * time.Millisecond)
	s.ObserveLeaderless(10 * time.Second)
	var e Exposition
	e.Histogram("ll_seconds", "h", LeaderlessBounds(), s.Snapshot().Leaderless)
	out := string(e.Bytes())
	for _, want := range []string{
		"# TYPE ll_seconds histogram\n",
		`ll_seconds_bucket{le="0.001"} 0` + "\n",
		`ll_seconds_bucket{le="0.004"} 1` + "\n",
		`ll_seconds_bucket{le="65.536"} 2` + "\n",
		`ll_seconds_bucket{le="+Inf"} 2` + "\n",
		"ll_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets must be monotone; _sum is seconds.
	if !strings.Contains(out, "ll_seconds_sum 10.002\n") {
		t.Errorf("unexpected _sum:\n%s", out)
	}
}

func TestExpositionEscaping(t *testing.T) {
	var e Exposition
	e.Gauge("z", "line\nbreak and back\\slash")
	e.Sample("z", 1, "l", "va\"l\nue\\x")
	out := string(e.Bytes())
	if !strings.Contains(out, `line\nbreak and back\\slash`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `z{l="va\"l\nue\\x"} 1`) {
		t.Errorf("label not escaped:\n%s", out)
	}
}

func TestExpositionFloatRendering(t *testing.T) {
	var e Exposition
	e.Gauge("f", "f")
	e.Sample("f", 3)
	e.Sample("f", 0.125, "k", "frac")
	out := string(e.Bytes())
	if !strings.Contains(out, "f 3\n") {
		t.Errorf("integral value rendered oddly:\n%s", out)
	}
	if !strings.Contains(out, `f{k="frac"} 0.125`+"\n") {
		t.Errorf("fractional value rendered oddly:\n%s", out)
	}
}
