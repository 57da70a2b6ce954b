package obs

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"stableleader/id"
)

// FlightDepthDefault is the Service's per-shard flight-recorder depth
// (tests build smaller rings): enough to hold several full elections'
// worth of decisions per shard while costing ~64 KiB per shard.
const FlightDepthDefault = 1024

// Kind classifies one flight record: which protocol decision it
// captures.
type Kind uint8

// The record kinds. A crash-driven re-election leaves the sequence
// suspect → rank-change → leader-change in the survivor's ring; a
// planned departure leaves standby → handover → leader-change.
const (
	KindSuspect      Kind = iota + 1 // FD suspected Subject
	KindTrust                        // FD restored trust in Subject
	KindRankChange                   // accusation sent to Subject (Detail = phase), or own drop-out
	KindStandby                      // standby view changed to Subject
	KindHandover                     // handover involving successor Subject (Detail: 0 received, 1 granted)
	KindLeaderChange                 // leader view adopted: Subject leads (empty = leaderless)
)

// String returns the kind's dump name.
func (k Kind) String() string {
	switch k {
	case KindSuspect:
		return "suspect"
	case KindTrust:
		return "trust"
	case KindRankChange:
		return "rank-change"
	case KindStandby:
		return "standby"
	case KindHandover:
		return "handover"
	case KindLeaderChange:
		return "leader-change"
	default:
		return "unknown"
	}
}

// Record is one binary protocol decision. The struct is fixed-size
// (string fields copy only their headers), so a ring append is a plain
// slot store with zero allocation.
type Record struct {
	// At is the decision instant from the owning loop's clock. Stamped
	// with time.Now()-derived values, it carries the monotonic reading,
	// so in-process record ordering survives wall-clock steps.
	At      time.Time
	Kind    Kind
	Group   id.Group
	Subject id.Process
	// Inc is the subject's incarnation where known (0 otherwise).
	Inc int64
	// Detail is kind-specific: the accusation phase for rank changes,
	// granted/received for handovers.
	Detail int64
}

// Ring is one shard's flight recorder: a fixed-size overwrite ring of
// Records, appended by the owning loop with plain stores.
type Ring struct {
	buf []Record //leadervet:loopOwned
	n   uint64   //leadervet:loopOwned — total appends ever; buf[n%len] is the next slot
}

// init sizes the ring; called once at registry construction.
//
//leadervet:init
func (r *Ring) init(depth int) {
	r.buf = make([]Record, depth)
}

// Record appends one decision to the shard's flight ring.
//
//leadervet:onLoop
func (s *Shard) Record(k Kind, g id.Group, subject id.Process, inc, detail int64, at time.Time) {
	if s == nil || len(s.flight.buf) == 0 {
		return
	}
	r := &s.flight
	r.buf[r.n%uint64(len(r.buf))] = Record{
		At: at, Kind: k, Group: g, Subject: subject, Inc: inc, Detail: detail,
	}
	r.n++
}

// FlightSnapshot appends the ring's retained records, oldest first,
// to dst and returns it. Runs on the owning loop like Snapshot; the
// host copies per shard and merges off-loop.
//
//leadervet:onLoop
func (s *Shard) FlightSnapshot(dst []Record) []Record {
	if s == nil {
		return dst
	}
	r := &s.flight
	depth := uint64(len(r.buf))
	if depth == 0 || r.n == 0 {
		return dst
	}
	start := uint64(0)
	if r.n > depth {
		start = r.n - depth
	}
	for i := start; i < r.n; i++ {
		dst = append(dst, r.buf[i%depth])
	}
	return dst
}

// flightDump is the JSON shape of one dumped record.
type flightDump struct {
	At      string `json:"at"`
	Kind    string `json:"kind"`
	Group   string `json:"group"`
	Subject string `json:"subject,omitempty"`
	Inc     int64  `json:"inc,omitempty"`
	Detail  int64  `json:"detail,omitempty"`
}

// flightEnvelope is the JSON shape of a whole dump.
type flightEnvelope struct {
	Node    string       `json:"node"`
	Records []flightDump `json:"records"`
}

// WriteFlightJSON merges per-shard record snapshots by time and writes
// the dump as JSON. Runs off-loop on copies; allocation here is fine.
func WriteFlightJSON(w io.Writer, node id.Process, records []Record) error {
	sort.SliceStable(records, func(i, j int) bool { return records[i].At.Before(records[j].At) })
	env := flightEnvelope{Node: string(node), Records: make([]flightDump, len(records))}
	for i, r := range records {
		env.Records[i] = flightDump{
			At:      r.At.Format(time.RFC3339Nano),
			Kind:    r.Kind.String(),
			Group:   string(r.Group),
			Subject: string(r.Subject),
			Inc:     r.Inc,
			Detail:  r.Detail,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}
