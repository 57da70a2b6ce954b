package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzUnmarshal guards the decoder against hostile datagrams: whatever
// arrives on the UDP socket, Unmarshal must either return an error or a
// message that re-encodes consistently — and never panic or over-allocate.
// Run with `go test -fuzz=FuzzUnmarshal ./internal/wire` for a real fuzzing
// session; the seed corpus below runs as part of the normal test suite.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(Marshal(m))
	}
	// Batch envelopes: a full multi-kind batch, a two-heartbeat batch, and
	// corrupt headers (truncated count, nested batch, lying length prefix).
	full := Marshal(sampleBatch())
	f.Add(full)
	f.Add(Marshal(&Batch{Msgs: []Message{
		&Alive{Group: "g1", Sender: "s", Incarnation: 1, Seq: 9},
		&Alive{Group: "g2", Sender: "s", Incarnation: 1, Seq: 9},
	}}))
	f.Add(full[:len(full)-2])
	// Client-plane traffic: a snapshot fan-out batch, and envelopes mixing
	// known messages with future kinds (skipped, not errors).
	f.Add(Marshal(&Batch{Msgs: []Message{
		&LeaderSnapshot{Group: "g1", Sender: "w01", Incarnation: 1, Seq: 4,
			Elected: true, Leader: "w02", LeaderIncarnation: 5, At: 100, Lease: int64(10e9)},
		&Subscribe{Group: "g2", Sender: "c1", Incarnation: 2, TTL: int64(10e9)},
		&LeaseRenew{Group: "g3", Sender: "c1", Incarnation: 2, TTL: int64(10e9)},
		&Unsubscribe{Group: "g4", Sender: "c1", Incarnation: 2},
	}}))
	// Warm-standby plane: a heartbeat batch carrying the piggybacked
	// STANDBY nomination, a planned-handover batch, and the client-plane
	// hint-before-tombstone goodbye pair.
	f.Add(Marshal(&Batch{Msgs: []Message{
		&Alive{Group: "g", Sender: "w01", Incarnation: 1, Seq: 12, AccTime: 7},
		&Standby{Group: "g", Sender: "w01", Incarnation: 1, Seq: 3, Standby: "w02", StandbyInc: 5},
	}}))
	f.Add(Marshal(&Handover{Group: "g", Sender: "w01", Incarnation: 1,
		Successor: "w02", SuccessorInc: 5, GrantAcc: 6, At: 100}))
	f.Add(Marshal(&Batch{Msgs: []Message{
		&SuccessorHint{Group: "g", Sender: "w01", Incarnation: 1, Seq: 8,
			Successor: "w02", SuccessorInc: 5, At: 100, Lease: int64(10e9)},
		&LeaderSnapshot{Group: "g", Sender: "w01", Incarnation: 1, Seq: 9, Tombstone: true},
	}}))
	// Digest gossip: the round's digest riding a heartbeat batch.
	f.Add(Marshal(&Batch{Msgs: []Message{
		&Alive{Group: "g", Sender: "w01", Incarnation: 1, Seq: 13},
		&HelloDigest{Group: "g", Sender: "w01", Incarnation: 1, Digest: 0x60a20e6e49ba7941},
	}}))
	// Heartbeat runs: a run with an announcement, an announcement riding
	// a classic ALIVE, the most entries a payload can hold (all-zero
	// minimal entries), a truncated entry, a count the payload cannot
	// hold, and a run next to a future kind.
	hb := heartbeats(3)
	hb.Msgs = append(hb.Msgs, &AliveRun{Sender: "w07", Incarnation: 1})
	runs := Marshal(hb)
	f.Add(runs)
	f.Add(Marshal(&Batch{Runs: true, Msgs: []Message{
		&Alive{Group: "g", Sender: "w01", Incarnation: 1, Seq: 13},
		&AliveRun{Sender: "w01", Incarnation: 1},
	}}))
	const maxEntries = 36
	var rec writer
	rec.kind(KindAliveRun)
	rec.str("")
	rec.str("w01")
	rec.i64(1)
	rec.i64(0)
	rec.uvarint(maxEntries)
	rec.b = append(rec.b, make([]byte, maxEntries*minRunEntry)...)
	maxRun := binary.AppendUvarint([]byte{byte(KindBatch), BatchVersion, 1}, uint64(len(rec.b)))
	f.Add(append(maxRun, rec.b...))
	f.Add(runs[:len(runs)-7])
	over := bytes.Clone(Marshal(heartbeats(2)))
	over[26] = 0x7f // the run's count
	f.Add(over)
	next := Marshal(heartbeats(2))
	next[2]++
	f.Add(appendFutureItem(next, []byte{0xbe, 0xef}))
	f.Add(appendFutureItem(appendFutureItem([]byte{byte(KindBatch), BatchVersion, 2},
		[]byte{0xde, 0xad}), nil))
	f.Add([]byte{byte(KindBatch), BatchVersion, 1, 3, byte(futureKind), 0xff})
	f.Add([]byte{byte(KindBatch)})
	f.Add([]byte{byte(KindBatch), BatchVersion})
	f.Add([]byte{byte(KindBatch), BatchVersion, 0xff, 0xff, 0x7f})
	f.Add([]byte{byte(KindBatch), BatchVersion, 2, 1, byte(KindBatch), 1, 0})
	f.Add([]byte{byte(KindBatch), BatchVersion, 1, 40, byte(KindLeave), 1, 'g', 1, 's'})
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add([]byte{byte(KindHello), 0x01, 'g', 0x01, 's', 0, 0, 0, 0, 0, 0, 0, 0, 0xff})
	dec := NewDecoder()
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		// The pooled Decoder must agree with the allocating path bit for
		// bit: same error-or-success, same decoded value.
		dm, derr := dec.Unmarshal(data)
		if (err == nil) != (derr == nil) {
			t.Fatalf("decoder disagreement: Unmarshal err=%v, Decoder err=%v", err, derr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(m, dm) {
			t.Fatalf("decoder mismatch:\n plain  %+v\n pooled %+v", m, dm)
		}
		dec.Release(dm)
		// A successfully decoded message must round-trip through the codec.
		b := Marshal(m)
		if len(b) != m.WireSize() {
			t.Fatalf("WireSize %d != marshaled length %d for %+v", m.WireSize(), len(b), m)
		}
		m2, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m2.Kind() != m.Kind() || m2.From() != m.From() || m2.GroupID() != m.GroupID() {
			t.Fatalf("round trip changed identity: %+v vs %+v", m, m2)
		}
		if bt, ok := m.(*Batch); ok {
			// Batch identity goes deeper than the header: the re-decoded
			// envelope must carry the same messages.
			if !reflect.DeepEqual(bt, m2) {
				t.Fatalf("batch round trip changed contents: %+v vs %+v", bt, m2)
			}
		}
	})
}
