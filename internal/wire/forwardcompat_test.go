package wire

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// futureKind is a message kind from an imagined newer protocol version:
// well past every kind this build knows.
const futureKind = Kind(0x2a)

// appendFutureItem appends one length-prefixed inner message of an unknown
// kind (arbitrary body bytes) to a batch body under construction.
func appendFutureItem(b []byte, body []byte) []byte {
	var w writer
	w.b = b
	w.uvarint(uint64(1 + len(body)))
	w.u8(byte(futureKind))
	w.b = append(w.b, body...)
	return w.b
}

// TestBatchSkipsUnknownKinds is the forward-compatibility regression test:
// a batch from a future-versioned peer that mixes known messages with kinds
// this build has never heard of must yield the known messages and count the
// skipped ones — not fail the whole datagram.
func TestBatchSkipsUnknownKinds(t *testing.T) {
	known1 := &Alive{Group: "g", Sender: "w01", Incarnation: 1, Seq: 9}
	known2 := &Leave{Group: "g", Sender: "w02", Incarnation: 2}

	// Hand-build the envelope: known | future | known | future.
	var w writer
	w.kind(KindBatch)
	w.u8(BatchVersion)
	w.uvarint(4)
	w.uvarint(uint64(known1.WireSize()))
	w.b = MarshalAppend(w.b, known1)
	w.b = appendFutureItem(w.b, []byte{0xde, 0xad, 0xbe, 0xef})
	w.uvarint(uint64(known2.WireSize()))
	w.b = MarshalAppend(w.b, known2)
	w.b = appendFutureItem(w.b, nil)

	msgs, err := NewDecoder().DecodeAppend(nil, w.b)
	if err != nil {
		t.Fatalf("batch with unknown inner kinds failed to decode: %v", err)
	}
	want := []Message{known1, known2}
	if !reflect.DeepEqual(msgs, want) {
		t.Fatalf("decoded %+v, want the two known messages %+v", msgs, want)
	}

	// The hosts' decode agrees and surfaces the skip count.
	c := new(Carrier)
	unknown, err := c.Decode(new(Interner), w.b)
	if err != nil {
		t.Fatalf("carrier decode failed: %v", err)
	}
	if !reflect.DeepEqual(c.Msgs, want) {
		t.Fatalf("carrier yielded %+v, want %+v", c.Msgs, want)
	}
	if unknown != 2 {
		t.Fatalf("Decode counted %d unknown kinds, want 2", unknown)
	}
}

// TestBatchAllUnknownKinds: a batch holding only future kinds decodes to
// zero messages (and is not an error) — the canonical empty batch.
func TestBatchAllUnknownKinds(t *testing.T) {
	var w writer
	w.kind(KindBatch)
	w.u8(BatchVersion)
	w.uvarint(2)
	w.b = appendFutureItem(w.b, []byte{1, 2, 3})
	w.b = appendFutureItem(w.b, []byte{4})

	msgs, err := NewDecoder().DecodeAppend(nil, w.b)
	if err != nil {
		t.Fatalf("all-unknown batch failed: %v", err)
	}
	if len(msgs) != 0 {
		t.Fatalf("decoded %d messages from an all-unknown batch, want 0", len(msgs))
	}
	c := new(Carrier)
	if n, err := c.Decode(new(Interner), w.b); err != nil || n != 2 || len(c.Msgs) != 0 {
		t.Fatalf("carrier decode of all-unknown batch: %d messages, %d unknown (want 0 and 2), err %v", len(c.Msgs), n, err)
	}
}

// TestBareUnknownKindStillErrors: outside a batch there is no length
// prefix, so a bare unknown kind stays an ErrUnknownKind error (hosts count
// the dropped datagram separately).
func TestBareUnknownKindStillErrors(t *testing.T) {
	_, err := Unmarshal([]byte{byte(futureKind), 1, 'g', 1, 's'})
	if !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("bare unknown kind: err = %v, want ErrUnknownKind", err)
	}
}

// TestBatchTruncatedUnknownStillErrors: an unknown inner message whose
// length prefix overruns the datagram is corruption, not forward traffic.
func TestBatchTruncatedUnknownStillErrors(t *testing.T) {
	var w writer
	w.kind(KindBatch)
	w.u8(BatchVersion)
	w.uvarint(1)
	w.uvarint(100) // claims 100 bytes...
	w.u8(byte(futureKind))
	w.b = append(w.b, 1, 2, 3) // ...delivers 4
	if _, err := Unmarshal(w.b); err == nil {
		t.Fatal("truncated unknown inner message decoded without error")
	}
}

// TestPrePR8PeersSkipStandbyKinds is the regression test for the warm-
// standby wire kinds: a peer built before STANDBY/HANDOVER/SUCCESSOR_HINT
// existed must skip them inside a batch (counting them as unknown) while
// still decoding the heartbeats they ride with. A pre-PR decoder's skip
// path reads ONLY the inner length prefix — never the body — so patching
// each new kind byte to one this build does not know reproduces the old
// peer's behaviour exactly on today's decoder.
func TestPrePR8PeersSkipStandbyKinds(t *testing.T) {
	alive := &Alive{Group: "g", Sender: "w01", Incarnation: 1, Seq: 9, AccTime: 7}
	snap := &LeaderSnapshot{Group: "g", Sender: "w01", Incarnation: 1, Seq: 10, Tombstone: true}
	newKinds := []Message{
		&Standby{Group: "g", Sender: "w01", Incarnation: 1, Seq: 3, Standby: "w02", StandbyInc: 5},
		&Handover{Group: "g", Sender: "w01", Incarnation: 1, Successor: "w02",
			SuccessorInc: 5, GrantAcc: 6, At: 100},
		&SuccessorHint{Group: "g", Sender: "w01", Incarnation: 1, Seq: 11,
			Successor: "w02", SuccessorInc: 5, At: 100, Lease: int64(10e9)},
	}
	b := &Batch{Msgs: []Message{alive, newKinds[0], newKinds[1], newKinds[2], snap}}
	raw := Marshal(b)

	// Sanity: this build decodes all five.
	all, err := NewDecoder().DecodeAppend(nil, raw)
	if err != nil {
		t.Fatalf("full decode: %v", err)
	}
	if len(all) != 5 {
		t.Fatalf("full decode yielded %d messages, want 5", len(all))
	}

	// Walk the envelope item by item (uvarint length, then kind byte) and
	// patch each standby-plane kind byte to a kind NO build knows — those
	// are exactly the bytes a pre-PR skip path dispatches on.
	patched := append([]byte(nil), raw...)
	off := 2 // batch kind byte + version byte
	count, n := binary.Uvarint(patched[off:])
	if n <= 0 {
		t.Fatal("malformed batch count")
	}
	off += n
	swapped := 0
	for i := uint64(0); i < count; i++ {
		length, n := binary.Uvarint(patched[off:])
		if n <= 0 {
			t.Fatalf("malformed item length at offset %d", off)
		}
		off += n
		switch Kind(patched[off]) {
		case KindStandby, KindHandover, KindSuccessorHint:
			patched[off] = byte(futureKind)
			swapped++
		}
		off += int(length)
	}
	if swapped != 3 {
		t.Fatalf("patched %d inner kind bytes, want 3", swapped)
	}

	c := new(Carrier)
	unknown, err := c.Decode(new(Interner), patched)
	if err != nil {
		t.Fatalf("pre-PR-peer decode: %v", err)
	}
	want := []Message{alive, snap}
	if !reflect.DeepEqual(c.Msgs, want) {
		t.Fatalf("pre-PR peer decoded %+v, want just the heartbeat and snapshot %+v", c.Msgs, want)
	}
	if unknown != 3 {
		t.Fatalf("Decode counted %d unknown kinds, want 3 (the skipped standby-plane messages)", unknown)
	}
}

// TestPreDigestPeersSkipHelloDigest: a peer built before HELLO_DIGEST
// skips a digest riding between two heartbeats — exactly its bytes, counted
// once — and still decodes both heartbeats; a bare digest is an unknown
// kind to it (hosts count that datagram as UnknownDropped). The old
// peer's decoder is reproduced as in TestPrePR8PeersSkipStandbyKinds, by
// patching the kind byte to one no build knows.
func TestPreDigestPeersSkipHelloDigest(t *testing.T) {
	a1 := &Alive{Group: "g", Sender: "w01", Incarnation: 1, Seq: 9}
	a2 := &Alive{Group: "h", Sender: "w01", Incarnation: 1, Seq: 4}
	digest := &HelloDigest{Group: "g", Sender: "w01", Incarnation: 1, Digest: 0x60a20e6e49ba7941}
	raw := Marshal(&Batch{Msgs: []Message{a1, digest, a2}})

	// The digest's kind byte follows the envelope header, the first item
	// and the digest's own one-byte length prefix.
	at := 3 + ItemSize(a1) + 1
	if Kind(raw[at]) != KindHelloDigest {
		t.Fatalf("byte %d is %s, want HELLO_DIGEST", at, Kind(raw[at]))
	}
	patched := append([]byte(nil), raw...)
	patched[at] = byte(futureKind)

	c := new(Carrier)
	unknown, err := c.Decode(new(Interner), patched)
	if err != nil {
		t.Fatalf("pre-digest decode: %v", err)
	}
	if want := []Message{a1, a2}; !reflect.DeepEqual(c.Msgs, want) {
		t.Fatalf("pre-digest peer decoded %+v, want the two heartbeats %+v", c.Msgs, want)
	}
	if unknown != 1 {
		t.Fatalf("Decode counted %d unknown kinds, want 1", unknown)
	}

	bare := Marshal(digest)
	bare[0] = byte(futureKind)
	if _, err := Unmarshal(bare); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("bare digest on a pre-digest peer: err = %v, want ErrUnknownKind", err)
	}
}

// TestPreRunPeersSkipRuns is why runs wait for an announcement: a peer
// built before ALIVE_RUN skips a run record whole, every heartbeat in it
// with it — a lost beat per group, and false suspicions — and skips an
// announcement the same way, harmlessly. The old decoder is reproduced as
// above, by patching the kind bytes to one no build knows.
func TestPreRunPeersSkipRuns(t *testing.T) {
	a1 := &Alive{Group: "g", Sender: "w01", Incarnation: 1, Seq: 9}
	a2 := &Alive{Group: "h", Sender: "w01", Incarnation: 1, Seq: 4}
	digest := &HelloDigest{Group: "g", Sender: "w01", Incarnation: 1, Digest: 7}
	note := &AliveRun{Sender: "w01", Incarnation: 1}
	raw := Marshal(&Batch{Runs: true, Msgs: []Message{a1, a2, digest, note}})

	// The run is the first record, the announcement the last.
	run, last := 4, len(raw)-note.WireSize()
	if Kind(raw[run]) != KindAliveRun || Kind(raw[last]) != KindAliveRun {
		t.Fatalf("bytes %d and %d are %s and %s, want ALIVE_RUN", run, last, Kind(raw[run]), Kind(raw[last]))
	}
	patched := append([]byte(nil), raw...)
	patched[run], patched[last] = byte(futureKind), byte(futureKind)

	c := new(Carrier)
	unknown, err := c.Decode(new(Interner), patched)
	if err != nil {
		t.Fatalf("pre-run decode: %v", err)
	}
	if want := []Message{digest}; !reflect.DeepEqual(c.Msgs, want) {
		t.Fatalf("pre-run peer decoded %+v, want only the digest", c.Msgs)
	}
	if unknown != 2 {
		t.Fatalf("Decode counted %d unknown kinds, want 2", unknown)
	}
}

// TestStandbyPlaneKindStrings pins the wire names of the standby plane.
func TestStandbyPlaneKindStrings(t *testing.T) {
	names := map[Kind]string{
		KindStandby:       "STANDBY",
		KindHandover:      "HANDOVER",
		KindSuccessorHint: "SUCCESSOR_HINT",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestClientPlaneKindStrings pins the wire names of the client plane.
func TestClientPlaneKindStrings(t *testing.T) {
	names := map[Kind]string{
		KindSubscribe:      "SUBSCRIBE",
		KindUnsubscribe:    "UNSUBSCRIBE",
		KindLeaderSnapshot: "LEADER_SNAPSHOT",
		KindLeaseRenew:     "LEASE_RENEW",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestClientPlaneInBatch: client-plane messages ride the coalescing
// envelope like any protocol message — a multi-group snapshot fan-out to
// one client is one datagram.
func TestClientPlaneInBatch(t *testing.T) {
	b := &Batch{Msgs: []Message{
		&LeaderSnapshot{Group: "g1", Sender: "w01", Incarnation: 1, Seq: 4,
			Elected: true, Leader: "w02", LeaderIncarnation: 5, At: 100, Lease: int64(10e9)},
		&LeaderSnapshot{Group: "g2", Sender: "w01", Incarnation: 1, Seq: 7,
			Elected: false, At: 101, Lease: int64(10e9)},
		&Subscribe{Group: "g3", Sender: "c1", Incarnation: 2, TTL: int64(10e9)},
		&LeaseRenew{Group: "g4", Sender: "c1", Incarnation: 2, TTL: int64(10e9)},
		&Unsubscribe{Group: "g5", Sender: "c1", Incarnation: 2},
	}}
	raw := Marshal(b)
	if len(raw) != b.WireSize() {
		t.Fatalf("batch WireSize %d != marshaled %d", b.WireSize(), len(raw))
	}
	got, err := NewDecoder().DecodeAppend(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b.Msgs) {
		t.Fatalf("round trip mismatch:\n sent %+v\n got  %+v", b.Msgs, got)
	}
}
