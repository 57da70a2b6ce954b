package wire

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"stableleader/id"
)

// sampleMessages returns one populated instance of every message kind.
func sampleMessages() []Message {
	return []Message{
		&Hello{
			Group:       "g1",
			Sender:      "w01",
			Incarnation: 123456789,
			Members: []MemberInfo{
				{ID: "w01", Incarnation: 123456789, Candidate: true},
				{ID: "w02", Incarnation: 42, Candidate: false, Left: true},
				{ID: "w03", Incarnation: 7, Candidate: true, Left: false},
			},
		},
		&Join{Group: "orders", Sender: "a", Incarnation: -5, Candidate: true},
		&Leave{Group: "g", Sender: "node-with-a-long-name", Incarnation: 99},
		&Alive{
			Group: "g", Sender: "w07", Incarnation: 1710000000000000000,
			Seq: 1 << 40, SendTime: 55, Interval: int64(200e6), AccTime: 77,
			Phase: 3, HasLocalLeader: true, LocalLeader: "w01", LocalLeaderAcc: 11,
		},
		&Alive{Group: "g", Sender: "w07", Incarnation: 2, Seq: 0, SendTime: -1, Interval: 0},
		&Accuse{Group: "g", Sender: "w09", Incarnation: 5, TargetIncarnation: 9, Phase: 2, At: 1234},
		&Rate{Group: "g", Sender: "w02", Incarnation: 8, Interval: int64(50e6)},
		&Subscribe{Group: "g", Sender: "client-7", Incarnation: 42, TTL: int64(10e9)},
		&Unsubscribe{Group: "g", Sender: "client-7", Incarnation: 42},
		&LeaderSnapshot{
			Group: "g", Sender: "w01", Incarnation: 9,
			Seq: 1 << 33, Elected: true, Leader: "w03", LeaderIncarnation: 77,
			At: 1710000000000000000, Lease: int64(10e9),
		},
		&LeaderSnapshot{Group: "g", Sender: "w01", Incarnation: 9, Seq: 3, Tombstone: true},
		&LeaseRenew{Group: "g", Sender: "client-7", Incarnation: 42, TTL: int64(5e9)},
		&Standby{Group: "g", Sender: "w01", Incarnation: 9, Seq: 17, Standby: "w03", StandbyInc: 77},
		&Standby{Group: "g", Sender: "w01", Incarnation: 9, Seq: 18},
		&Handover{Group: "g", Sender: "w01", Incarnation: 9, Successor: "w03",
			SuccessorInc: 77, GrantAcc: 1709999999999999999, At: 1710000000000000000},
		&SuccessorHint{Group: "g", Sender: "w01", Incarnation: 9, Seq: 1 << 21,
			Successor: "w03", SuccessorInc: 77, At: 1710000000000000000, Lease: int64(10e9)},
		&HelloDigest{Group: "g1", Sender: "w01", Incarnation: 123456789, Digest: 0xfedcba9876543210},
		&AliveRun{Sender: "w01", Incarnation: 123456789},
	}
}

func TestRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		b := Marshal(m)
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", m.Kind(), err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%s round trip mismatch:\n sent %+v\n got  %+v", m.Kind(), m, got)
		}
	}
}

func TestWireSizeMatchesMarshal(t *testing.T) {
	for _, m := range sampleMessages() {
		if got, want := m.WireSize(), len(Marshal(m)); got != want {
			t.Errorf("%s: WireSize() = %d, len(Marshal) = %d", m.Kind(), got, want)
		}
	}
}

// randomProcess generates identifier-ish strings, including empty and
// unicode ones.
func randomProcess(r *rand.Rand) id.Process {
	const alphabet = "abcdefghij-0123456789é"
	n := r.Intn(20)
	b := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		b = append(b, alphabet[r.Intn(len(alphabet))])
	}
	return id.Process(b)
}

// randomMessage builds an arbitrary valid message.
func randomMessage(r *rand.Rand) Message {
	g := id.Group(randomProcess(r))
	s := randomProcess(r)
	switch r.Intn(12) {
	case 0:
		m := &Hello{Group: g, Sender: s, Incarnation: r.Int63()}
		for i := r.Intn(5); i > 0; i-- {
			m.Members = append(m.Members, MemberInfo{
				ID:          randomProcess(r),
				Incarnation: r.Int63() - r.Int63(),
				Candidate:   r.Intn(2) == 0,
				Left:        r.Intn(2) == 0,
			})
		}
		return m
	case 1:
		return &Join{Group: g, Sender: s, Incarnation: r.Int63(), Candidate: r.Intn(2) == 0}
	case 2:
		return &Leave{Group: g, Sender: s, Incarnation: r.Int63()}
	case 3:
		m := &Alive{
			Group: g, Sender: s, Incarnation: r.Int63(),
			Seq: r.Uint64() >> uint(r.Intn(64)), SendTime: r.Int63() - r.Int63(),
			Interval: r.Int63n(1e10), AccTime: r.Int63(), Phase: r.Uint32(),
		}
		if r.Intn(2) == 0 {
			m.HasLocalLeader = true
			m.LocalLeader = randomProcess(r)
			m.LocalLeaderAcc = r.Int63()
		}
		return m
	case 4:
		return &Accuse{Group: g, Sender: s, Incarnation: r.Int63(),
			TargetIncarnation: r.Int63(), Phase: r.Uint32(), At: r.Int63()}
	case 5:
		return &Subscribe{Group: g, Sender: s, Incarnation: r.Int63(), TTL: r.Int63n(1e11)}
	case 6:
		return &Unsubscribe{Group: g, Sender: s, Incarnation: r.Int63()}
	case 7:
		return &LeaderSnapshot{
			Group: g, Sender: s, Incarnation: r.Int63(),
			Seq: r.Uint64() >> uint(r.Intn(64)), Elected: r.Intn(2) == 0,
			Leader: randomProcess(r), LeaderIncarnation: r.Int63() - r.Int63(),
			Tombstone: r.Intn(4) == 0, At: r.Int63(), Lease: r.Int63n(1e11),
		}
	case 8:
		return &LeaseRenew{Group: g, Sender: s, Incarnation: r.Int63(), TTL: r.Int63n(1e11)}
	case 9:
		return &HelloDigest{Group: g, Sender: s, Incarnation: r.Int63(), Digest: r.Uint64()}
	case 10:
		return &AliveRun{Sender: s, Incarnation: r.Int63()}
	default:
		return &Rate{Group: g, Sender: s, Incarnation: r.Int63(), Interval: r.Int63n(1e10)}
	}
}

// TestQuickRoundTripAndSize is the property-based guarantee the simulator's
// bandwidth accounting relies on: for every message, encoding inverts and
// WireSize equals the marshaled length exactly.
func TestQuickRoundTripAndSize(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		m := randomMessage(r)
		b := Marshal(m)
		if len(b) != m.WireSize() {
			t.Logf("size mismatch for %+v: wire=%d marshal=%d", m, m.WireSize(), len(b))
			return false
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Logf("unmarshal error for %+v: %v", m, err)
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	for _, m := range sampleMessages() {
		full := Marshal(m)
		// Every proper prefix must fail cleanly, never panic. (A prefix of
		// a Hello may decode as a shorter Hello only if the member count
		// byte is also cut, so assert on error-or-shorter semantics by
		// checking errors only where decoding fails.)
		for cut := 0; cut < len(full); cut++ {
			_, err := Unmarshal(full[:cut])
			if err == nil {
				// Some prefixes can decode if trailing bytes are ignored;
				// our codec reads exact field counts, so any successful
				// decode of a strict prefix is a bug for these samples.
				t.Fatalf("%s: prefix of %d/%d bytes decoded without error", m.Kind(), cut, len(full))
			}
		}
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},    // kind 0 invalid
		{0xff}, // unknown kind
		{byte(KindAlive)},
		bytes.Repeat([]byte{0xff}, 64),
	}
	for _, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("Unmarshal(%v) succeeded, want error", b)
		}
	}
}

func TestUnmarshalHugeMemberCount(t *testing.T) {
	// A HELLO advertising an absurd member count must be rejected before
	// allocation, not crash or hang.
	m := &Hello{Group: "g", Sender: "s", Incarnation: 1}
	b := Marshal(m)
	// Member count is the last varint; rewrite it to a huge value.
	b = b[:len(b)-1]
	var w writer
	w.b = b
	w.uvarint(1 << 40)
	if _, err := Unmarshal(w.b); err == nil {
		t.Fatal("decoding a HELLO with 2^40 members should fail")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindHello:  "HELLO",
		KindJoin:   "JOIN",
		KindLeave:  "LEAVE",
		KindAlive:  "ALIVE",
		KindAccuse: "ACCUSE",
		KindRate:   "RATE",
		Kind(99):   "Kind(99)",

		KindHelloDigest: "HELLO_DIGEST",
		KindAliveRun:    "ALIVE_RUN",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestHeaderAccessors(t *testing.T) {
	for _, m := range sampleMessages() {
		if m.From() == "" && m.Kind() != KindHello {
			t.Errorf("%s: empty From", m.Kind())
		}
		if (m.GroupID() == "") != (m.Kind() == KindAliveRun) {
			t.Errorf("%s: GroupID %q; only a run belongs to no group", m.Kind(), m.GroupID())
		}
	}
}

func TestAliveWithoutLocalLeaderOmitsFields(t *testing.T) {
	with := &Alive{Group: "g", Sender: "s", HasLocalLeader: true, LocalLeader: "x"}
	without := &Alive{Group: "g", Sender: "s"}
	if with.WireSize() <= without.WireSize() {
		t.Error("local leader fields should add to the wire size")
	}
}

// TestPreDigestKindsMarshalUnchanged pins the encoding of every kind that
// existed before HELLO_DIGEST, byte for byte as the build without it
// marshaled sampleMessages: adding a kind must not move a single byte of
// the others.
func TestPreDigestKindsMarshalUnchanged(t *testing.T) {
	golden := []string{
		"010267310377303100000000075bcd15030377303100000000075bcd150103773032000000000000002a0203773033000000000000000701",
		"02066f72646572730161fffffffffffffffb01",
		"030167156e6f64652d776974682d612d6c6f6e672d6e616d650000000000000063",
		"0401670377303717bb23f0a5eb00008080808080200000000000000037000000000bebc200000000000000004d000000030103773031000000000000000b",
		"04016703773037000000000000000200ffffffffffffffff000000000000000000000000000000000000000000",
		"05016703773039000000000000000500000000000000090000000200000000000004d2",
		"0601670377303200000000000000080000000002faf080",
		"08016708636c69656e742d37000000000000002a00000002540be400",
		"09016708636c69656e742d37000000000000002a",
		"0a016703773031000000000000000980808080200103773033000000000000004d17bb23f0a5eb000000000002540be400",
		"0a0167037730310000000000000009030200000000000000000000000000000000000000000000000000",
		"0b016708636c69656e742d37000000000000002a000000012a05f200",
		"0c01670377303100000000000000091103773033000000000000004d",
		"0c016703773031000000000000000912000000000000000000",
		"0d016703773031000000000000000903773033000000000000004d17bb23f0a5eaffff17bb23f0a5eb0000",
		"0e01670377303100000000000000098080800103773033000000000000004d17bb23f0a5eb000000000002540be400",
	}
	var old []Message
	for _, m := range sampleMessages() {
		if m.Kind() < KindHelloDigest {
			old = append(old, m)
		}
	}
	if len(old) != len(golden) {
		t.Fatalf("%d pre-digest samples, %d golden encodings", len(old), len(golden))
	}
	for i, m := range old {
		if got := hex.EncodeToString(Marshal(m)); got != golden[i] {
			t.Errorf("%s encoding moved:\n got  %s\n want %s", m.Kind(), got, golden[i])
		}
	}
}

// TestTableDigest: the digest depends on every field of every row and on
// nothing else — not on row order — and is pinned, so that processes on
// any architecture and build agree on it.
func TestTableDigest(t *testing.T) {
	rows := []MemberInfo{
		{ID: "w01", Incarnation: 123456789, Candidate: true},
		{ID: "w02", Incarnation: 42, Left: true},
		{ID: "w03", Incarnation: 7, Candidate: true},
	}
	// The sum of the rows' FNV-1a hashes of ID, big-endian incarnation
	// and flags byte, as any FNV-1a implementation computes it.
	d := TableDigest(rows)
	if d != 0x60a20e6e49ba7941 {
		t.Errorf("TableDigest = %#x, want 0x60a20e6e49ba7941", d)
	}
	reversed := []MemberInfo{rows[2], rows[1], rows[0]}
	if got := TableDigest(reversed); got != d {
		t.Errorf("digest depends on row order: %#x vs %#x", got, d)
	}
	if TableDigest(nil) != 0 {
		t.Error("the empty table's digest is not zero")
	}
	for i, edit := range []func(*MemberInfo){
		func(r *MemberInfo) { r.ID = "w04" },
		func(r *MemberInfo) { r.Incarnation++ },
		func(r *MemberInfo) { r.Candidate = !r.Candidate },
		func(r *MemberInfo) { r.Left = !r.Left },
	} {
		changed := append([]MemberInfo(nil), rows...)
		edit(&changed[1])
		if TableDigest(changed) == d {
			t.Errorf("edit %d of a row left the digest unchanged", i)
		}
	}
	if TableDigest(rows[:2]) == d {
		t.Error("dropping a row left the digest unchanged")
	}
}
