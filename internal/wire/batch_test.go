package wire

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// sampleBatch coalesces one message of every protocol kind, the way the
// outbound scheduler does for a peer in many groups.
func sampleBatch() *Batch {
	return &Batch{Msgs: sampleMessages()}
}

func TestBatchRoundTrip(t *testing.T) {
	b := sampleBatch()
	enc := Marshal(b)
	if len(enc) != b.WireSize() {
		t.Fatalf("WireSize = %d, len(Marshal) = %d", b.WireSize(), len(enc))
	}
	got, err := Unmarshal(enc)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(b, got) {
		t.Errorf("batch round trip mismatch:\n sent %+v\n got  %+v", b, got)
	}
	// The flattening entry point returns the inner messages.
	msgs, err := NewDecoder().DecodeAppend(nil, enc)
	if err != nil {
		t.Fatalf("DecodeAppend: %v", err)
	}
	if !reflect.DeepEqual(msgs, b.Msgs) {
		t.Errorf("DecodeAppend mismatch:\n want %+v\n got  %+v", b.Msgs, msgs)
	}
}

func TestBatchSingleMessageFastPathIsByteCompatible(t *testing.T) {
	// A datagram carrying one message is emitted bare: the scheduler's fast
	// path must be byte-identical to the pre-batch wire format, so mixed
	// clusters interoperate.
	for _, m := range sampleMessages() {
		enc := Marshal(m)
		msgs, err := NewDecoder().DecodeAppend(nil, enc)
		if err != nil {
			t.Fatalf("%s: DecodeAppend of a bare message: %v", m.Kind(), err)
		}
		if len(msgs) != 1 || !reflect.DeepEqual(msgs[0], m) {
			t.Errorf("%s: bare message did not flatten to itself: %+v", m.Kind(), msgs)
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	b := &Batch{}
	enc := Marshal(b)
	if len(enc) != b.WireSize() {
		t.Fatalf("WireSize = %d, len(Marshal) = %d", b.WireSize(), len(enc))
	}
	got, err := Unmarshal(enc)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if gb := got.(*Batch); len(gb.Msgs) != 0 {
		t.Errorf("empty batch decoded to %d messages", len(gb.Msgs))
	}
}

func TestBatchItemSizeMatchesEnvelopeGrowth(t *testing.T) {
	b := &Batch{}
	prev := b.WireSize()
	for _, m := range sampleMessages() {
		b.Msgs = append(b.Msgs, m)
		if got, want := b.WireSize()-prev, ItemSize(m); got != want {
			t.Errorf("%s: envelope grew by %d, ItemSize = %d", m.Kind(), got, want)
		}
		prev = b.WireSize()
	}
}

func TestBatchRejectsCorruptEnvelopes(t *testing.T) {
	valid := Marshal(sampleBatch())
	cases := map[string][]byte{
		"empty batch header":  {byte(KindBatch)},
		"missing count":       {byte(KindBatch), BatchVersion},
		"future version":      {byte(KindBatch), BatchVersion + 1, 0},
		"zero version":        {byte(KindBatch), 0, 0},
		"count beyond buffer": {byte(KindBatch), BatchVersion, 0xff, 0xff, 0x7f},
		"zero-length inner":   {byte(KindBatch), BatchVersion, 1, 0},
		"truncated inner":     valid[:len(valid)-3],
		"inner length too long": {
			byte(KindBatch), BatchVersion, 1, 40, byte(KindLeave), 1, 'g', 1, 's',
		},
	}
	// A nested batch must be rejected, not recursed into.
	inner := Marshal(&Leave{Group: "g", Sender: "s", Incarnation: 1})
	nested := []byte{byte(KindBatch), BatchVersion, 1, byte(len(inner) + 3),
		byte(KindBatch), BatchVersion, 1, byte(len(inner))}
	nested = append(nested, inner...)
	cases["nested batch"] = nested
	// An inner message with trailing bytes inside its declared length must
	// be rejected: inner framing is strict even though the top level is
	// lenient for compatibility.
	slack := []byte{byte(KindBatch), BatchVersion, 1, byte(len(inner) + 2)}
	slack = append(slack, inner...)
	slack = append(slack, 0, 0)
	cases["inner trailing bytes"] = slack

	for name, enc := range cases {
		if _, err := Unmarshal(enc); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if _, err := NewDecoder().Unmarshal(enc); err == nil {
			t.Errorf("%s: Decoder decoded without error", name)
		}
	}
}

// TestDecoderMatchesUnmarshal is the equivalence property between the two
// codec surfaces: whatever Unmarshal produces, the pooled Decoder must
// produce too, including across recycling.
func TestDecoderMatchesUnmarshal(t *testing.T) {
	dec := NewDecoder()
	inputs := [][]byte{Marshal(sampleBatch())}
	for _, m := range sampleMessages() {
		inputs = append(inputs, Marshal(m))
	}
	for round := 0; round < 3; round++ { // later rounds hit the freelists
		for _, enc := range inputs {
			want, err := Unmarshal(enc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Unmarshal(enc)
			if err != nil {
				t.Fatalf("Decoder.Unmarshal: %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("round %d: decoder mismatch:\n want %+v\n got  %+v", round, want, got)
			}
			dec.Release(got)
		}
	}
}

func TestDecoderDecodeAppendFlattens(t *testing.T) {
	dec := NewDecoder()
	b := sampleBatch()
	enc := Marshal(b)
	var msgs []Message
	for round := 0; round < 3; round++ {
		var err error
		msgs, err = dec.DecodeAppend(msgs[:0], enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(msgs, b.Msgs) {
			t.Fatalf("round %d: DecodeAppend mismatch: %+v", round, msgs)
		}
		for _, m := range msgs {
			dec.Release(m)
		}
	}
	// Errors leave dst unchanged.
	msgs = msgs[:0]
	msgs, err := dec.DecodeAppend(msgs, []byte{0xff})
	if err == nil || len(msgs) != 0 {
		t.Errorf("DecodeAppend on garbage: msgs=%v err=%v", msgs, err)
	}
}

// TestDecoderRecycledHelloMatchesPlain pins a state-dependent equivalence
// bug: after releasing a member-bearing Hello, the freelist holds a struct
// with a non-nil empty Members slice; decoding a zero-member HELLO through
// it must still yield nil Members, like the allocating path.
func TestDecoderRecycledHelloMatchesPlain(t *testing.T) {
	dec := NewDecoder()
	withMembers := Marshal(&Hello{Group: "g", Sender: "s", Incarnation: 1,
		Members: []MemberInfo{{ID: "m", Incarnation: 2}}})
	m1, err := dec.Unmarshal(withMembers)
	if err != nil {
		t.Fatal(err)
	}
	dec.Release(m1)
	empty := Marshal(&Hello{Group: "g", Sender: "s", Incarnation: 1})
	want, err := Unmarshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Unmarshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("recycled decode diverged:\n plain  %#v\n pooled %#v", want, got)
	}
}

func TestDecoderInternsStrings(t *testing.T) {
	dec := NewDecoder()
	enc := Marshal(&Leave{Group: "grp", Sender: "proc", Incarnation: 1})
	m1, err := dec.Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	s1 := m1.From()
	dec.Release(m1)
	m2, err := dec.Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	// Interned strings survive Release: the first decode's id must still be
	// valid and share storage with the second's.
	if s1 != "proc" || s1 != m2.From() {
		t.Errorf("interned string corrupted: %q vs %q", s1, m2.From())
	}
}

// TestInternerSharedAcrossReceivers: receiver goroutines decoding
// through one host's Interner at once end up with ONE string per id —
// the same bytes, whichever goroutine met the id first — so ids compare
// by pointer wherever the messages went. A flood of made-up names fills
// the table and then gets plain copies; the ids already in it stay.
func TestInternerSharedAcrossReceivers(t *testing.T) {
	var in Interner
	const receivers, ids = 4, 64
	got := make([][]string, receivers)
	var wg sync.WaitGroup
	for r := range got {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				// Each receiver meets the ids in its own order.
				got[r] = append(got[r], in.intern([]byte(fmt.Sprintf("proc-%02d", (i+r*17)%ids))))
			}
		}(r)
	}
	wg.Wait()
	canon := map[string]*byte{}
	for r := range got {
		for _, s := range got[r] {
			if p, ok := canon[s]; !ok {
				canon[s] = unsafe.StringData(s)
			} else if p != unsafe.StringData(s) {
				t.Fatalf("id %q interned to two different strings", s)
			}
		}
	}
	if len(canon) != ids {
		t.Fatalf("interned %d distinct ids, want %d", len(canon), ids)
	}
	for i := 0; i < 4*maxIntern; i++ {
		if s := fmt.Sprintf("flood-%d", i); in.intern([]byte(s)) != s {
			t.Fatalf("flooded table returned a wrong string for %q", s)
		}
	}
	for s, p := range canon {
		if unsafe.StringData(in.intern([]byte(s))) != p {
			t.Fatalf("id %q lost its interned string to the flood", s)
		}
	}
}

func TestBatchHeaderDelegation(t *testing.T) {
	b := sampleBatch()
	if b.From() != b.Msgs[0].From() || b.GroupID() != b.Msgs[0].GroupID() {
		t.Error("batch header accessors must delegate to the first message")
	}
	empty := &Batch{}
	if empty.From() != "" || empty.GroupID() != "" {
		t.Error("empty batch must report empty header fields")
	}
	if KindBatch.String() != "BATCH" {
		t.Errorf("KindBatch.String() = %q", KindBatch.String())
	}
}

// TestMarshalAppendReusesBuffer pins the alloc-free marshal contract.
func TestMarshalAppendReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 4096)
	for _, m := range append(sampleMessages(), Message(sampleBatch())) {
		out := MarshalAppend(buf[:0], m)
		if &out[0] != &buf[:1][0] {
			t.Fatalf("%s: MarshalAppend reallocated despite sufficient capacity", m.Kind())
		}
		if !reflect.DeepEqual(out, Marshal(m)) {
			t.Fatalf("%s: MarshalAppend differs from Marshal", m.Kind())
		}
	}
}

func TestMarshalNestedBatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("marshaling a nested batch must panic: the scheduler never builds one")
		}
	}()
	Marshal(&Batch{Msgs: []Message{&Batch{}}})
}

// TestWarmDecoderMatchesFresh pins the property the allocating codec fork
// used to stand reference for: storage that last carried other values —
// a Decoder's freelists, a recycled Carrier's — decodes every kind exactly
// as fresh storage does. Release leaves nothing behind for the next
// decode to observe: not the optional fields behind Alive.HasLocalLeader,
// not the rows of the HELLO a struct carried before.
func TestWarmDecoderMatchesFresh(t *testing.T) {
	covered := map[Kind]bool{KindBatch: true}
	for _, m := range sampleMessages() {
		covered[m.Kind()] = true
	}
	for k := KindHello; k <= KindAliveRun; k++ {
		if !covered[k] {
			t.Fatalf("sampleMessages has no %s: the warm-up below would not dirty its freelist", k)
		}
	}
	// loud sets every field of every kind; quiet sets only the header, so
	// anything a recycled struct kept from loud shows up as a difference.
	loud := Marshal(sampleBatch())
	quiet := []Message{
		&Hello{Group: "q", Sender: "p"}, &Join{Group: "q", Sender: "p"},
		&Leave{Group: "q", Sender: "p"}, &Alive{Group: "q", Sender: "p"},
		&Accuse{Group: "q", Sender: "p"}, &Rate{Group: "q", Sender: "p"},
		&Subscribe{Group: "q", Sender: "p"}, &Unsubscribe{Group: "q", Sender: "p"},
		&LeaderSnapshot{Group: "q", Sender: "p"}, &LeaseRenew{Group: "q", Sender: "p"},
		&Standby{Group: "q", Sender: "p"}, &Handover{Group: "q", Sender: "p"},
		&SuccessorHint{Group: "q", Sender: "p"}, &HelloDigest{Group: "q", Sender: "p"},
		&AliveRun{Sender: "p"},
		// One row where loud's HELLO had three: the tail must be gone.
		&Hello{Group: "q", Sender: "p", Members: []MemberInfo{{ID: "r", Incarnation: 1}}},
	}
	// Twice each in one envelope: the freelists are LIFO and loud carries
	// two ALIVEs, snapshots and nominations, so the second pop reaches the
	// struct that held the fully populated one.
	inputs := [][]byte{Marshal(&Batch{Msgs: append(append([]Message{}, quiet...), quiet...)})}
	for _, m := range quiet {
		inputs = append(inputs, Marshal(m))
	}
	// ALIVEs decoded from a run land in structs that held loud's.
	inputs = append(inputs, Marshal(&Batch{Runs: true, Msgs: []Message{
		&Alive{Group: "q", Sender: "p"}, &Alive{Group: "q", Sender: "p"}}}))

	// Each storage under test: decode one datagram, and give everything
	// the last decode handed out back.
	dec := NewDecoder()
	var decMsgs []Message
	car, carStrings := new(Carrier), new(Interner)
	for _, warm := range []struct {
		name    string
		decode  func(enc []byte) ([]Message, error)
		release func()
	}{
		{"decoder", func(enc []byte) (_ []Message, err error) {
			decMsgs, err = dec.DecodeAppend(decMsgs[:0], enc)
			return decMsgs, err
		}, func() {
			for _, m := range decMsgs {
				dec.Release(m)
			}
		}},
		{"carrier", func(enc []byte) ([]Message, error) {
			_, err := car.Decode(carStrings, enc)
			car.Scatter() // both slices in play
			return car.Msgs, err
		}, car.reset},
	} {
		t.Run(warm.name, func(t *testing.T) {
			for _, enc := range inputs {
				if _, err := warm.decode(loud); err != nil {
					t.Fatal(err)
				}
				warm.release()
				want, err := NewDecoder().DecodeAppend(nil, enc)
				if err != nil {
					t.Fatal(err)
				}
				got, err := warm.decode(enc)
				if err != nil || len(got) != len(want) {
					t.Fatalf("warm decode: %d messages, err %v; fresh gave %d", len(got), err, len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(want[i], got[i]) {
						t.Fatalf("warm storage diverged from fresh:\n fresh %+v\n warm  %+v", want[i], got[i])
					}
				}
				warm.release()
			}
		})
	}
}

// TestCarrierRetentionCapped: whatever one datagram made a carrier hold —
// a hostile 64 KiB envelope of minimal messages, a HELLO that is all
// member rows — what it keeps once recycled stays within maxFree per
// kind and per slice, so a pooled carrier's footprint is bounded by the
// cap and not by the worst datagram it ever saw.
func TestCarrierRetentionCapped(t *testing.T) {
	const limit = 64 * 1024
	envelope := &Batch{}
	for envelope.WireSize() < limit-64 {
		envelope.Msgs = append(envelope.Msgs, &Leave{Group: "g", Sender: "s"})
	}
	rows := &Hello{Group: "g", Sender: "s"}
	for rows.WireSize() < limit-64 {
		rows.Members = append(rows.Members, MemberInfo{ID: "m", Incarnation: int64(len(rows.Members))})
	}
	if len(envelope.Msgs) < 4*maxFree || len(rows.Members) < 4*maxFree {
		t.Fatalf("hostile inputs too small to exceed the cap: %d messages, %d rows", len(envelope.Msgs), len(rows.Members))
	}

	c, in := new(Carrier), new(Interner)
	for _, enc := range [][]byte{Marshal(envelope), Marshal(rows)} {
		if _, err := c.Decode(in, enc); err != nil {
			t.Fatal(err)
		}
		c.Scatter()
		c.reset()
	}
	if cap(c.Msgs) > maxFree || cap(c.scatter) > maxFree {
		t.Errorf("recycled carrier keeps message slices of %d and %d, cap is %d", cap(c.Msgs), cap(c.scatter), maxFree)
	}
	if n := len(c.st.leaves.free); n != maxFree {
		t.Errorf("recycled carrier keeps %d LEAVE structs of %d decoded, cap is %d", n, len(envelope.Msgs), maxFree)
	}
	for _, h := range c.st.hellos.free {
		if cap(h.Members) > maxFree {
			t.Errorf("a pooled HELLO keeps %d member rows, cap is %d", cap(h.Members), maxFree)
		}
	}
}
