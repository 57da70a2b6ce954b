package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"stableleader/id"
)

// randomOutbound builds what a flush can hand the codec: one sender's
// messages for one peer, ALIVEs in runs of random length broken up by
// STANDBY, digest and RATE traffic, an announcement now and then, and
// ALIVEs of an older incarnation or another sender (which must not join a
// run). Field values move both ways, so deltas go negative, and ΩLC's
// local-leader fields come and go.
func randomOutbound(r *rand.Rand) *Batch {
	const self = id.Process("w03")
	inc := r.Int63()
	b := &Batch{Runs: true}
	st, iv := r.Int63()-r.Int63(), int64(200e6)
	for n := 1 + r.Intn(24); n > 0; n-- {
		g := id.Group(randomProcess(r))
		switch r.Intn(8) {
		case 0:
			b.Msgs = append(b.Msgs, &Standby{Group: g, Sender: self, Incarnation: inc, Seq: r.Uint64() >> 40, Standby: "w01", StandbyInc: r.Int63()})
		case 1:
			b.Msgs = append(b.Msgs, &HelloDigest{Group: g, Sender: self, Incarnation: inc, Digest: r.Uint64()})
		case 2:
			b.Msgs = append(b.Msgs, &Rate{Group: g, Sender: self, Incarnation: inc, Interval: r.Int63n(1e10)})
		case 3:
			b.Msgs = append(b.Msgs, &AliveRun{Sender: self, Incarnation: inc})
		default:
			st += r.Int63n(2e6) - 1e6
			if r.Intn(4) == 0 {
				iv = r.Int63n(1e10) - r.Int63n(1e3)
			}
			a := &Alive{
				Group: g, Sender: self, Incarnation: inc,
				Seq: r.Uint64() >> uint(r.Intn(64)), SendTime: st, Interval: iv,
				AccTime: inc + r.Int63n(2e9) - 1e9, Phase: r.Uint32() >> uint(r.Intn(32)),
			}
			switch r.Intn(8) {
			case 0:
				a.Incarnation = inc - 1
			case 1:
				a.Sender = "w04"
			case 2:
				a.AccTime = r.Int63() - r.Int63()
			}
			if r.Intn(3) == 0 {
				a.HasLocalLeader = true
				a.LocalLeader = randomProcess(r)
				a.LocalLeaderAcc = a.AccTime + r.Int63n(2e9) - 1e9
				if r.Intn(4) == 0 {
					a.LocalLeaderAcc = r.Int63() - r.Int63()
				}
			}
			b.Msgs = append(b.Msgs, a)
		}
	}
	return b
}

// records counts the records of an encoded batch, and of them the
// ALIVE_RUN ones: runs and announcements.
func records(t *testing.T, enc []byte) (n, runs int) {
	t.Helper()
	r := reader{b: enc, off: 2}
	count := r.uvarint()
	for i := uint64(0); i < count; i++ {
		l := r.uvarint()
		if r.err != nil || r.off+int(l) > len(enc) {
			t.Fatalf("envelope does not parse: %x", enc)
		}
		if Kind(enc[r.off]) == KindAliveRun {
			runs++
		}
		r.off += int(l)
	}
	return int(count), runs
}

// TestRunBatchExactSizeAndRoundTrip is the property the simulator's and
// the service's byte counts rest on, for batches that code runs: WireSize
// is the marshaled length exactly, and decoding gives back the messages
// that went in, in order. Every two or more consecutive ALIVEs of one
// sender lifetime travel as one run record, everything else classic.
func TestRunBatchExactSizeAndRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	dec := NewDecoder()
	var buf []byte
	sawRuns := 0
	for i := 0; i < 3000; i++ {
		b := randomOutbound(r)
		buf = MarshalAppend(buf[:0], b)
		if len(buf) != b.WireSize() {
			t.Fatalf("WireSize %d, marshaled %d bytes, for %+v", b.WireSize(), len(buf), b.Msgs)
		}
		got, err := dec.Unmarshal(buf)
		if err != nil {
			t.Fatalf("decode: %v for %+v", err, b.Msgs)
		}
		if !reflect.DeepEqual(got.(*Batch).Msgs, b.Msgs) {
			t.Fatalf("round trip changed the messages:\n sent %+v\n got  %+v", b.Msgs, got.(*Batch).Msgs)
		}
		dec.Release(got)

		wantRecords, wantRuns, notes := 0, 0, 0
		for j := 0; j < len(b.Msgs); j = b.record(j) {
			wantRecords++
			if b.record(j)-j > 1 {
				wantRuns++
			} else if b.Msgs[j].Kind() == KindAliveRun {
				notes++
			}
		}
		if n, runs := records(t, buf); n != wantRecords || runs != wantRuns+notes {
			t.Fatalf("%d records with %d ALIVE_RUN, want %d with %d", n, runs, wantRecords, wantRuns+notes)
		}
		sawRuns += wantRuns

		// The same messages without runs: the classic envelope, bigger.
		b.Runs = false
		if classic := Marshal(b); wantRuns > 0 && len(classic) <= len(buf) {
			t.Fatalf("runs cost %d bytes, classic %d", len(buf), len(classic))
		}
	}
	if sawRuns < 1000 {
		t.Fatalf("only %d runs generated: the property is not exercised", sawRuns)
	}
}

// heartbeats is one flush's ALIVEs toward one peer across n groups, as a
// pacer stamps them: the same interval, send times microseconds apart,
// accusation times from the groups' joins.
func heartbeats(n int) *Batch {
	const inc = 1710000000000000000
	b := &Batch{Runs: true}
	for i := 0; i < n; i++ {
		b.Msgs = append(b.Msgs, &Alive{
			Group: id.Group("g" + string(rune('a'+i))), Sender: "w07", Incarnation: inc,
			Seq: 1200 + uint64(i), SendTime: inc + 60e9 + int64(i)*3000, Interval: int64(200e6),
			AccTime: inc + 5e6 + int64(i)*1e5,
		})
	}
	return b
}

// TestRunCompactsHeartbeats pins the run coding on a realistic flush, byte
// for byte, and what it saves: eight heartbeats in under half the bytes.
func TestRunCompactsHeartbeats(t *testing.T) {
	b := heartbeats(2)
	const golden = "070101" + "36" + // envelope: one record of 54 bytes
		"10" + "00" + "03773037" + "17bb23f0a5eb0000" + "17bb23fe9e325800" + "02" + // run header
		"026761" + "b009" + "8088debe01" + "00" + "80ade204" + "00" + "00" + // entry 1
		"026762" + "b109" + "00" + "f02e" + "c0c7ee04" + "00" + "00" // entry 2
	if got := hex.EncodeToString(Marshal(b)); got != golden {
		t.Errorf("run encoding moved:\n got  %s\n want %s", got, golden)
	}

	b = heartbeats(8)
	runs := len(Marshal(b))
	b.Runs = false
	classic := len(Marshal(b))
	if 2*runs >= classic {
		t.Errorf("eight heartbeats: %d bytes as a run, %d classic; want under half", runs, classic)
	}
	t.Logf("eight heartbeats: %d bytes as a run, %d classic", runs, classic)
}

// TestRunDecodeRejectsMalformed: a run that cannot be the coding of any
// ALIVEs fails the datagram, and a count its payload cannot hold fails it
// before a single struct is taken.
func TestRunDecodeRejectsMalformed(t *testing.T) {
	enc := Marshal(heartbeats(2))
	// Byte offsets into enc (see TestRunCompactsHeartbeats): the record
	// starts at 4, the run's count is at 26, the first entry's flags at 43.
	mutate := func(at int, v byte) []byte {
		b := bytes.Clone(enc)
		b[at] = v
		return b
	}
	bare := Marshal(&AliveRun{Sender: "w07", Incarnation: 1})
	bareRun := bytes.Clone(enc[4:])
	for _, c := range []struct {
		name string
		b    []byte
	}{
		{"count beyond payload", mutate(26, 0x7f)},
		{"count one too many", mutate(26, 3)},
		{"named group", append([]byte{byte(KindBatch), BatchVersion, 1, byte(len(bare) + 1), byte(KindAliveRun), 1, 'g'}, bare[2:]...)},
		{"unknown flag", mutate(43, 2)},
		{"truncated entry", append([]byte{byte(KindBatch), BatchVersion, 1, 52}, enc[4:len(enc)-2]...)},
		{"bare run", bareRun},
	} {
		dec := NewDecoder()
		msgs, err := dec.DecodeAppend(nil, c.b)
		if err == nil {
			t.Errorf("%s: decoded %d messages, want an error", c.name, len(msgs))
			continue
		}
		if len(dec.st.alives.free) != 0 && c.name == "count beyond payload" {
			t.Errorf("%s: took %d structs before rejecting", c.name, len(dec.st.alives.free))
		}
		if !errors.Is(err, ErrBadBatch) && !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: error %v, want a malformed or truncated datagram", c.name, err)
		}
	}
	if m, err := Unmarshal(bare); err != nil || !reflect.DeepEqual(m, &AliveRun{Sender: "w07", Incarnation: 1}) {
		t.Errorf("bare announcement: %+v, %v", m, err)
	}
}

// TestRunNextToFutureKind: a run and an announcement share an envelope
// with a kind from a newer build; the future kind is skipped and counted,
// the run still decodes in place.
func TestRunNextToFutureKind(t *testing.T) {
	b := heartbeats(3)
	b.Msgs = append(b.Msgs, &AliveRun{Sender: "w07", Incarnation: 9})
	enc := Marshal(b)
	// One more record: bump the count, append an unknown item.
	enc[2]++
	enc = appendFutureItem(enc, []byte{1, 2, 3})
	msgs, unknown, err := decodeAppend(&store{}, &Interner{}, nil, enc)
	if err != nil || unknown != 1 {
		t.Fatalf("err %v, unknown %d; want the future kind skipped", err, unknown)
	}
	if !reflect.DeepEqual(msgs, b.Msgs) {
		t.Errorf("decoded %+v, want %+v", msgs, b.Msgs)
	}
}

// FuzzAliveRun: whatever the field values, a batch of ALIVEs coded as a
// run decodes back to them exactly, and its size is known in advance.
func FuzzAliveRun(f *testing.F) {
	f.Add(uint8(2), int64(1710000000000000000), int64(1710000060000000000), int64(3000), int64(200e6), int64(5e6), uint32(0), "w01", uint64(1200))
	f.Add(uint8(16), int64(-1), int64(-1<<63), int64(-1), int64(1<<62), int64(-1<<63), uint32(1<<31), "", uint64(1<<63))
	f.Add(uint8(3), int64(0), int64(0), int64(0), int64(0), int64(0), uint32(7), "ωλ", uint64(0))
	f.Fuzz(func(t *testing.T, n uint8, inc, st, step, iv, acc int64, phase uint32, ll string, seq uint64) {
		b := &Batch{Runs: true}
		for i := 0; i < int(n%32)+2; i++ {
			a := &Alive{
				Group: id.Group(ll[:len(ll)*i%(len(ll)+1)]), Sender: "w07", Incarnation: inc,
				Seq: seq + uint64(i), SendTime: st + step*int64(i), Interval: iv ^ int64(i&1),
				AccTime: acc - int64(i), Phase: phase >> (i % 32),
			}
			if i%3 == 1 {
				a.HasLocalLeader, a.LocalLeader, a.LocalLeaderAcc = true, id.Process(ll), acc*int64(i)
			}
			b.Msgs = append(b.Msgs, a)
		}
		enc := Marshal(b)
		if len(enc) != b.WireSize() {
			t.Fatalf("WireSize %d, marshaled %d", b.WireSize(), len(enc))
		}
		got, err := Unmarshal(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.(*Batch).Msgs, b.Msgs) {
			t.Fatalf("round trip:\n sent %+v\n got  %+v", b.Msgs, got.(*Batch).Msgs)
		}
	})
}
