package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"stableleader/id"
)

// AliveRun is the record that carries consecutive ALIVEs of one sender
// lifetime inside a Batch envelope. What one datagram's heartbeats repeat
// — sender and incarnation — travels once, and each field that moves a
// little from one heartbeat to the next travels as the difference:
//
//	kind (KindAliveRun) | group "" | sender | incarnation | base SendTime |
//	count uvarint | entry*
//	entry: group | Seq uvarint | Interval Δ | SendTime Δ |
//	       AccTime−incarnation | Phase uvarint | flags |
//	       [LocalLeader | LocalLeaderAcc−AccTime]
//
// The Δ columns are zig-zag varints of the difference from the previous
// entry (the first entry's SendTime from the base, its Interval from
// zero), the other differences zig-zag varints too; flags bit 0 is
// HasLocalLeader, the other bits must be clear. The coding is lossless:
// a run decodes into exactly the Alive values it was built from, so
// nothing above the codec can tell a run from classic ALIVEs.
//
// As a Message, AliveRun is only ever the empty run: a peer's
// announcement, at Incarnation, that it decodes runs. A build that
// predates runs skips the kind like any unknown one, so a sender codes
// runs only toward a peer whose current incarnation announced (see
// Batch.Runs).
type AliveRun struct {
	Sender      id.Process
	Incarnation int64
}

// Kind implements Message.
func (*AliveRun) Kind() Kind { return KindAliveRun }

// From implements Message.
func (m *AliveRun) From() id.Process { return m.Sender }

// GroupID implements Message: a run belongs to no group.
func (*AliveRun) GroupID() id.Group { return "" }

// WireSize implements Message.
func (m *AliveRun) WireSize() int { return headerSize("", m.Sender) + 8 + 1 }

// errBadRun reports a run record that cannot be the coding of any ALIVEs.
var errBadRun = fmt.Errorf("%w: malformed run", ErrBadBatch)

// minRunEntry is the smallest encoded run entry: one byte per column.
const minRunEntry = 7

// record returns the end of the batch record that starts at Msgs[i]: past
// the run of ALIVEs there when Runs is set and two or more of one sender
// lifetime follow each other, else i+1.
func (m *Batch) record(i int) int {
	j := i + 1
	if !m.Runs {
		return j
	}
	a, ok := m.Msgs[i].(*Alive)
	if !ok {
		return j
	}
	for ; j < len(m.Msgs); j++ {
		b, ok := m.Msgs[j].(*Alive)
		if !ok || b.Sender != a.Sender || b.Incarnation != a.Incarnation {
			break
		}
	}
	return j
}

// recordSize is the encoded size of one batch record: a message, or the
// run of two or more ALIVEs msgs holds.
func recordSize(msgs []Message) int {
	if len(msgs) == 1 {
		return msgs[0].WireSize()
	}
	first := msgs[0].(*Alive)
	n := headerSize("", first.Sender) + 8 + uvarintLen(uint64(len(msgs)))
	var iv int64
	st := first.SendTime
	for _, m := range msgs {
		a := m.(*Alive)
		n += strSize(string(a.Group)) + uvarintLen(a.Seq) +
			varintLen(a.Interval-iv) + varintLen(a.SendTime-st) +
			varintLen(a.AccTime-a.Incarnation) + uvarintLen(uint64(a.Phase)) + 1
		if a.HasLocalLeader {
			n += strSize(string(a.LocalLeader)) + varintLen(a.LocalLeaderAcc-a.AccTime)
		}
		iv, st = a.Interval, a.SendTime
	}
	return n
}

// varintLen is the encoded size of v as a zig-zag varint.
func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

func (w *writer) varint(v int64) { w.b = binary.AppendVarint(w.b, v) }

// run encodes the ALIVEs msgs holds, two or more of one sender lifetime,
// as one run record.
func (w *writer) run(msgs []Message) {
	first := msgs[0].(*Alive)
	w.kind(KindAliveRun)
	w.str("")
	w.str(string(first.Sender))
	w.i64(first.Incarnation)
	w.i64(first.SendTime)
	w.uvarint(uint64(len(msgs)))
	var iv int64
	st := first.SendTime
	for _, m := range msgs {
		a := m.(*Alive)
		w.str(string(a.Group))
		w.uvarint(a.Seq)
		w.varint(a.Interval - iv)
		w.varint(a.SendTime - st)
		w.varint(a.AccTime - a.Incarnation)
		w.uvarint(uint64(a.Phase))
		w.boolean(a.HasLocalLeader)
		if a.HasLocalLeader {
			w.str(string(a.LocalLeader))
			w.varint(a.LocalLeaderAcc - a.AccTime)
		}
		iv, st = a.Interval, a.SendTime
	}
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// unmarshalRun decodes one run record, appending its ALIVEs — or, for the
// empty run, the announcement — to dst. On error dst holds what was
// decoded so far, for the caller to release.
func unmarshalRun(r *reader, dst []Message) ([]Message, error) {
	r.u8() // kind, already known to be KindAliveRun
	group := r.str()
	sender := id.Process(r.str())
	inc := r.i64()
	st := r.i64()
	count := r.uvarint()
	switch {
	case r.err != nil:
		return dst, r.err
	case group != "":
		return dst, errBadRun
	case count == 0:
		t := r.st.runs.get()
		t.Sender, t.Incarnation = sender, inc
		return append(dst, t), nil
	case count > uint64(len(r.b)-r.off)/minRunEntry:
		// Reject before allocating: the entries cannot fit.
		return dst, errBadRun
	}
	var iv int64
	for i := uint64(0); i < count; i++ {
		t := r.st.alives.get()
		dst = append(dst, t)
		t.Group, t.Sender, t.Incarnation = id.Group(r.str()), sender, inc
		t.Seq = r.uvarint()
		iv += r.varint()
		st += r.varint()
		t.Interval, t.SendTime = iv, st
		t.AccTime = inc + r.varint()
		phase := r.uvarint()
		flags := r.u8()
		if r.err != nil {
			return dst, r.err
		}
		if phase > math.MaxUint32 || flags > 1 {
			return dst, errBadRun
		}
		t.Phase = uint32(phase)
		if flags == 1 {
			t.HasLocalLeader = true
			t.LocalLeader = id.Process(r.str())
			t.LocalLeaderAcc = t.AccTime + r.varint()
		}
	}
	return dst, r.err
}
