package wire

// Decoder is the receive side of the codec: it interns the strings it
// produces (process and group ids recur on every datagram) and recycles
// message structs handed back through Release. After warm-up the decode
// path performs no heap allocation.
//
// The contract mirrors single-threaded use: a Decoder is NOT safe for
// concurrent use, and a message passed to Release must no longer be
// referenced by the caller — strings read out of it remain valid (they are
// interned, never recycled), struct and slice memory does not.
type Decoder struct {
	strings map[string]string

	hellos     freelist[Hello]
	joins      freelist[Join]
	leaves     freelist[Leave]
	alives     freelist[Alive]
	accuses    freelist[Accuse]
	rates      freelist[Rate]
	subscribes freelist[Subscribe]
	unsubs     freelist[Unsubscribe]
	snapshots  freelist[LeaderSnapshot]
	renews     freelist[LeaseRenew]
	standbys   freelist[Standby]
	handovers  freelist[Handover]
	hints      freelist[SuccessorHint]
	batches    freelist[Batch]

	// unknown accumulates inner batch messages skipped for carrying an
	// unrecognized kind (see TakeUnknown).
	unknown int64
}

// freelist recycles the structs of one message kind.
type freelist[T any] struct{ free []*T }

// get returns a zeroed struct (slice capacity aside, see Release),
// recycled when one is free.
func (f *freelist[T]) get() *T {
	if n := len(f.free); n > 0 {
		t := f.free[n-1]
		f.free = f.free[:n-1]
		return t
	}
	return new(T)
}

// put clears t and takes it back; beyond maxFree the GC takes over.
func (f *freelist[T]) put(t *T) {
	var zero T
	*t = zero
	if len(f.free) < maxFree {
		f.free = append(f.free, t)
	}
}

// maxIntern bounds the interning table. Ids are few in practice; a flood of
// distinct names (hostile traffic) degrades to plain allocation instead of
// growing the table without bound.
const maxIntern = 4096

// maxFree bounds each freelist; Release beyond it lets the GC take over.
const maxFree = 256

// NewDecoder returns an empty Decoder.
func NewDecoder() *Decoder {
	return &Decoder{strings: make(map[string]string)}
}

// Unmarshal decodes one datagram — a single message or a Batch envelope
// (returned as a *Batch) — drawing structs from the freelists and strings
// from the interning table.
func (d *Decoder) Unmarshal(b []byte) (Message, error) {
	r := reader{b: b, d: d}
	m, err := unmarshalDatagram(&r)
	if err == nil {
		// Counted only for datagrams that decoded: a corrupt datagram is
		// garbage, not forward traffic, even if the bytes before the
		// corruption happened to look like a skippable future kind.
		d.unknown += int64(r.unknown)
	}
	return m, err
}

// TakeUnknown returns and resets the count of batch-inner messages skipped
// since the last call because their kind is unknown to this build. Hosts
// drain it into their packet counters after each decode.
func (d *Decoder) TakeUnknown() int64 {
	n := d.unknown
	d.unknown = 0
	return n
}

// DecodeAppend decodes one datagram and appends its messages — the inner
// messages of a batch, or the single bare message — to dst, which may be a
// recycled slice. On error dst is returned unchanged.
func (d *Decoder) DecodeAppend(dst []Message, b []byte) ([]Message, error) {
	m, err := d.Unmarshal(b)
	if err != nil {
		return dst, err
	}
	if t, ok := m.(*Batch); ok {
		dst = append(dst, t.Msgs...)
		d.putBatch(t)
		return dst, nil
	}
	return append(dst, m), nil
}

// intern returns a string equal to raw, reusing a previous allocation when
// the same bytes were seen before. The map index with a string conversion
// compiles to a no-allocation lookup.
func (d *Decoder) intern(raw []byte) string {
	if s, ok := d.strings[string(raw)]; ok {
		return s
	}
	s := string(raw)
	if len(d.strings) < maxIntern {
		d.strings[s] = s
	}
	return s
}

// Release recycles a message obtained from this Decoder. Releasing a
// message that anything still references corrupts later decodes; the
// protocol handlers copy what they keep, so hosts release right after
// dispatch. Releasing a *Batch releases its inner messages too.
func (d *Decoder) Release(m Message) {
	switch t := m.(type) {
	case *Hello:
		members := t.Members[:0] // the row capacity is recycled too
		d.hellos.put(t)
		t.Members = members
	case *Join:
		d.joins.put(t)
	case *Leave:
		d.leaves.put(t)
	case *Alive:
		d.alives.put(t)
	case *Accuse:
		d.accuses.put(t)
	case *Rate:
		d.rates.put(t)
	case *Subscribe:
		d.subscribes.put(t)
	case *Unsubscribe:
		d.unsubs.put(t)
	case *LeaderSnapshot:
		d.snapshots.put(t)
	case *LeaseRenew:
		d.renews.put(t)
	case *Standby:
		d.standbys.put(t)
	case *Handover:
		d.handovers.put(t)
	case *SuccessorHint:
		d.hints.put(t)
	case *Batch:
		for _, inner := range t.Msgs {
			d.Release(inner)
		}
		d.putBatch(t)
	}
}

// putBatch recycles an envelope whose inner messages have moved on,
// keeping its slice capacity.
func (d *Decoder) putBatch(t *Batch) {
	msgs := t.Msgs[:0]
	d.batches.put(t)
	t.Msgs = msgs
}
