package wire

import (
	"hash/maphash"
	"sync/atomic"
)

// Decoder is the receive side of the codec for callers that own their
// decode loop (tools, load generators, tests): the same decode the hosts
// run through a Carrier, over a store and an interning table private to
// this Decoder. After warm-up the decode path performs no heap allocation.
//
// The contract mirrors single-threaded use: a Decoder is NOT safe for
// concurrent use, and a message passed to Release must no longer be
// referenced by the caller — strings read out of it remain valid (they are
// interned, never recycled), struct and slice memory does not.
type Decoder struct {
	st store
	in Interner
}

// store is the struct storage decoded messages are drawn from and released
// into: one freelist per kind. Whoever owns a store (a Carrier, a Decoder)
// is the only one to touch it, so it needs no lock.
type store struct {
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
	digests    freelist[HelloDigest]
	runs       freelist[AliveRun]
}

// freelist recycles the structs of one message kind.
type freelist[T any] struct{ free []*T }

// get returns a zeroed struct (slice capacity aside, see store.release),
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

// maxIntern sizes the interning table. Ids are few in practice; a flood of
// distinct names (hostile traffic) degrades to plain allocation instead of
// growing the table without bound.
const maxIntern = 4096

// maxFree is the retention cap of pooled decode storage: structs per kind
// in a freelist, and elements of a slice kept for reuse (HELLO member
// rows, a carrier's message slices). Legitimate datagrams stay far below
// it; what a hostile one pushes beyond it goes to the GC.
const maxFree = 256

// Interner is the table of strings a receiving host has decoded: process
// and group ids recur on every datagram, so each is allocated once. A host
// keeps ONE table for all of its receiver goroutines and carriers, so equal
// ids share a pointer wherever they ended up (comparison stops at the
// pointer check). It is a fixed open-addressing hash table whose slots are
// set once by compare-and-swap and never change: lookups and inserts take
// no lock, and an id finds the same slot from every goroutine. The zero
// value is ready to use.
type Interner struct {
	slots [maxIntern]atomic.Pointer[string]
}

var internSeed = maphash.MakeSeed()

// intern returns a string equal to raw, reusing a previous allocation when
// the same bytes were seen before (the comparison with a string conversion
// compiles to no allocation). A name that finds its whole probe window
// taken by others is allocated plainly.
func (in *Interner) intern(raw []byte) string {
	h := maphash.Bytes(internSeed, raw)
	for i := uint64(0); i < 8; i++ {
		slot := &in.slots[(h+i)%maxIntern]
		p := slot.Load()
		if p == nil {
			s := string(raw)
			if slot.CompareAndSwap(nil, &s) {
				return s
			}
			p = slot.Load() // a racing receiver filled it, maybe with this id
		}
		if *p == string(raw) {
			return *p
		}
	}
	return string(raw)
}

// NewDecoder returns an empty Decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// Unmarshal decodes one datagram into one Message, a Batch envelope as a
// *Batch — the form tools and tests read; it allocates the result.
func (d *Decoder) Unmarshal(b []byte) (Message, error) {
	msgs, err := d.DecodeAppend(nil, b)
	switch {
	case err != nil:
		return nil, err
	case isBatch(b):
		return &Batch{Msgs: msgs}, nil
	}
	return msgs[0], nil
}

// DecodeAppend decodes one datagram and appends its messages — the inner
// messages of a batch, or the single bare message — to dst, which may be a
// recycled slice. On error dst is returned unchanged.
func (d *Decoder) DecodeAppend(dst []Message, b []byte) ([]Message, error) {
	dst, _, err := decodeAppend(&d.st, &d.in, dst, b)
	return dst, err
}

// Release recycles a message obtained from this Decoder. Releasing a
// message that anything still references corrupts later decodes; the
// protocol handlers copy what they keep, so callers release right after
// dispatch. Releasing a *Batch releases its inner messages too.
func (d *Decoder) Release(m Message) { d.st.release(m) }

// decodeAppend is the one decode: a datagram's messages appended to dst in
// wire order, structs from st, strings from in. unknown counts the
// batch-inner messages skipped for carrying a kind this build does not
// know — only for datagrams that decoded: a corrupt datagram is garbage,
// not forward traffic, even if the bytes before the corruption happened to
// look like a skippable future kind.
func decodeAppend(st *store, in *Interner, dst []Message, b []byte) (_ []Message, unknown int64, err error) {
	r := reader{b: b, st: st, in: in}
	n := len(dst)
	if isBatch(b) {
		dst, err = unmarshalBatchEnvelope(&r, dst)
	} else if dst, err = decodeRecord(&r, dst); err == nil && dst[n].Kind() != Kind(b[0]) {
		// A bare datagram is one message of its own kind: the ALIVEs of a
		// run travel only in an envelope.
		err = errBadRun
	}
	if err != nil {
		for _, m := range dst[n:] {
			st.release(m)
		}
		return dst[:n], 0, err
	}
	return dst, int64(r.unknown), nil
}

// release takes a message's struct back into the store it came from,
// zeroed — a later decode through it matches a fresh one bit for bit.
func (st *store) release(m Message) {
	switch t := m.(type) {
	case *Hello:
		members := kept(t.Members) // the row capacity is recycled too
		st.hellos.put(t)
		t.Members = members
	case *Join:
		st.joins.put(t)
	case *Leave:
		st.leaves.put(t)
	case *Alive:
		st.alives.put(t)
	case *Accuse:
		st.accuses.put(t)
	case *Rate:
		st.rates.put(t)
	case *Subscribe:
		st.subscribes.put(t)
	case *Unsubscribe:
		st.unsubs.put(t)
	case *LeaderSnapshot:
		st.snapshots.put(t)
	case *LeaseRenew:
		st.renews.put(t)
	case *Standby:
		st.standbys.put(t)
	case *Handover:
		st.handovers.put(t)
	case *SuccessorHint:
		st.hints.put(t)
	case *HelloDigest:
		st.digests.put(t)
	case *AliveRun:
		st.runs.put(t)
	case *Batch: // what Decoder.Unmarshal returned; the envelope itself is garbage
		for _, inner := range t.Msgs {
			st.release(inner)
		}
	}
}

// kept empties a slice for reuse, dropping what it referenced; one that
// grew past the retention cap is given up instead.
func kept[T any](s []T) []T {
	if cap(s) > maxFree {
		return nil
	}
	clear(s)
	return s[:0]
}
