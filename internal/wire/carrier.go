package wire

import (
	"sync"
	"sync/atomic"
)

// Carrier is one received datagram on its way through a host: filled by
// the receiver goroutine that decodes it, handed over the inbound ring(s),
// read by the event loop(s) that dispatch it, pooled by the last of them.
// It owns the storage of its datagram — message structs, message slice,
// steering scatter slice — and the structs Decode gives out are exactly
// the ones Release takes back, zeroed there. A carrier's demand on its own
// store is therefore one datagram, and the carriers in circulation are
// bounded by the rings they travel: the receive path allocates nothing at
// any in-flight depth or shard count. Strings alone outlive a carrier, in
// the host's Interner. One goroutine at a time writes a carrier (the
// receiver; loops only read Msgs), so nothing in it is locked.
type Carrier struct {
	// Msgs is the decoded datagram: wire order after Decode, the steering
	// stage's order after Scatter. Valid until the last Release.
	Msgs []Message
	// Bytes is the datagram's size on the wire (payload plus UDP/IP
	// overhead); the payload itself goes back to the transport at once.
	Bytes int

	st      store
	scatter []Message
	claims  atomic.Int32
}

// carriers is GC-drainable on purpose: an idle host gives its decode
// storage back instead of pinning a flood's high-water mark as live heap.
var carriers = sync.Pool{New: func() any { return new(Carrier) }}

// GetCarrier returns an empty carrier holding one claim, the caller's.
//
//leadervet:acquires
func GetCarrier() *Carrier {
	c := carriers.Get().(*Carrier)
	c.claims.Store(1)
	return c
}

// Decode decodes one datagram into c.Msgs, interning strings through the
// host's table, and returns the count of unknown-kind inner messages
// skipped (see decodeAppend). On error c.Msgs is empty; either way the
// carrier still needs its Release.
func (c *Carrier) Decode(in *Interner, payload []byte) (unknown int64, err error) {
	c.Bytes = len(payload) + UDPOverhead
	c.Msgs, unknown, err = decodeAppend(&c.st, in, c.Msgs[:0], payload)
	return unknown, err
}

// Scatter returns the messages in wire order and makes c.Msgs a second
// carrier-owned slice of the same length, for the caller to fill with
// them in its own order. That slice grows to the carrier's largest
// datagram once.
func (c *Carrier) Scatter() []Message {
	src := c.Msgs
	c.Msgs = append(c.scatter[:0], src...)
	c.scatter = src
	return src
}

// Share turns the caller's one claim into n, one for each party it then
// hands c to.
func (c *Carrier) Share(n int) { c.claims.Store(int32(n)) }

// Release drops one claim; the last one recycles the carrier. The messages
// (not the strings read out of them) are invalid from then on, which the
// protocol handlers honour by copying what they keep.
//
//leadervet:releases c
func (c *Carrier) Release() {
	if c.claims.Add(-1) == 0 {
		c.reset()
		carriers.Put(c)
	}
}

// reset takes the datagram's structs back and empties the slices, each
// within the retention cap.
func (c *Carrier) reset() {
	for _, m := range c.Msgs {
		c.st.release(m)
	}
	c.Msgs = kept(c.Msgs)
	c.scatter = kept(c.scatter)
}
