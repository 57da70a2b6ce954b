package wire

import "sync"

// maxInboxSlices bounds the recycled destination-slice pool.
const maxInboxSlices = 64

// Inbox is the receive-side decode harness shared by hosts (the
// real-time service and the remote client): one pooled Decoder plus
// recycled destination slices. A mutex serialises it because transports
// may deliver concurrently while releases happen on the host's event
// loop — the Decoder itself is single-threaded by contract.
type Inbox struct {
	mu     sync.Mutex
	dec    *Decoder
	slices [][]Message
}

// NewInbox returns an empty Inbox.
func NewInbox() *Inbox { return &Inbox{dec: NewDecoder()} }

// Decode decodes one datagram into a recycled slice through the pooled
// decoder, returning the messages, the count of unknown-kind inners
// skipped (forward traffic; see Decoder.TakeUnknown), and the decode
// error. The returned slice must go back through Recycle exactly once —
// with release once the messages have been dispatched (handlers copy
// what they keep), without it when they never will be.
//
//leadervet:acquires
func (ib *Inbox) Decode(payload []byte) ([]Message, int64, error) {
	ib.mu.Lock()
	msgs, err := ib.dec.DecodeAppend(ib.popSlice(), payload)
	unknown := ib.dec.TakeUnknown()
	ib.mu.Unlock()
	return msgs, unknown, err
}

// popSlice takes a recycled destination slice, nil when the pool is
// empty. Called with mu held.
func (ib *Inbox) popSlice() []Message {
	n := len(ib.slices)
	if n == 0 {
		return nil
	}
	msgs := ib.slices[n-1][:0]
	ib.slices = ib.slices[:n-1]
	return msgs
}

// TakeSlice returns a recycled destination slice (nil when the pool is
// empty) for callers that reorder decoded messages — the sharded host's
// steering stage scatters a datagram's messages into shard-contiguous
// runs. Like a Decode result, the slice must go back through Recycle
// exactly once.
//
//leadervet:acquires
func (ib *Inbox) TakeSlice() []Message {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return ib.popSlice()
}

// Recycle returns a decoded message slice (and, when release is set, the
// messages themselves) to the pools.
//
//leadervet:releases msgs
func (ib *Inbox) Recycle(msgs []Message, release bool) {
	if msgs == nil {
		return
	}
	ib.mu.Lock()
	if release {
		for _, m := range msgs {
			ib.dec.Release(m)
		}
	}
	if len(ib.slices) < maxInboxSlices {
		ib.slices = append(ib.slices, msgs[:0])
	}
	ib.mu.Unlock()
}
