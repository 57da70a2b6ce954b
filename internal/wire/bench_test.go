package wire

// Micro-benchmarks for the codec hot paths. The outbound packet plane
// promises zero allocations per operation on both sides: MarshalAppend
// into a reused buffer and Decoder decode + Release. Run with
//
//	go test -bench=. -benchmem ./internal/wire
//
// and read the allocs/op column; the CI bench smoke job executes every
// benchmark once so a regression that reintroduces allocation (or panics)
// fails fast.

import (
	"testing"

	"stableleader/id"
)

// benchAlive is the hot-path message: the failure detector heartbeat.
func benchAlive() *Alive {
	return &Alive{
		Group: "orders", Sender: "w07", Incarnation: 1710000000000000000,
		Seq: 12345, SendTime: 1710000000000000000, Interval: int64(250e6),
		AccTime:        1709999990000000000,
		HasLocalLeader: true, LocalLeader: "w01", LocalLeaderAcc: 42,
	}
}

// benchBatch is a 16-group coalesced heartbeat datagram: what one peer
// receives per interval once the scheduler merges all group traffic.
func benchBatch() *Batch {
	b := &Batch{}
	for i := 0; i < 16; i++ {
		m := benchAlive()
		m.Group = id.Group("g" + string(rune('a'+i)))
		b.Msgs = append(b.Msgs, m)
	}
	return b
}

func BenchmarkMarshal(b *testing.B) {
	m := benchAlive()
	buf := make([]byte, 0, m.WireSize())
	b.ReportAllocs()
	b.SetBytes(int64(m.WireSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = MarshalAppend(buf[:0], m)
	}
	_ = buf
}

func BenchmarkUnmarshal(b *testing.B) {
	enc := Marshal(benchAlive())
	dec := NewDecoder()
	var msgs []Message
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if msgs, err = dec.DecodeAppend(msgs[:0], enc); err != nil {
			b.Fatal(err)
		}
		dec.Release(msgs[0])
	}
}

func BenchmarkBatch(b *testing.B) {
	// Full batched round trip: marshal a 16-message envelope into a reused
	// buffer, decode it back with the pooled Decoder, release everything.
	batch := benchBatch()
	buf := make([]byte, 0, batch.WireSize())
	dec := NewDecoder()
	var msgs []Message
	b.ReportAllocs()
	b.SetBytes(int64(batch.WireSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = MarshalAppend(buf[:0], batch)
		var err error
		msgs, err = dec.DecodeAppend(msgs[:0], buf)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range msgs {
			dec.Release(m)
		}
	}
}

// benchRuns is benchBatch as a peer that decodes runs receives it: the
// sixteen heartbeats in one run record.
func benchRuns() *Batch {
	b := benchBatch()
	b.Runs = true
	return b
}

func BenchmarkRunMarshal(b *testing.B) {
	batch := benchRuns()
	buf := make([]byte, 0, batch.WireSize())
	b.ReportAllocs()
	b.SetBytes(int64(batch.WireSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = MarshalAppend(buf[:0], batch)
	}
	_ = buf
}

func BenchmarkRunUnmarshal(b *testing.B) {
	enc := Marshal(benchRuns())
	dec := NewDecoder()
	var msgs []Message
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if msgs, err = dec.DecodeAppend(msgs[:0], enc); err != nil {
			b.Fatal(err)
		}
		for _, m := range msgs {
			dec.Release(m)
		}
	}
}
