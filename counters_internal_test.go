package stableleader

import (
	"context"
	"testing"
	"time"

	"stableleader/internal/wire"
	"stableleader/transport"
)

// TestInboundCountedAtDispatchNotReceipt is the regression test for the
// inbound-counter drift: onDatagram used to count a datagram as delivered
// before enqueueing it, so traffic arriving while the service was closing
// — decoded but never dispatched — inflated the delivered counters. The
// count now happens at dispatch on the event loop.
func TestInboundCountedAtDispatchNotReceipt(t *testing.T) {
	hub := transport.NewInproc(nil)
	s, err := New("p1", hub.Endpoint("p1"), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	payload := wire.MarshalAppend(nil, &wire.Alive{
		Group:       "g",
		Sender:      "p2",
		Incarnation: 1,
		Seq:         1,
		SendTime:    time.Now().UnixNano(),
		Interval:    int64(100 * time.Millisecond),
	})

	// While running, a delivered datagram is counted (asynchronously, at
	// dispatch).
	s.deliver(payload)
	deadline := time.Now().Add(5 * time.Second)
	for s.PacketStats().DatagramsIn != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("running service never counted the dispatched datagram: %+v", s.PacketStats())
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.PacketStats().MessagesIn; got != 1 {
		t.Fatalf("MessagesIn = %d, want 1", got)
	}

	// Once closing, the datagram is decoded but dropped before dispatch —
	// it must NOT be counted as delivered.
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.deliver(payload)
	// The drop is synchronous (enqueue bails on the closed closing
	// channel), so the counters are already final.
	if got := s.PacketStats(); got.DatagramsIn != 1 || got.MessagesIn != 1 {
		t.Fatalf("closing service counted a dropped datagram as delivered: %+v", got)
	}
}

// TestUnknownKindsCountedNotFatal is the forward-compatibility regression
// test at the service boundary: a batch from a future-versioned peer that
// mixes a known message with unknown kinds must deliver the known message
// and count the skipped ones in PacketStats.UnknownDropped; a bare unknown
// datagram drops whole but is counted too.
func TestUnknownKindsCountedNotFatal(t *testing.T) {
	hub := transport.NewInproc(nil)
	s, err := New("p1", hub.Endpoint("p1"), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	known := &wire.Alive{
		Group:       "g",
		Sender:      "p2",
		Incarnation: 1,
		Seq:         1,
		SendTime:    time.Now().UnixNano(),
		Interval:    int64(100 * time.Millisecond),
	}
	// Hand-build a batch: known | future-kind | future-kind.
	payload := []byte{byte(wire.KindBatch), wire.BatchVersion, 3}
	payload = append(payload, byte(known.WireSize()))
	payload = wire.MarshalAppend(payload, known)
	payload = append(payload, 3, 0x2a, 0xde, 0xad) // len=3, kind 42, body
	payload = append(payload, 1, 0x30)             // len=1, kind 48

	s.deliver(payload)
	deadline := time.Now().Add(5 * time.Second)
	for s.PacketStats().MessagesIn != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("known message inside a future-versioned envelope never delivered: %+v", s.PacketStats())
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.PacketStats().UnknownDropped; got != 2 {
		t.Fatalf("UnknownDropped = %d, want 2 (the skipped future kinds)", got)
	}

	// A bare datagram of a future kind: dropped whole, counted once.
	s.deliver([]byte{0x2a, 1, 'g', 1, 's'})
	deadline = time.Now().Add(5 * time.Second)
	for s.PacketStats().UnknownDropped != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("bare unknown datagram not counted: %+v", s.PacketStats())
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.PacketStats(); got.MessagesIn != 1 || got.DatagramsIn != 1 {
		t.Fatalf("unknown traffic leaked into delivered counters: %+v", got)
	}
}
