package stableleader

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"stableleader/id"
	"stableleader/internal/outbound"
	"stableleader/internal/wire"
	"stableleader/transport"
)

// sendRecorder is a Send-only transport keeping every datagram it is
// handed, per destination, in arrival order.
type sendRecorder struct {
	mu  sync.Mutex
	got map[id.Process][]string
}

func (r *sendRecorder) Send(to id.Process, payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.got == nil {
		r.got = make(map[id.Process][]string)
	}
	r.got[to] = append(r.got[to], string(payload))
	return nil
}
func (r *sendRecorder) Receive(func([]byte)) {}
func (r *sendRecorder) Close() error         { return nil }

// vectorRecorder is the same transport with the vectored door; vectors
// counts the SendVector calls so the test knows the door was used.
type vectorRecorder struct {
	sendRecorder
	vectors int
}

func (r *vectorRecorder) SendVector(_ int, batch []transport.Datagram) (int, error) {
	r.vectors++
	for _, d := range batch {
		_ = r.Send(d.To, d.Payload)
	}
	return len(batch), nil
}

// TestOneSendDoor: the same scripted traffic through a Service over a
// Send-only transport and over one with the vectored door must put
// identical datagrams on the wire in identical per-destination order —
// the Service has one staging path whatever the transport offers.
func TestOneSendDoor(t *testing.T) {
	// More datagrams than one staging vector holds, so the vector grows
	// for the occasion; three destinations interleaved; bare messages and
	// a batch envelope; a pool-managed snapshot.
	script := func(send func(id.Process, wire.Message)) {
		for i := 0; i < 3*sendVector+5; i++ {
			to := id.Process(fmt.Sprintf("p%d", i%3))
			switch i % 4 {
			case 0:
				send(to, &wire.Alive{Group: "g", Sender: "self", Incarnation: 1, Seq: uint64(i)})
			case 1:
				send(to, &wire.Batch{Msgs: []wire.Message{
					&wire.Alive{Group: "g1", Sender: "self", Incarnation: 1, Seq: uint64(i)},
					&wire.Standby{Group: "g1", Sender: "self", Incarnation: 1, Seq: uint64(i), Standby: to},
				}})
			case 2:
				snap := wire.GetLeaderSnapshot()
				snap.Group, snap.Sender, snap.Seq, snap.Leader = "g", "self", uint64(i), to
				send(to, snap)
			default:
				send(to, &wire.Leave{Group: "g", Sender: "self", Incarnation: int64(i)})
			}
		}
	}
	run := func(tr transport.Transport) {
		t.Helper()
		s, err := New("self", tr, WithSeed(1), WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		sh := s.shards[0]
		if err := sh.call(context.Background(), func() { script(sh.rt.Send) }); err != nil {
			t.Fatal(err)
		}
		// A second loop round trip: the first call's arm has flushed, and
		// given back what the script's burst grew.
		if err := sh.call(context.Background(), func() {
			if len(sh.rt.pend) != 0 || cap(sh.rt.pend) != sendVector || cap(sh.rt.pendBuf) != sendVector {
				t.Errorf("after the flush the send vector holds %d datagrams in room for %d (buffers %d), want 0 in %d",
					len(sh.rt.pend), cap(sh.rt.pend), cap(sh.rt.pendBuf), sendVector)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Crash(); err != nil {
			t.Fatal(err)
		}
	}
	plain, vectored := &sendRecorder{}, &vectorRecorder{}
	run(plain)
	run(vectored)
	if vectored.vectors == 0 {
		t.Fatal("the vectored transport's door was never used")
	}
	if len(plain.got) != 3 {
		t.Fatalf("script reached %d destinations, want 3", len(plain.got))
	}
	for to, want := range plain.got {
		if got := vectored.got[to]; !reflect.DeepEqual(want, got) {
			t.Errorf("%s: the Send-only transport saw %d datagrams, the vectored one %d, or their bytes or order differ",
				to, len(want), len(got))
		}
	}
	if len(vectored.got) != len(plain.got) {
		t.Errorf("vectored transport reached %d destinations, want %d", len(vectored.got), len(plain.got))
	}
}

// TestCoalescedSendAllocFree pins the at-rest send path's allocation
// contract: a heartbeat's worth of messages built for a peer, staged,
// flushed as one envelope, marshalled and handed to the transport costs no
// heap allocation once warm — the heartbeats, the envelope and its slice
// come back from the send pool when the host releases the datagram, and
// the staging slice stays with its queue. (The pacer's side of a beat is
// pinned by core's TestPacerBeatAllocFree.)
func TestCoalescedSendAllocFree(t *testing.T) {
	if RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; alloc counts are nondeterministic")
	}
	s, err := New("self", nullTransport{}, WithSeed(1), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Crash()
	sh := s.shards[0]
	groups := make([]id.Group, 8)
	for i := range groups {
		groups[i] = id.Group(fmt.Sprintf("g%d", i))
	}
	var allocs float64
	if err := sh.call(context.Background(), func() {
		out := outbound.New(outbound.Config{Clock: sh.rt, Emit: sh.rt.Send})
		beat := func() {
			for _, g := range groups {
				m := wire.GetAlive()
				m.Group, m.Sender, m.Incarnation = g, "self", 1
				out.Enqueue("peer", m, time.Millisecond)
			}
			out.Flush("peer")
			sh.rt.flushSends()
		}
		beat() // warm: queue, timer, staging slice, pooled messages, envelope and buffer
		allocs = testing.AllocsPerRun(200, beat)
	}); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("one coalesced heartbeat datagram costs %.2f allocations, want 0", allocs)
	}
}
