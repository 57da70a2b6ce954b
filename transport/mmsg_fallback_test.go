package transport

// Fallback-ladder coverage for the syscall-batched packet plane, all of
// it portable: every test here must pass identically with the fast path
// compiled in (linux/amd64, linux/arm64), compiled out (other
// platforms) or runtime-downgraded — that equivalence IS the fallback
// contract.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"stableleader/id"
)

// newUDPPair builds a sender and receiver wired to each other.
func newUDPPair(t testing.TB, opts ...UDPOption) (send, recv *UDP, rec *recorder) {
	t.Helper()
	recv, err := NewUDP("127.0.0.1:0", nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	rec = newRecorder()
	recv.Receive(rec.handler)
	send, err = NewUDP("127.0.0.1:0", map[id.Process]string{
		"r": recv.LocalAddr().String(),
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { send.Close() })
	return send, recv, rec
}

// lane picks the I/O lane a test transport starts on. No shipped option
// does: outside tests the build tag and the runtime downgrade latch are
// the only selectors, so the classic lane on a batching platform is
// reachable only from here.
func lane(batched bool) UDPOption {
	return func(c *udpConfig) { c.batchIO = batched }
}

// batchModes are the configurations every semantic test runs under: the
// platform fast path (where it exists) and the classic path must be
// observationally identical.
var batchModes = []struct {
	name string
	opt  UDPOption
}{
	{"batched", lane(true)},
	{"classic", lane(false)},
}

func TestSendBatchSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	for _, mode := range batchModes {
		t.Run(mode.name, func(t *testing.T) {
			send, _, rec := newUDPPair(t, mode.opt)
			batch := []Datagram{
				{To: "r", Payload: []byte("one")},
				{To: "ghost", Payload: []byte("dropped")},
				{To: "r", Payload: []byte("two")},
				{To: "r", Payload: []byte("three")},
			}
			sent, err := send.SendBatch(batch)
			if sent != 3 {
				t.Errorf("sent = %d, want 3 (the unresolvable entry is skipped, not fatal)", sent)
			}
			if err == nil {
				t.Error("want the unresolvable entry's error reported")
			}
			got := rec.waitN(t, 3, 2*time.Second)
			// Per-destination order: one, two, three in index order.
			for i, want := range []string{"one", "two", "three"} {
				if string(got[i]) != want {
					t.Errorf("payload[%d] = %q, want %q", i, got[i], want)
				}
			}
		})
	}
}

func TestSendBatchAllResolvable(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	for _, mode := range batchModes {
		t.Run(mode.name, func(t *testing.T) {
			send, _, rec := newUDPPair(t, mode.opt)
			// More than one sendmmsg vector's worth, with mixed sizes so a
			// GSO-capable kernel exercises run detection and run breaks.
			const n = maxSendBatch + 17
			batch := make([]Datagram, n)
			for i := range batch {
				batch[i] = Datagram{To: "r", Payload: []byte(fmt.Sprintf("m-%03d-%s", i, "xxxxxxxxxxxx"[:i%12]))}
			}
			sent, err := send.SendBatch(batch)
			if err != nil {
				t.Fatalf("SendBatch: %v", err)
			}
			if sent != n {
				t.Fatalf("sent = %d, want %d", sent, n)
			}
			got := rec.waitN(t, n, 5*time.Second)
			for i := range batch {
				if string(got[i]) != string(batch[i].Payload) {
					t.Fatalf("payload[%d] = %q, want %q (per-destination order must hold)", i, got[i], batch[i].Payload)
				}
			}
		})
	}
}

func TestSendBatchEmptyAndZeroLength(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	for _, mode := range batchModes {
		t.Run(mode.name, func(t *testing.T) {
			send, _, rec := newUDPPair(t, mode.opt)
			if sent, err := send.SendBatch(nil); sent != 0 || err != nil {
				t.Errorf("empty batch: sent=%d err=%v", sent, err)
			}
			// A zero-length payload is a legal UDP datagram.
			sent, err := send.SendBatch([]Datagram{{To: "r", Payload: nil}, {To: "r", Payload: []byte("tail")}})
			if err != nil || sent != 2 {
				t.Fatalf("zero-length entry: sent=%d err=%v", sent, err)
			}
			got := rec.waitN(t, 2, 2*time.Second)
			if len(got[0]) != 0 || string(got[1]) != "tail" {
				t.Errorf("got %q, %q; want \"\", \"tail\"", got[0], got[1])
			}
		})
	}
}

func TestSendBatchAfterClose(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	send, _, _ := newUDPPair(t)
	if err := send.Close(); err != nil {
		t.Fatal(err)
	}
	sent, err := send.SendBatch([]Datagram{{To: "r", Payload: []byte("x")}})
	if sent != 0 || err == nil {
		t.Errorf("SendBatch after Close: sent=%d err=%v, want 0 and an error", sent, err)
	}
}

func TestSendBatchCloseRace(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	for _, mode := range batchModes {
		t.Run(mode.name, func(t *testing.T) {
			recv, err := NewUDP("127.0.0.1:0", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			send, err := NewUDP("127.0.0.1:0", map[id.Process]string{
				"r": recv.LocalAddr().String(),
			}, mode.opt)
			if err != nil {
				t.Fatal(err)
			}
			batch := make([]Datagram, 16)
			for i := range batch {
				batch[i] = Datagram{To: "r", Payload: []byte("race")}
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						// Errors are expected once Close lands; panics and
						// races are what this test hunts.
						_, _ = send.SendBatch(batch)
						_, _ = send.SendBatch(batch[:1])
					}
				}()
			}
			time.Sleep(20 * time.Millisecond)
			if err := send.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			close(stop)
			wg.Wait()
			// After Close every batch send must refuse cleanly.
			if sent, err := send.SendBatch(batch); sent != 0 || err == nil {
				t.Errorf("post-close SendBatch: sent=%d err=%v", sent, err)
			}
		})
	}
}

func TestIOStatsCountsClassicPath(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	send, recv, rec := newUDPPair(t, lane(false))
	const n = 10
	for i := 0; i < n; i++ {
		if err := send.Send("r", []byte("count-me")); err != nil {
			t.Fatal(err)
		}
	}
	rec.waitN(t, n, 2*time.Second)
	st := send.IOStats()
	if st.SendSyscalls != n || st.SendDatagrams != n {
		t.Errorf("classic send stats = %+v, want %d syscalls / %d datagrams", st, n, n)
	}
	rst := recv.IOStats()
	if rst.RecvDatagrams != n {
		t.Errorf("classic recv datagrams = %d, want %d", rst.RecvDatagrams, n)
	}
	if rst.RecvSyscalls != rst.RecvDatagrams {
		t.Errorf("classic path must be one syscall per datagram: %+v", rst)
	}
}

// TestUDPLargeDatagramInAnySlot sends a datagram of nearly maxDatagram
// into every position the batched read loop can give it — the middle and
// the end of a queued burst, read through slots the ring has just grown,
// and first after the ring has shrunk back on a quiet socket — and wants
// it delivered byte-identical each time: no slot passed to the kernel is
// ever shorter than maxDatagram.
func TestUDPLargeDatagramInAnySlot(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	const big = 60 * 1024
	for _, mode := range batchModes {
		t.Run(mode.name, func(t *testing.T) {
			recv, err := NewUDP("127.0.0.1:0", nil, mode.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			// payload i carries its sequence number, and byte 4 marks a
			// burst head, which the handler stalls on until the rest of the
			// burst is queued in the socket.
			var mu sync.Mutex
			got := map[int][]byte{}
			headIn, release := make(chan struct{}, 1), make(chan struct{})
			defer close(release) // before Close, which waits for a stalled handler
			recv.Receive(func(p []byte) {
				mu.Lock()
				got[int(binary.BigEndian.Uint32(p))] = append([]byte(nil), p...)
				mu.Unlock()
				if p[4] == 1 {
					headIn <- struct{}{}
					<-release
				}
			})
			send, err := NewUDP("127.0.0.1:0", map[id.Process]string{
				"r": recv.LocalAddr().String(),
			}, mode.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer send.Close()

			var want [][]byte
			emit := func(size int, head bool) {
				p := make([]byte, size)
				seq := len(want)
				binary.BigEndian.PutUint32(p, uint32(seq))
				if head {
					p[4] = 1
				}
				for i := 5; i < size; i++ {
					p[i] = byte(i*7 + seq)
				}
				want = append(want, p)
				if err := send.Send("r", p); err != nil {
					t.Fatal(err)
				}
			}
			waitFor := func(n int) {
				t.Helper()
				deadline := time.Now().Add(5 * time.Second)
				for {
					mu.Lock()
					have := len(got)
					mu.Unlock()
					if have >= n {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("delivered %d of %d datagrams", have, n)
					}
					time.Sleep(time.Millisecond)
				}
			}
			// burst queues 40 datagrams behind a stalled head, the large one
			// at index bigAt.
			burst := func(bigAt int) {
				emit(64, true)
				select {
				case <-headIn:
				case <-time.After(5 * time.Second):
					t.Fatal("burst head not delivered")
				}
				for i := 1; i < 40; i++ {
					size := 64
					if i == bigAt {
						size = big
					}
					emit(size, false)
				}
				release <- struct{}{}
				waitFor(len(want))
			}
			burst(20)
			burst(39)
			// At rest, one datagram at a time, the ring shrinks to its floor
			// (64 calls: twice the widest ring).
			for i := 0; i < 64; i++ {
				emit(64, false)
				waitFor(len(want))
			}
			if recv.BatchIO() {
				if w := recv.io.recvSlots.Load(); w != 2 {
					t.Fatalf("ring holds %d buffers at rest, want 2", w)
				}
			}
			emit(big, false)
			waitFor(len(want))

			mu.Lock()
			defer mu.Unlock()
			for seq, p := range want {
				if !bytes.Equal(got[seq], p) {
					t.Errorf("datagram %d (%d bytes): delivered %d bytes, not byte-identical", seq, len(p), len(got[seq]))
				}
			}
		})
	}
}
