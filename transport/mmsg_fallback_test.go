package transport

// Fallback-ladder coverage for the syscall-batched packet plane, all of
// it portable: every test here must pass identically with the fast path
// compiled in (linux/amd64, linux/arm64), compiled out (other
// platforms) or runtime-downgraded — that equivalence IS the fallback
// contract.

import (
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

func TestSendHintDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	recv, err := NewUDP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	rec := newRecorder()
	recv.Receive(rec.handler)
	send, err := NewUDP("127.0.0.1:0", map[id.Process]string{
		"r": recv.LocalAddr().String(),
	}, WithReceivers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	// Every hint must deliver, whatever socket it lands on; a fixed hint
	// must always pick the same socket (ordering contract).
	for h := 0; h < 8; h++ {
		if send.sendConn(h) != send.sendConn(h) {
			t.Fatalf("hint %d is not stable", h)
		}
		one := []Datagram{{To: "r", Payload: []byte(fmt.Sprintf("h%d", h))}}
		if _, err := send.SendVector(h, one); err != nil {
			t.Fatal(err)
		}
	}
	rec.waitN(t, 8, 2*time.Second)
	if send.Receivers() > 1 {
		// With several sockets, distinct hints must not all collapse onto
		// conns[0] — that is the bottleneck this API removes.
		distinct := map[interface{}]bool{}
		for h := 0; h < send.Receivers(); h++ {
			distinct[send.sendConn(h)] = true
		}
		if len(distinct) != send.Receivers() {
			t.Errorf("hints 0..%d map to %d sockets, want %d", send.Receivers()-1, len(distinct), send.Receivers())
		}
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
			}, mode.opt, WithReceivers(2))
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
				go func(h int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						// Errors are expected once Close lands; panics and
						// races are what this test hunts.
						_, _ = send.SendVector(h, batch)
						_, _ = send.SendVector(h, batch[:1])
					}
				}(g)
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
