package transport

// BenchmarkUDPReceive proves the zero-allocation receive path: the read
// loop reads into pooled buffers, identifies the peer without resolving a
// *net.UDPAddr, and hands the payload to the handler without copying. The
// benchmark drives real loopback datagrams end to end and reports total
// allocations per delivered datagram across ALL goroutines (Go's testing
// allocator accounting is process-wide), so an allocation reintroduced in
// readLoop shows up even though it runs on its own goroutine.
//
// Expected: 0 allocs/op at steady state. The send side (Send via
// WriteToUDPAddrPort on a prebuilt payload) is allocation-free too, so the
// figure isolates the receive path's contribution as zero.

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"stableleader/id"
)

func BenchmarkUDPReceive(b *testing.B) {
	recv, err := NewUDP("127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	var delivered atomic.Int64
	recv.Receive(func(p []byte) { delivered.Add(1) })

	send, err := NewUDP("127.0.0.1:0", map[id.Process]string{
		"r": recv.LocalAddr().String(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer send.Close()

	// A realistic coalesced-heartbeat-sized payload.
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}

	// Cap in-flight datagrams well under the socket buffer so loopback
	// does not drop: a drop would stall the catch-up loop below.
	const window = 64
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for int64(i)-delivered.Load() > window {
			runtime.Gosched()
		}
		if err := send.Send("r", payload); err != nil {
			b.Fatal(err)
		}
	}
	// Wait for the tail; loopback should deliver everything, but a kernel
	// drop must not hang the benchmark.
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() < int64(b.N) && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	b.StopTimer()
	if got := delivered.Load(); got < int64(b.N) {
		b.Logf("delivered %d of %d datagrams (kernel drop); allocs/op still valid", got, b.N)
	}
}

// TestUDPReceiveAllocFree is BenchmarkUDPReceive's property as a test, on
// both read loops: once warm, a burst of datagrams read off a real
// loopback socket and handed to the handler costs no heap allocation.
// testing.AllocsPerRun counts every goroutine's allocations, so the read
// loop's are in the figure although it runs on its own goroutine.
func TestUDPReceiveAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; alloc counts are nondeterministic")
	}
	for _, mode := range batchModes {
		t.Run(mode.name, func(t *testing.T) {
			const burst = 32
			recv, err := NewUDP("127.0.0.1:0", nil, mode.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			// The handler signals the burst's last datagram; a buffered
			// channel and two atomics keep the handler itself allocation-free.
			var delivered, target atomic.Int64
			done := make(chan struct{}, 1)
			recv.Receive(func([]byte) {
				if delivered.Add(1) == target.Load() {
					done <- struct{}{}
				}
			})
			send, err := NewUDP("127.0.0.1:0", map[id.Process]string{
				"r": recv.LocalAddr().String(),
			}, mode.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer send.Close()
			batch := make([]Datagram, burst)
			for i := range batch {
				batch[i] = Datagram{To: "r", Payload: make([]byte, 128)}
			}
			// One timer, re-armed per burst: a kernel drop ends the wait
			// instead of hanging the test, at no allocation per burst.
			timeout := time.NewTimer(time.Hour)
			timeout.Stop()
			lost := false
			allocs := testing.AllocsPerRun(50, func() {
				if lost {
					return
				}
				target.Add(burst)
				_, _ = send.SendBatch(batch)
				timeout.Reset(5 * time.Second)
				select {
				case <-done:
				case <-timeout.C:
					lost = true
				}
				timeout.Stop()
			})
			if lost {
				t.Fatalf("delivered %d of %d datagrams: loopback dropped a burst", delivered.Load(), target.Load())
			}
			if perDgram := allocs / burst; perDgram > 0.05 {
				t.Errorf("receiving costs %.3f allocations per datagram (%.0f per %d-datagram burst), want 0", perDgram, allocs, burst)
			}
		})
	}
}
