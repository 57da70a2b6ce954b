package transport

// BenchmarkUDPSaturation measures socket-level receive throughput — the
// figure BENCH.json records and the ≥3x batching claim rests on. Four
// sender goroutines drive SendBatch vectors through one sending
// transport into one receiving transport over real loopback; ns/op is
// per delivered datagram. The mode=batched and mode=classic
// sub-benchmarks run the identical workload with the recvmmsg/sendmmsg/GSO
// plane on and force-disabled, so their ratio isolates what syscall
// batching buys. Packets-per-syscall on both sides is reported as a
// custom metric; on the classic path it is 1.0 by construction.
//
// Run with:
//
//	go test -run=NONE -bench=UDPSaturation -benchmem ./transport
//
// Flow control mirrors BenchmarkUDPReceive: in-flight datagrams are
// capped well under the socket buffers so loopback does not drop, and
// the tail wait is deadline-bounded so a kernel drop cannot hang the
// benchmark.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stableleader/id"
)

func benchmarkUDPSaturation(b *testing.B, opt UDPOption) {
	// Big socket buffers: at saturation a sendmmsg vector lands dozens of
	// datagrams between two receiver scheduler slots, and the default
	// ~208KiB buffer drops the overflow on a loaded host.
	recv, err := NewUDP("127.0.0.1:0", nil, opt, WithSocketBuffers(4<<20))
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	var delivered atomic.Int64
	recv.Receive(func(p []byte) { delivered.Add(1) })

	send, err := NewUDP("127.0.0.1:0", map[id.Process]string{
		"r": recv.LocalAddr().String(),
	}, opt, WithSocketBuffers(4<<20))
	if err != nil {
		b.Fatal(err)
	}
	defer send.Close()

	// Same-size payloads to one destination: the shape of a heartbeat
	// fan-in, and the shape GSO coalesces into super-datagrams. The size
	// is a typical wire.Hello with a few members — the datagrams whose
	// volume saturates a deployment.
	const payloadSize = 256
	const chunk = 32 // one staged send vector
	payload := make([]byte, payloadSize)
	for i := range payload {
		payload[i] = byte(i)
	}

	const producers = 4
	const window = 1024 // in-flight cap: keep loopback from dropping
	var tickets atomic.Int64
	b.ReportAllocs()
	b.SetBytes(payloadSize)
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]Datagram, chunk)
			for i := range batch {
				batch[i] = Datagram{To: "r", Payload: payload}
			}
			// credit compensates for loopback drops: datagrams that will
			// never be delivered must not wedge the flow-control window.
			var credit int64
			for {
				end := tickets.Add(chunk)
				if end-chunk >= int64(b.N) {
					return
				}
				n := chunk
				if left := int64(b.N) - (end - chunk); left < chunk {
					n = int(left)
				}
				stall := time.Now()
				for end-delivered.Load()-credit > window {
					runtime.Gosched()
					if time.Since(stall) > 5*time.Millisecond {
						// No drain in 5ms at saturation: the gap is drops,
						// not backlog. Credit it and keep clocking off the
						// deliveries that do happen.
						credit = end - delivered.Load() - window
						stall = time.Now()
					}
				}
				if _, err := send.SendBatch(batch[:n]); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Drain the in-flight tail; exit once the count stays flat so a
	// dropped datagram costs milliseconds, not a full deadline.
	last, flat := int64(-1), 0
	for delivered.Load() < int64(b.N) && flat < 20 {
		if cur := delivered.Load(); cur == last {
			flat++
		} else {
			last, flat = cur, 0
		}
		time.Sleep(time.Millisecond)
	}
	b.StopTimer()
	if got := delivered.Load(); got < int64(b.N) {
		b.Logf("delivered %d of %d datagrams (kernel drop)", got, b.N)
	}
	if st := recv.IOStats(); st.RecvSyscalls > 0 {
		b.ReportMetric(float64(st.RecvDatagrams)/float64(st.RecvSyscalls), "pkts/recvcall")
	}
	if st := send.IOStats(); st.SendSyscalls > 0 {
		b.ReportMetric(float64(st.SendDatagrams)/float64(st.SendSyscalls), "pkts/sendcall")
	}
}

func BenchmarkUDPSaturation(b *testing.B) {
	for _, mode := range batchModes {
		b.Run(fmt.Sprintf("mode=%s", mode.name), func(b *testing.B) {
			benchmarkUDPSaturation(b, mode.opt)
		})
	}
}

// BenchmarkUDPRecvDrain isolates the receive path — the side the ≥3x
// claim is about. Each round queues a burst in the kernel socket buffers
// with the handler gated shut (the send cost stays outside the timer),
// then times the drain through the read loop: recvmmsg pulling 32
// datagrams per syscall against the classic one-datagram-one-syscall
// loop, identical handler work on both. This is the regime a saturated
// receiver actually lives in — the socket buffer is never empty — and
// unlike BenchmarkUDPSaturation it does not share the CPU budget with a
// loopback sender, so the syscall amortization is visible undiluted.
func benchmarkUDPRecvDrain(b *testing.B, opt UDPOption) {
	recv, err := NewUDP("127.0.0.1:0", nil, opt, WithSocketBuffers(4<<20))
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	var delivered atomic.Int64
	var target atomic.Int64
	target.Store(-1)
	var gate atomic.Value // chan struct{}: open while filling, closed while draining
	var done atomic.Value // chan struct{}: closed by the handler at target
	ch := make(chan struct{})
	close(ch)
	gate.Store(ch)
	done.Store(ch)
	recv.Receive(func(p []byte) {
		<-gate.Load().(chan struct{})
		if delivered.Add(1) == target.Load() {
			close(done.Load().(chan struct{}))
		}
	})

	send, err := NewUDP("127.0.0.1:0", map[id.Process]string{
		"r": recv.LocalAddr().String(),
	}, opt, WithSocketBuffers(4<<20))
	if err != nil {
		b.Fatal(err)
	}
	defer send.Close()

	const payloadSize = 256
	const burst = 4096 // fits the 4MiB socket buffers with skb overhead
	payload := make([]byte, payloadSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	batch := make([]Datagram, 32)
	for i := range batch {
		batch[i] = Datagram{To: "r", Payload: payload}
	}

	b.ReportAllocs()
	b.SetBytes(payloadSize)
	b.ResetTimer()
	var sent int64
	for sent < int64(b.N) {
		k := int64(burst)
		if left := int64(b.N) - sent; left < k {
			k = left
		}
		b.StopTimer()
		hold := make(chan struct{})
		drained := make(chan struct{})
		gate.Store(hold)
		done.Store(drained)
		target.Store(sent + k)
		for q := int64(0); q < k; {
			n := int64(len(batch))
			if k-q < n {
				n = k - q
			}
			if _, err := send.SendBatch(batch[:n]); err != nil {
				b.Fatal(err)
			}
			q += n
		}
		b.StartTimer()
		close(hold)
		select {
		case <-drained:
		case <-time.After(10 * time.Second):
			b.Fatalf("drained %d of %d datagrams", delivered.Load()-sent, k)
		}
		sent += k
	}
	b.StopTimer()
	if st := recv.IOStats(); st.RecvSyscalls > 0 {
		b.ReportMetric(float64(st.RecvDatagrams)/float64(st.RecvSyscalls), "pkts/recvcall")
	}
}

func BenchmarkUDPRecvDrain(b *testing.B) {
	for _, mode := range batchModes {
		b.Run(fmt.Sprintf("mode=%s", mode.name), func(b *testing.B) {
			benchmarkUDPRecvDrain(b, mode.opt)
		})
	}
}
