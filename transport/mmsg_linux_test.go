//go:build linux && (amd64 || arm64)

package transport

// Linux-only coverage of the recvmmsg/sendmmsg fast path itself: vector
// accounting, the runtime downgrade ladder (injected ENOSYS), partial
// sendmmsg retry (injected short vectors), and the GSO lane. The
// injectable syscall fn vars are package globals, so these tests never
// run in parallel with each other.

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"stableleader/id"
)

func TestMmsgSendBatchAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	send, _, rec := newUDPPair(t)
	if !send.BatchIO() {
		t.Fatal("batched plane should be active on this platform")
	}
	// Distinct sizes defeat GSO coalescing, so the header count is exact.
	const n = 12
	batch := make([]Datagram, n)
	for i := range batch {
		batch[i] = Datagram{To: "r", Payload: []byte(fmt.Sprintf("%0*d", i+4, i))}
	}
	sent, err := send.SendBatch(batch)
	if err != nil || sent != n {
		t.Fatalf("SendBatch: sent=%d err=%v", sent, err)
	}
	rec.waitN(t, n, 2*time.Second)
	st := send.IOStats()
	if st.SendDatagrams != n {
		t.Errorf("SendDatagrams = %d, want %d", st.SendDatagrams, n)
	}
	// The whole batch fits one vector; a loaded kernel may still split it,
	// so assert batching happened at all rather than exactly one crossing.
	if st.SendSyscalls >= n {
		t.Errorf("SendSyscalls = %d for %d datagrams: vector not batched", st.SendSyscalls, n)
	}
}

func TestMmsgRecvBatchingUnderBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	recv, err := NewUDP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	var delivered atomic.Int64
	gate := make(chan struct{})
	recv.Receive(func(p []byte) {
		if delivered.Add(1) == 1 {
			// Stall the first delivery until the whole burst is queued in
			// the socket buffer, so the next recvmmsg must drain a batch.
			<-gate
		}
	})
	send, err := NewUDP("127.0.0.1:0", map[id.Process]string{
		"r": recv.LocalAddr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	const n = 200
	payload := make([]byte, 256)
	for i := 0; i < n; i++ {
		if err := send.Send("r", payload); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	// Wait for the drain, tolerating loopback drops: stop once the count
	// has been flat for a while.
	deadline := time.Now().Add(5 * time.Second)
	last, flat := int64(-1), 0
	for delivered.Load() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		if cur := delivered.Load(); cur == last {
			if flat++; flat > 40 {
				break
			}
		} else {
			last, flat = cur, 0
		}
	}
	got := delivered.Load()
	if got < n/2 {
		t.Fatalf("delivered %d of %d (loopback drop too aggressive to judge batching)", got, n)
	}
	st := recv.IOStats()
	if st.RecvSyscalls == 0 {
		t.Fatal("no receive syscalls accounted")
	}
	ratio := float64(st.RecvDatagrams) / float64(st.RecvSyscalls)
	t.Logf("recv %d datagrams in %d syscalls (%.1f packets/syscall)", st.RecvDatagrams, st.RecvSyscalls, ratio)
	if ratio <= 1 {
		t.Errorf("packets per recv syscall = %.2f, want > 1 under a queued burst", ratio)
	}

	// The burst widened the ring. Once the socket is quiet, each call
	// reads one datagram and gives one buffer back, down to the floor.
	if w := recv.io.recvSlots.Load(); w <= 2 {
		t.Errorf("ring holds %d buffers right after a queued burst, want it grown", w)
	}
	for i := 0; i < 2*mmsgRecvBatch; i++ {
		want := delivered.Load() + 1
		if err := send.Send("r", payload); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(2 * time.Second); delivered.Load() < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("quiet datagram %d not delivered", i)
			}
		}
	}
	if w := recv.io.recvSlots.Load(); w != 2 {
		t.Errorf("ring holds %d buffers on a quiet socket, want its floor of 2", w)
	}
}

// TestMmsgIdleRingHeap pins what an idle socket costs: sixteen UDP
// transports that have each read one datagram hold at most four 64 KiB
// buffers apiece in live heap. A ring pinned at full width holds 32.
func TestMmsgIdleRingHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	const socks = 16
	send, err := NewUDP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle frees what the pool's victim cache held
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	var delivered atomic.Int64
	for i := 0; i < socks; i++ {
		recv, err := NewUDP("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer recv.Close()
		recv.Receive(func([]byte) { delivered.Add(1) })
		p := id.Process(fmt.Sprint("r", i))
		if err := send.SetPeer(p, recv.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
		if err := send.Send(p, []byte("one")); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); delivered.Load() < socks; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d datagrams", delivered.Load(), socks)
		}
	}
	grew := liveHeap() - before
	t.Logf("%d idle sockets: live heap +%d KiB", socks, grew/1024)
	if limit := int64(socks * 4 * maxDatagram); grew > limit {
		t.Errorf("%d idle sockets hold %d KiB of live heap, want at most %d KiB", socks, grew/1024, limit/1024)
	}
}

func TestMmsgRuntimeDowngradeENOSYS(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	origRecv, origSend := recvmmsgFn, sendmmsgFn
	t.Cleanup(func() { recvmmsgFn, sendmmsgFn = origRecv, origSend })
	recvmmsgFn = func(fd uintptr, hdrs []mmsghdr, flags int) (int, syscall.Errno) {
		return 0, syscall.ENOSYS
	}
	sendmmsgFn = func(fd uintptr, hdrs []mmsghdr, flags int) (int, syscall.Errno) {
		return 0, syscall.ENOSYS
	}
	send, _, rec := newUDPPair(t)
	batch := []Datagram{
		{To: "r", Payload: []byte("after")},
		{To: "r", Payload: []byte("enosys")},
	}
	sent, err := send.SendBatch(batch)
	if err != nil || sent != 2 {
		t.Fatalf("SendBatch under ENOSYS: sent=%d err=%v (remainder must go the classic way)", sent, err)
	}
	got := rec.waitN(t, 2, 2*time.Second)
	if string(got[0]) != "after" || string(got[1]) != "enosys" {
		t.Errorf("payloads = %q, %q", got[0], got[1])
	}
	if send.BatchIO() {
		t.Error("transport must latch the downgrade after ENOSYS")
	}
	// Downgraded send is one syscall per datagram again.
	st := send.IOStats()
	if st.SendSyscalls != st.SendDatagrams {
		t.Errorf("downgraded stats = %+v, want syscalls == datagrams", st)
	}
}

func TestMmsgPartialSendRetried(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	origSend := sendmmsgFn
	t.Cleanup(func() { sendmmsgFn = origSend })
	var calls atomic.Int64
	// A kernel that accepts at most 2 headers per sendmmsg: the transport
	// must keep calling until the vector drains, never dropping the tail.
	sendmmsgFn = func(fd uintptr, hdrs []mmsghdr, flags int) (int, syscall.Errno) {
		calls.Add(1)
		if len(hdrs) > 2 {
			hdrs = hdrs[:2]
		}
		return origSend(fd, hdrs, flags)
	}
	send, _, rec := newUDPPair(t)
	const n = 7
	batch := make([]Datagram, n)
	for i := range batch {
		// Distinct sizes: no GSO runs, so headers == datagrams.
		batch[i] = Datagram{To: "r", Payload: []byte(fmt.Sprintf("%0*d", i+4, i))}
	}
	sent, err := send.SendBatch(batch)
	if err != nil || sent != n {
		t.Fatalf("partial-kernel SendBatch: sent=%d err=%v", sent, err)
	}
	got := rec.waitN(t, n, 2*time.Second)
	for i := range batch {
		if string(got[i]) != string(batch[i].Payload) {
			t.Errorf("payload[%d] = %q, want %q (retry must preserve order)", i, got[i], batch[i].Payload)
		}
	}
	if c := calls.Load(); c < 4 {
		t.Errorf("sendmmsg called %d times for %d headers capped at 2/call, want ≥ 4", c, n)
	}
}

func TestMmsgGSOCoalescedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	send, _, rec := newUDPPair(t)
	if !send.gsoOK {
		t.Skip("kernel without UDP_SEGMENT")
	}
	// An equal-size run to one destination: one GSO super-datagram on the
	// wire side of the syscall, identical individual datagrams on receive.
	const n = 8
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	batch := make([]Datagram, n)
	for i := range batch {
		batch[i] = Datagram{To: "r", Payload: payload}
	}
	sent, err := send.SendBatch(batch)
	if err != nil || sent != n {
		t.Fatalf("GSO SendBatch: sent=%d err=%v", sent, err)
	}
	got := rec.waitN(t, n, 2*time.Second)
	for i := range got {
		if len(got[i]) != len(payload) {
			t.Fatalf("datagram %d arrived as %d bytes, want %d (kernel must re-segment)", i, len(got[i]), len(payload))
		}
		for j := range got[i] {
			if got[i][j] != payload[j] {
				t.Fatalf("datagram %d corrupted at byte %d", i, j)
			}
		}
	}
	st := send.IOStats()
	if st.GSOBatches == 0 || st.GSOSegments != n {
		t.Errorf("GSO accounting = %+v, want ≥1 batch covering %d segments", st, n)
	}
	if st.SendDatagrams != n {
		t.Errorf("SendDatagrams = %d, want %d (segments count as wire datagrams)", st.SendDatagrams, n)
	}
}

func TestSockaddrRoundTrip(t *testing.T) {
	cases := []netip.AddrPort{
		netip.MustParseAddrPort("127.0.0.1:7400"),
		netip.MustParseAddrPort("[::1]:7400"),
		netip.MustParseAddrPort("10.0.0.3:65535"),
		netip.MustParseAddrPort("[fe80::1]:1"),
	}
	for _, ap := range cases {
		var b sockaddrBuf
		if ap.Addr().Is4() {
			// Encode the v4 case both ways: native AF_INET, and v4-mapped
			// through an AF_INET6 socket.
			putSockaddr(&b, famIPv4, ap)
			if got := sockaddrToAddrPort(&b); got != ap {
				t.Errorf("AF_INET round trip: %v -> %v", ap, got)
			}
		}
		putSockaddr(&b, famIPv6, ap)
		got := sockaddrToAddrPort(&b)
		// The decoder unmaps 4-in-6 sources, so a v4 address comes back in
		// canonical 4-byte form either way.
		if got.Port() != ap.Port() || got.Addr() != ap.Addr().Unmap() {
			t.Errorf("AF_INET6 round trip: %v -> %v", ap, got)
		}
	}
}

func TestMmsgDowngradeErrnoClassification(t *testing.T) {
	for _, errno := range []syscall.Errno{syscall.ENOSYS, syscall.EPERM, syscall.EOPNOTSUPP} {
		if !mmsgDowngradeErrno(errno) {
			t.Errorf("%v must demote the transport", errno)
		}
		if !mmsgDowngradeError(errno) {
			t.Errorf("%v (as error) must demote the transport", errno)
		}
	}
	for _, errno := range []syscall.Errno{syscall.EAGAIN, syscall.ECONNREFUSED, syscall.EINTR} {
		if mmsgDowngradeErrno(errno) {
			t.Errorf("%v is transient and must not demote the transport", errno)
		}
	}
	if mmsgDowngradeError(fmt.Errorf("not an errno")) {
		t.Error("non-errno errors must not demote the transport")
	}
}

// Ensure id is referenced (newUDPPair's map literal lives in another file).
var _ = id.Process("")
