package transport

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"

	"stableleader/id"
)

// maxDatagram bounds received datagrams; service messages are far smaller.
const maxDatagram = 64 * 1024

// maxSendBatch is the sendmmsg vector width: SendBatch transmits at most
// this many datagrams per syscall and chunks longer batches.
const maxSendBatch = 64

// Socket address families, abstracted from syscall constants so the
// portable build carries no syscall dependency.
const (
	famIPv4 = 4
	famIPv6 = 6
)

// maxLearnedPeers bounds the learned (non-pinned) half of the address
// book: a spray of datagrams with unique sender ids must not grow memory
// without bound. At the cap, learning a new id evicts an arbitrary
// learned entry — an evicted-but-live client re-teaches its address with
// its next renewal.
const maxLearnedPeers = 65536

// payloadPool recycles receive buffers across read iterations (and across
// UDP instances). The Receive contract forbids handlers from retaining the
// payload, so a buffer goes back into the pool the moment the handler
// returns: the receive path performs no per-datagram allocation.
var payloadPool = sync.Pool{
	New: func() any {
		b := make([]byte, maxDatagram)
		return &b
	},
}

// getPayloadBuf takes one receive buffer from the pool. The batched read
// loop pins as many of these as its load fills; the classic loop cycles
// one per datagram.
//
//leadervet:acquires
func getPayloadBuf() *[]byte {
	return payloadPool.Get().(*[]byte)
}

// putPayloadBuf returns a receive buffer to the pool.
//
//leadervet:releases bp
func putPayloadBuf(bp *[]byte) {
	payloadPool.Put(bp)
}

// sendScratch is the per-SendBatch-chunk working state: resolved
// destination addresses, per-entry resolve/routing flags, and the
// platform sendmmsg vector. Pooled because SendBatch runs on every
// shard's flush path.
type sendScratch struct {
	addrs  [maxSendBatch]netip.AddrPort
	ok     [maxSendBatch]bool
	direct [maxSendBatch]bool
	vec    sendVec
}

var sendScratchPool = sync.Pool{
	New: func() any { return new(sendScratch) },
}

//leadervet:acquires
func getSendScratch() *sendScratch {
	return sendScratchPool.Get().(*sendScratch)
}

//leadervet:releases s
func putSendScratch(s *sendScratch) {
	sendScratchPool.Put(s)
}

// ioCounters is the transport's syscall-level accounting (see IOStats).
type ioCounters struct {
	recvSyscalls  atomic.Int64
	recvDatagrams atomic.Int64
	sendSyscalls  atomic.Int64
	sendDatagrams atomic.Int64
	gsoBatches    atomic.Int64
	gsoSegments   atomic.Int64
	// recvSlots gauges the batched read loop's filled ring slots.
	recvSlots atomic.Int64
}

// UDP is the real-network transport: one UDP socket per process, read
// by one loop, plus a static address book mapping process ids to peer
// addresses, mirroring the deployment style of the paper's testbed (a
// fixed set of workstations).
type UDP struct {
	// conn is the bound socket, for both directions.
	conn *net.UDPConn
	// raw is conn's descriptor handle, fetched once: SyscallConn builds a
	// new one per call, and sendmmsg needs it per syscall.
	raw syscall.RawConn

	// family is the socket address family (famIPv4/famIPv6), fixed at
	// construction; the raw sendmmsg path encodes sockaddrs for it.
	family int
	// batch is set where the build carries the syscall-batched packet
	// plane (mmsgSupported); mmsgDown latches the runtime downgrade when
	// the kernel or a seccomp policy refuses recvmmsg/sendmmsg, demoting
	// both directions to the classic one-datagram-per-syscall path for the
	// transport's lifetime.
	batch    bool
	mmsgDown atomic.Bool
	// gsoOK records whether the kernel accepts UDP_SEGMENT (probed once
	// at construction).
	gsoOK bool

	// io counts syscalls and datagrams in both directions (see IOStats).
	io ioCounters

	// readerDone is closed when the read loop has returned; Close waits on
	// it so no handler invocation can be in flight once Close has
	// returned.
	readerDone chan struct{}

	mu   sync.RWMutex
	book map[id.Process]netip.AddrPort
	// pinned marks ids whose address was configured (NewUDP peers,
	// SetPeer) rather than learned: LearnPeer must never overwrite them,
	// or one spoofed client-plane datagram naming a member id would
	// redirect that member's protocol traffic to the attacker.
	pinned map[id.Process]bool
	// handler is the one delivery slot: ReceiveFrom installs it, Receive
	// installs a wrapper that drops the source.
	handler func([]byte, netip.AddrPort)
	closed  bool
}

// udpConfig is the result of applying UDPOptions.
type udpConfig struct {
	// batchIO is true outside tests; the transport suite clears it to run
	// every shared case on the classic lane as well.
	batchIO bool
	sockBuf int
}

// UDPOption configures a UDP transport at construction (see NewUDP).
type UDPOption func(*udpConfig)

// WithSocketBuffers asks the kernel for n-byte receive and send buffers
// on the socket (default: kernel defaults, typically ~208KiB). Larger
// buffers absorb the bursts the batched packet plane produces — a single
// sendmmsg vector can land dozens of datagrams on a receiver between two
// of its scheduler slots, and a default-sized buffer drops the overflow.
// Best effort: the kernel clamps to net.core.{r,w}mem_max, and a refusal
// is ignored.
func WithSocketBuffers(n int) UDPOption {
	return func(c *udpConfig) {
		if n > 0 {
			c.sockBuf = n
		}
	}
}

// NewUDP opens a socket on listen (e.g. ":7400" or "10.0.0.3:7400") and
// resolves the peer address book, e.g. {"b": "10.0.0.4:7400"}.
func NewUDP(listen string, peers map[id.Process]string, opts ...UDPOption) (*UDP, error) {
	cfg := udpConfig{batchIO: true}
	for _, o := range opts {
		o(&cfg)
	}
	laddr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve listen %q: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", laddr, err)
	}
	if cfg.sockBuf > 0 {
		_ = conn.SetReadBuffer(cfg.sockBuf)
		_ = conn.SetWriteBuffer(cfg.sockBuf)
	}
	u := &UDP{
		conn:       conn,
		family:     sockFamily(conn),
		batch:      cfg.batchIO && mmsgSupported,
		readerDone: make(chan struct{}),
		book:       make(map[id.Process]netip.AddrPort, len(peers)),
		pinned:     make(map[id.Process]bool, len(peers)),
	}
	u.raw, _ = conn.SyscallConn() // nil demotes sends to plain writes
	if u.batch {
		u.gsoOK = probeGSO(conn)
	}
	for p, addr := range peers {
		a, err := resolveAddrPort(addr)
		if err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("transport: resolve peer %q=%q: %w", p, addr, err)
		}
		u.book[p] = a
		u.pinned[p] = true
	}
	go u.readLoop()
	return u, nil
}

// resolveAddrPort resolves a host:port (names included) to a socket
// address value. Storing netip.AddrPort instead of *net.UDPAddr keeps the
// send path free of per-datagram sockaddr allocations.
func resolveAddrPort(addr string) (netip.AddrPort, error) {
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	ap := a.AddrPort()
	// Unmap 4-in-6 forms (net.IP stores IPv4 in 16 bytes): an AF_INET
	// socket rejects ::ffff:a.b.c.d destinations.
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), nil
}

// LocalAddr returns the bound socket address.
func (u *UDP) LocalAddr() net.Addr { return u.conn.LocalAddr() }

// SetPeer adds or updates one peer address. Addresses set this way are
// configuration: they are pinned against LearnPeer overwrites.
func (u *UDP) SetPeer(p id.Process, addr string) error {
	a, err := resolveAddrPort(addr)
	if err != nil {
		return fmt.Errorf("transport: resolve peer %q=%q: %w", p, addr, err)
	}
	u.mu.Lock()
	u.book[p] = a
	u.pinned[p] = true
	u.mu.Unlock()
	return nil
}

// sockFamily detects the bound socket's address family. Wildcard and
// IPv6 binds (the stdlib default) are AF_INET6; only an explicit IPv4
// listen address yields an AF_INET socket.
func sockFamily(conn *net.UDPConn) int {
	if a, ok := conn.LocalAddr().(*net.UDPAddr); ok && a.IP.To4() != nil {
		return famIPv4
	}
	return famIPv6
}

// BatchIO reports whether the syscall-batched packet plane (recvmmsg/
// sendmmsg with optional UDP GSO) is live: true where the build carries
// it, false after a runtime downgrade.
//
//leadervet:hotpath
func (u *UDP) BatchIO() bool {
	return mmsgSupported && u.batch && !u.mmsgDown.Load()
}

// IOStats implements IOStatser.
func (u *UDP) IOStats() IOStats {
	return IOStats{
		RecvSyscalls:  u.io.recvSyscalls.Load(),
		RecvDatagrams: u.io.recvDatagrams.Load(),
		SendSyscalls:  u.io.sendSyscalls.Load(),
		SendDatagrams: u.io.sendDatagrams.Load(),
		GSOBatches:    u.io.gsoBatches.Load(),
		GSOSegments:   u.io.gsoSegments.Load(),
	}
}

// readLoop pumps the socket's datagrams into the handler until the
// socket closes, through the batched recvmmsg path where active and the
// classic one-read-per-datagram path everywhere else. A batched loop
// that discovers the kernel refuses recvmmsg (ENOSYS, seccomp) demotes
// the whole transport and continues classically — no datagram is lost in
// the handoff.
func (u *UDP) readLoop() {
	defer close(u.readerDone)
	if u.BatchIO() {
		if u.readLoopBatched() {
			return
		}
		u.mmsgDown.Store(true)
	}
	u.readLoopClassic()
}

// readLoopBatched drains up to mmsgRecvBatch datagrams per syscall into
// a load-sized buffer ring and delivers each through the handler contract.
// Returns true when the loop is done (socket closed), false to demote to
// the classic loop.
//
//leadervet:hotpath
func (u *UDP) readLoopBatched() bool {
	r := newMmsgReader(u.conn, &u.io.recvSlots)
	if r == nil {
		return false
	}
	defer r.resize(0)
	for {
		n, err := r.recv()
		if err != nil {
			// The poller's error (socket closed) ends the loop; a refused
			// syscall demotes the transport.
			return !mmsgDowngradeError(err)
		}
		if n == 0 {
			continue
		}
		u.io.recvSyscalls.Add(1)
		u.io.recvDatagrams.Add(int64(n))
		// Exactly like the classic loop: a burst that raced the shutdown is
		// dropped rather than delivered (the next recv then reports the
		// closed socket).
		if h := u.liveHandler(); h != nil {
			for i := 0; i < n; i++ {
				h(r.payload(i), r.src(i))
			}
		}
		r.fit(n)
	}
}

// liveHandler snapshots the handler under the lock. Close clears it
// before closing the socket (and nothing installs one afterwards), so a
// datagram that raced the shutdown finds nil here and is dropped rather
// than delivered.
func (u *UDP) liveHandler() func([]byte, netip.AddrPort) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.handler
}

// readLoopClassic reads one datagram per syscall into a pooled buffer,
// hands it to the handler, and returns it to the pool — zero copies and
// zero allocations per datagram (the handler must not retain the
// payload, per the Receive contract).
//
//leadervet:hotpath
func (u *UDP) readLoopClassic() {
	for {
		bp := getPayloadBuf()
		n, src, err := u.conn.ReadFromUDPAddrPort(*bp)
		if err != nil {
			putPayloadBuf(bp)
			return
		}
		u.io.recvSyscalls.Add(1)
		u.io.recvDatagrams.Add(1)
		if h := u.liveHandler(); h != nil {
			h((*bp)[:n], netip.AddrPortFrom(src.Addr().Unmap(), src.Port()))
		}
		putPayloadBuf(bp)
	}
}

// Send implements Transport: one write on the socket. The payload is
// written synchronously and not retained, per the Transport contract.
func (u *UDP) Send(to id.Process, payload []byte) error {
	u.mu.RLock()
	addr, ok := u.book[to]
	closed := u.closed
	u.mu.RUnlock()
	if closed {
		return fmt.Errorf("udp: %w", errClosed)
	}
	if !ok {
		return fmt.Errorf("transport: no address for process %q", to)
	}
	return u.writeOne(payload, addr)
}

// writeOne is the single-datagram write: one syscall, counted.
//
//leadervet:hotpath
func (u *UDP) writeOne(payload []byte, addr netip.AddrPort) error {
	_, err := u.conn.WriteToUDPAddrPort(payload, addr)
	u.io.sendSyscalls.Add(1)
	if err == nil {
		u.io.sendDatagrams.Add(1)
	}
	return err
}

// SendBatch implements VectorSender. Where the platform fast path is
// active a batch of two or more goes out in sendmmsg vectors of up to
// maxSendBatch datagrams (GSO-coalesced where profitable); a batch of
// one, and every batch elsewhere, is exactly the writes Send would have
// performed, same per-entry semantics.
func (u *UDP) SendBatch(batch []Datagram) (int, error) {
	sent := 0
	var firstErr error
	for off := 0; off < len(batch); off += maxSendBatch {
		end := off + maxSendBatch
		if end > len(batch) {
			end = len(batch)
		}
		n, err := u.sendChunk(batch[off:end])
		sent += n
		if firstErr == nil {
			firstErr = err
		}
	}
	return sent, firstErr
}

// sendChunk transmits one ≤ maxSendBatch slice of a batch: resolve every
// destination under one lock acquisition, vector the resolvable entries
// through sendmmsg when active, and sweep the leftovers (unroutable by
// the raw path, or everything after a downgrade) through single writes.
// Entries to one destination never change lanes, so per-destination
// index order holds.
//
//leadervet:hotpath
func (u *UDP) sendChunk(batch []Datagram) (int, error) {
	s := getSendScratch()
	defer putSendScratch(s)
	u.mu.RLock()
	closed := u.closed
	if !closed {
		for i := range batch {
			s.addrs[i], s.ok[i] = u.book[batch[i].To]
		}
	}
	u.mu.RUnlock()
	if closed {
		return 0, fmt.Errorf("udp: %w", errClosed) //leadervet:ignore — the transport is closed: nothing is hot any more
	}
	var firstErr error
	for i := range batch {
		if !s.ok[i] {
			s.direct[i] = false
			if firstErr == nil {
				firstErr = fmt.Errorf("transport: no address for process %q", batch[i].To) //leadervet:ignore — an unroutable id is a configuration error, reported once per chunk
			}
			continue
		}
		s.direct[i] = u.needsDirect(s.addrs[i])
	}
	sent, vectored := 0, false
	if len(batch) > 1 && u.BatchIO() {
		n, err, downgrade := u.sendMmsg(s, batch)
		if downgrade {
			// The kernel (or a seccomp policy) refuses sendmmsg: demote the
			// transport for good — nothing of this chunk has hit the wire
			// yet, so all of it takes the single writes below.
			u.mmsgDown.Store(true)
		} else {
			sent, vectored = n, true
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	// Single writes: what the vector could not route, or everything when
	// there was no vector.
	for i := range batch {
		if !s.ok[i] || (vectored && !s.direct[i]) {
			continue
		}
		if err := u.writeOne(batch[i].Payload, s.addrs[i]); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sent++
	}
	return sent, firstErr
}

// needsDirect reports whether addr cannot ride the raw sendmmsg vector
// and must take the stdlib write path instead: zoned IPv6 (the raw
// sockaddr builder does not carry scope ids) or an address family the
// socket's raw encoding cannot express.
//
//leadervet:hotpath
func (u *UDP) needsDirect(addr netip.AddrPort) bool {
	if !mmsgSupported {
		return true
	}
	a := addr.Addr()
	if a.Zone() != "" {
		return true
	}
	return u.family == famIPv4 && !a.Is4() && !a.Is4In6()
}

// Receive implements Transport: ReceiveFrom with the source dropped.
func (u *UDP) Receive(h func(payload []byte)) {
	u.ReceiveFrom(func(payload []byte, _ netip.AddrPort) { h(payload) })
}

// ReceiveFrom implements SourceAware: like Receive, with the datagram's
// source address alongside — what the client plane's address learning
// feeds on. Installing it after Close is a no-op.
func (u *UDP) ReceiveFrom(h func(payload []byte, src netip.AddrPort)) {
	u.mu.Lock()
	if !u.closed {
		u.handler = h
	}
	u.mu.Unlock()
}

// LearnPeer implements SourceAware: it adds or refreshes one peer
// address — unless the id's address is pinned configuration (NewUDP
// peers, SetPeer), which learning must never override: otherwise one
// spoofed datagram claiming a member's id would hijack that member's
// traffic. The common case — the address is already known and unchanged —
// takes only the read lock, so per-datagram learning stays cheap.
func (u *UDP) LearnPeer(p id.Process, addr netip.AddrPort) {
	u.mu.RLock()
	cur, ok := u.book[p]
	pinned := u.pinned[p]
	u.mu.RUnlock()
	if pinned || (ok && cur == addr) {
		return
	}
	u.mu.Lock()
	if !u.pinned[p] {
		if _, exists := u.book[p]; !exists && len(u.book)-len(u.pinned) >= maxLearnedPeers {
			// At capacity: evict an arbitrary learned entry to stay
			// bounded (map iteration order; pinned entries are immune).
			for q := range u.book {
				if !u.pinned[q] {
					delete(u.book, q)
					break
				}
			}
		}
		u.book[p] = addr
	}
	u.mu.Unlock()
}

// Close implements Transport. It returns only after the read loop has
// exited, so no handler invocation survives (or starts after) Close —
// which also means Close must never be called from the handler itself
// (see the Transport.Close contract).
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		<-u.readerDone
		return nil
	}
	u.closed = true
	u.handler = nil
	u.mu.Unlock()
	// Unblocks the read loop's syscall; the loop then exits.
	err := u.conn.Close()
	<-u.readerDone
	return err
}

var _ Transport = (*UDP)(nil)
var _ SourceAware = (*UDP)(nil)
var _ VectorSender = (*UDP)(nil)
var _ IOStatser = (*UDP)(nil)
