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
// loop pins a ring of these for its lifetime; the classic loop cycles
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

// sendScratch is the per-SendVector-chunk working state: resolved
// destination addresses, per-entry resolve/routing flags, and the
// platform sendmmsg vector. Pooled because SendVector runs on every
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
}

// UDP is the real-network transport: one or more UDP sockets per process
// plus a static address book mapping process ids to peer addresses,
// mirroring the deployment style of the paper's testbed (a fixed set of
// workstations). With WithReceivers(n) and kernel SO_REUSEPORT support,
// n sockets share the listen address and each runs its own read loop —
// the kernel hashes each peer's flow onto one socket, so per-peer
// ordering is preserved while receive processing (and the service's
// decode + steering stage behind the handler) spreads across cores.
type UDP struct {
	// conns are the bound sockets; conns[0] is the send socket and the
	// address LocalAddr reports. Immutable after construction.
	conns []*net.UDPConn
	// raws[i] is conns[i]'s descriptor handle, fetched once: SyscallConn
	// builds a new one per call, and sendmmsg needs it per syscall.
	raws []syscall.RawConn

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

	// readerDone is closed when every readLoop has returned; Close waits
	// on it so no handler invocation can be in flight once Close has
	// returned.
	readerDone chan struct{}
	readers    sync.WaitGroup

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
	receivers int
	// batchIO is true outside tests; the transport suite clears it to run
	// every shared case on the classic lane as well.
	batchIO bool
	sockBuf int
}

// UDPOption configures a UDP transport at construction (see NewUDP).
type UDPOption func(*udpConfig)

// WithReceivers asks for n parallel receive sockets on the listen address
// (default 1). Values above 1 need kernel SO_REUSEPORT support; where it
// is unavailable (or a socket fails to open) the transport silently falls
// back to fewer sockets — Receivers reports the number actually running.
// More receivers only help a host whose handler scales with concurrent
// delivery, like the sharded service's steered inbound plane.
func WithReceivers(n int) UDPOption {
	return func(c *udpConfig) {
		if n > 0 {
			c.receivers = n
		}
	}
}

// WithSocketBuffers asks the kernel for n-byte receive and send buffers
// on every socket (default: kernel defaults, typically ~208KiB). Larger
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
	cfg := udpConfig{receivers: 1, batchIO: true}
	for _, o := range opts {
		o(&cfg)
	}
	laddr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve listen %q: %w", listen, err)
	}
	conns, err := openSockets(laddr, cfg.receivers)
	if err != nil {
		return nil, err
	}
	if cfg.sockBuf > 0 {
		for _, c := range conns {
			_ = c.SetReadBuffer(cfg.sockBuf)
			_ = c.SetWriteBuffer(cfg.sockBuf)
		}
	}
	raws := make([]syscall.RawConn, len(conns))
	for i, c := range conns {
		raws[i], _ = c.SyscallConn() // nil demotes sends on that socket to plain writes
	}
	u := &UDP{
		conns:      conns,
		raws:       raws,
		family:     sockFamily(conns[0]),
		batch:      cfg.batchIO && mmsgSupported,
		readerDone: make(chan struct{}),
		book:       make(map[id.Process]netip.AddrPort, len(peers)),
		pinned:     make(map[id.Process]bool, len(peers)),
	}
	if u.batch {
		// GSO support is a kernel property; one socket answers for all.
		u.gsoOK = probeGSO(conns[0])
	}
	for p, addr := range peers {
		a, err := resolveAddrPort(addr)
		if err != nil {
			for _, c := range conns {
				_ = c.Close()
			}
			return nil, fmt.Errorf("transport: resolve peer %q=%q: %w", p, addr, err)
		}
		u.book[p] = a
		u.pinned[p] = true
	}
	u.readers.Add(len(u.conns))
	for _, c := range u.conns {
		go u.readLoop(c)
	}
	go func() {
		u.readers.Wait()
		close(u.readerDone)
	}()
	return u, nil
}

// openSockets binds n sockets to laddr. n == 1 is the classic single
// socket; above that every socket (the first included) is opened with
// SO_REUSEPORT so the kernel accepts the shared binding, falling back to
// whatever subset opened — at minimum the plain single socket.
func openSockets(laddr *net.UDPAddr, n int) ([]*net.UDPConn, error) {
	if n <= 1 || !reusePortSupported {
		conn, err := net.ListenUDP("udp", laddr)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %q: %w", laddr, err)
		}
		return []*net.UDPConn{conn}, nil
	}
	first, err := listenReusePort("udp", laddr.String())
	if err != nil {
		// SO_REUSEPORT refused (policy, odd network stack): classic socket.
		conn, perr := net.ListenUDP("udp", laddr)
		if perr != nil {
			return nil, fmt.Errorf("transport: listen %q: %w", laddr, perr)
		}
		return []*net.UDPConn{conn}, nil
	}
	conns := []*net.UDPConn{first}
	// Siblings bind the first socket's RESOLVED address: with ":0" every
	// receiver must share the one ephemeral port the kernel picked.
	actual := first.LocalAddr().String()
	for len(conns) < n {
		c, err := listenReusePort("udp", actual)
		if err != nil {
			break // run with what opened; Receivers reports the truth
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// Receivers reports how many receive sockets are running (see
// WithReceivers).
func (u *UDP) Receivers() int { return len(u.conns) }

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
func (u *UDP) LocalAddr() net.Addr { return u.conns[0].LocalAddr() }

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

// readLoop pumps one socket's datagrams into the handler until the
// socket closes, through the batched recvmmsg path where active and the
// classic one-read-per-datagram path everywhere else. A batched loop
// that discovers the kernel refuses recvmmsg (ENOSYS, seccomp) demotes
// the whole transport and continues classically — no datagram is lost in
// the handoff.
func (u *UDP) readLoop(conn *net.UDPConn) {
	defer u.readers.Done()
	if u.BatchIO() {
		if u.readLoopBatched(conn) {
			return
		}
		u.mmsgDown.Store(true)
	}
	u.readLoopClassic(conn)
}

// readLoopBatched drains up to mmsgRecvBatch datagrams per syscall into
// a pinned buffer ring and delivers each through the handler contract.
// Returns true when the loop is done (socket closed), false to demote to
// the classic loop.
//
//leadervet:hotpath
func (u *UDP) readLoopBatched(conn *net.UDPConn) bool {
	r := newMmsgReader(conn)
	if r == nil {
		return false
	}
	defer r.release()
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
	}
}

// liveHandler snapshots the handler under the lock. Close clears it
// before closing the sockets (and nothing installs one afterwards), so a
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
// payload, per the Receive contract). In multi-receiver mode several
// readLoops run concurrently, which the handler contract has always
// permitted.
//
//leadervet:hotpath
func (u *UDP) readLoopClassic(conn *net.UDPConn) {
	for {
		bp := getPayloadBuf()
		n, src, err := conn.ReadFromUDPAddrPort(*bp)
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

// Send implements Transport: one write on the first socket. The payload
// is written synchronously and not retained, per the Transport contract.
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
	return u.writeOne(u.conns[0], payload, addr)
}

// sendConn maps a send hint onto one of the sockets (its index), stably: a fixed hint
// per caller (the service passes its shard index) spreads concurrent
// senders across the multi-receiver sockets instead of funneling them
// through one socket's write lock, while keeping each (hint, destination)
// stream on one socket — per-pair send order is preserved.
//
//leadervet:hotpath
func (u *UDP) sendConn(hint int) int {
	if hint <= 0 {
		return 0
	}
	return hint % len(u.conns)
}

// writeOne is the single-datagram write: one syscall, counted.
//
//leadervet:hotpath
func (u *UDP) writeOne(conn *net.UDPConn, payload []byte, addr netip.AddrPort) error {
	_, err := conn.WriteToUDPAddrPort(payload, addr)
	u.io.sendSyscalls.Add(1)
	if err == nil {
		u.io.sendDatagrams.Add(1)
	}
	return err
}

// SendBatch is SendVector on the first send socket.
func (u *UDP) SendBatch(batch []Datagram) (int, error) {
	return u.SendVector(0, batch)
}

// SendVector implements VectorSender on the socket hint selects. Where
// the platform fast path is active a batch of two or more goes out in
// sendmmsg vectors of up to maxSendBatch datagrams (GSO-coalesced where
// profitable); a vector of one, and every vector elsewhere, is exactly
// the writes Send would have performed, same per-entry semantics.
func (u *UDP) SendVector(hint int, batch []Datagram) (int, error) {
	sent := 0
	var firstErr error
	for off := 0; off < len(batch); off += maxSendBatch {
		end := off + maxSendBatch
		if end > len(batch) {
			end = len(batch)
		}
		n, err := u.sendChunk(hint, batch[off:end])
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
func (u *UDP) sendChunk(hint int, batch []Datagram) (int, error) {
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
	sock := u.sendConn(hint)
	conn := u.conns[sock]
	sent, vectored := 0, false
	if len(batch) > 1 && u.BatchIO() {
		n, err, downgrade := u.sendMmsg(u.raws[sock], s, batch)
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
		if err := u.writeOne(conn, batch[i].Payload, s.addrs[i]); err != nil {
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
	var err error
	for _, c := range u.conns {
		// Unblocks each ReadFromUDPAddrPort; its readLoop then exits.
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	<-u.readerDone
	return err
}

var _ Transport = (*UDP)(nil)
var _ SourceAware = (*UDP)(nil)
var _ VectorSender = (*UDP)(nil)
var _ IOStatser = (*UDP)(nil)
