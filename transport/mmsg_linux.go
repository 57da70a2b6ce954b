//go:build linux && (amd64 || arm64)

package transport

import (
	"errors"
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// This file is the Linux fast path of the syscall-batched packet plane:
// recvmmsg(2) drains up to mmsgRecvBatch datagrams per kernel crossing
// into a pinned ring of pooled buffers, sendmmsg(2) ships a whole vector
// of datagrams per crossing, and UDP_SEGMENT (GSO) lets the kernel
// segment a run of equal-size datagrams to one destination out of a
// single super-datagram. Everything here is reached only through the
// build-tag seam (mmsgSupported) and the runtime downgrade ladder in
// udp.go: a kernel or seccomp policy that refuses the syscalls (ENOSYS,
// EPERM, EOPNOTSUPP) demotes the transport to the portable
// one-datagram-per-syscall path with identical observable behavior.

// mmsgSupported gates the batched I/O paths at build time; the portable
// build (mmsg_other.go) pins it false and the stubs unreachable.
const mmsgSupported = true

// mmsgRecvBatch is the receive vector width: how many datagrams one
// recvmmsg may drain. 32 amortizes the syscall to noise under load while
// keeping the pinned buffer ring (32 × 64 KiB per receive socket) modest.
const mmsgRecvBatch = 32

// GSO limits: a super-datagram coalesces at most gsoMaxSegs equal-size
// payloads (the kernel caps UDP_MAX_SEGMENTS at 64) and the staging
// buffer bounds the copied bytes per vector.
const (
	gsoMaxSegs = 32
	gsoBufCap  = 32 * 1024
)

// solUDP/udpSegment are SOL_UDP and UDP_SEGMENT from uapi linux/udp.h
// (Linux ≥ 4.18); the stdlib syscall package predates UDP GSO.
const (
	solUDP     = 17
	udpSegment = 103
)

// mmsghdr mirrors struct mmsghdr on 64-bit Linux: one msghdr plus the
// kernel-written datagram length, padded to 8-byte alignment.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// recvmmsgRaw and sendmmsgRaw are the raw syscalls. The fn indirections
// exist for the fallback-ladder tests, which swap in stubs that return
// ENOSYS or transmit partial vectors.
func recvmmsgRaw(fd uintptr, hdrs []mmsghdr, flags int) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&hdrs[0])), uintptr(len(hdrs)),
		uintptr(flags), 0, 0)
	return int(n), errno
}

func sendmmsgRaw(fd uintptr, hdrs []mmsghdr, flags int) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&hdrs[0])), uintptr(len(hdrs)),
		uintptr(flags), 0, 0)
	return int(n), errno
}

var (
	recvmmsgFn = recvmmsgRaw
	sendmmsgFn = sendmmsgRaw
)

// mmsgDowngradeErrno classifies errnos that mean "this kernel or policy
// will never serve the batched syscalls": the transport demotes itself
// to the portable path instead of erroring every datagram.
func mmsgDowngradeErrno(errno syscall.Errno) bool {
	return errno == syscall.ENOSYS || errno == syscall.EPERM || errno == syscall.EOPNOTSUPP
}

// mmsgDowngradeError is mmsgDowngradeErrno over wrapped errors.
func mmsgDowngradeError(err error) bool {
	var errno syscall.Errno
	return errors.As(err, &errno) && mmsgDowngradeErrno(errno)
}

// sockaddrBuf is raw storage for one socket address, sized for the
// larger (IPv6) form; IPv4 uses a prefix of it.
const sockaddrBufLen = syscall.SizeofSockaddrInet6

type sockaddrBuf [sockaddrBufLen]byte

// putSockaddr encodes ap into b for the given socket family and returns
// the sockaddr length. An AF_INET6 socket takes any address in mapped
// form (As16 yields ::ffff:a.b.c.d for IPv4); AF_INET callers guarantee
// a 4-byte-representable address (udp.go routes mismatches and zoned
// addresses through the portable write path instead).
func putSockaddr(b *sockaddrBuf, family int, ap netip.AddrPort) uint32 {
	port := ap.Port()
	b[2] = byte(port >> 8) // sin_port/sin6_port is network order
	b[3] = byte(port)
	if family == famIPv4 {
		*(*uint16)(unsafe.Pointer(&b[0])) = syscall.AF_INET
		a4 := ap.Addr().As4()
		copy(b[4:8], a4[:])
		return syscall.SizeofSockaddrInet4
	}
	*(*uint16)(unsafe.Pointer(&b[0])) = syscall.AF_INET6
	for i := 4; i < 8; i++ { // flowinfo
		b[i] = 0
	}
	a16 := ap.Addr().As16()
	copy(b[8:24], a16[:])
	for i := 24; i < 28; i++ { // scope id; zoned addrs never reach here
		b[i] = 0
	}
	return syscall.SizeofSockaddrInet6
}

// sockaddrToAddrPort decodes a kernel-written source address. Unknown
// families yield the zero AddrPort, exactly like the stdlib read path
// would never produce them.
func sockaddrToAddrPort(b *sockaddrBuf) netip.AddrPort {
	family := *(*uint16)(unsafe.Pointer(&b[0]))
	port := uint16(b[2])<<8 | uint16(b[3])
	switch family {
	case syscall.AF_INET:
		var a4 [4]byte
		copy(a4[:], b[4:8])
		return netip.AddrPortFrom(netip.AddrFrom4(a4), port)
	case syscall.AF_INET6:
		var a16 [16]byte
		copy(a16[:], b[8:24])
		// Unmap 4-in-6 sources so address learning and the book agree on
		// one canonical form, matching the classic read loop.
		return netip.AddrPortFrom(netip.AddrFrom16(a16).Unmap(), port)
	}
	return netip.AddrPort{}
}

// mmsgReader is one read loop's recvmmsg state: a ring of pooled payload
// buffers pinned for the loop's lifetime, with the iovec/msghdr vectors
// pointing into them. The ring is reused in place across syscalls — the
// Receive handler contract (payload not retained after return) is what
// makes that safe, exactly as it makes the classic loop's single pooled
// buffer safe.
type mmsgReader struct {
	rc    syscall.RawConn
	bufs  [mmsgRecvBatch]*[]byte
	iovs  [mmsgRecvBatch]syscall.Iovec
	names [mmsgRecvBatch]sockaddrBuf
	hdrs  [mmsgRecvBatch]mmsghdr

	// call is r.recvmmsg bound once, and n/errno are where it leaves the
	// syscall's results: a closure built per rc.Read, with captured
	// results, would escape to the heap on every syscall.
	call  func(fd uintptr) bool
	n     int
	errno syscall.Errno
}

// newMmsgReader builds the ring for one socket; nil when the socket
// cannot expose its descriptor (the caller then runs the classic loop).
func newMmsgReader(conn *net.UDPConn) *mmsgReader {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	r := &mmsgReader{rc: rc}
	r.call = r.recvmmsg
	for i := range r.hdrs {
		bp := getPayloadBuf()
		r.bufs[i] = bp //leadervet:handoff — ring slot owns the buffer until release()
		r.iovs[i].Base = &(*bp)[0]
		r.iovs[i].SetLen(len(*bp))
		h := &r.hdrs[i].hdr
		h.Name = &r.names[i][0]
		h.Iov = &r.iovs[i]
		h.Iovlen = 1
	}
	return r
}

// recv blocks on the netpoller until the socket is readable, then drains
// up to mmsgRecvBatch datagrams in one syscall. It returns the datagram
// count; the error is the poller's (socket closed) or a raw errno, which
// the caller classifies for the downgrade ladder.
//
//leadervet:hotpath
func (r *mmsgReader) recv() (int, error) {
	for i := range r.hdrs {
		// Restore the fields the kernel overwrites per call.
		r.hdrs[i].hdr.Namelen = sockaddrBufLen
		r.hdrs[i].hdr.Flags = 0
		r.hdrs[i].n = 0
	}
	for {
		if err := r.rc.Read(r.call); err != nil {
			return 0, err
		}
		if r.errno == syscall.EINTR {
			continue
		}
		if r.errno != 0 {
			return 0, r.errno //leadervet:ignore — boxes the errno once, on the error that ends or demotes the loop
		}
		return r.n, nil
	}
}

// recvmmsg is the netpoller callback of recv: one non-blocking syscall,
// false (wait for readability, call again) when the socket is empty.
//
//leadervet:hotpath
func (r *mmsgReader) recvmmsg(fd uintptr) bool {
	r.n, r.errno = recvmmsgFn(fd, r.hdrs[:], syscall.MSG_DONTWAIT)
	return r.errno != syscall.EAGAIN
}

// payload returns the i-th received datagram's bytes, valid until the
// next recv.
//
//leadervet:hotpath
func (r *mmsgReader) payload(i int) []byte {
	return (*r.bufs[i])[:r.hdrs[i].n]
}

// src returns the i-th received datagram's source address.
//
//leadervet:hotpath
func (r *mmsgReader) src(i int) netip.AddrPort {
	return sockaddrToAddrPort(&r.names[i])
}

// release returns the ring's buffers to the payload pool when the loop
// ends (socket closed or downgrade).
func (r *mmsgReader) release() {
	for i, bp := range r.bufs {
		if bp != nil {
			putPayloadBuf(bp)
			r.bufs[i] = nil
		}
	}
}

// sendVec is the per-call sendmmsg scratch inside a pooled sendScratch:
// iovec/msghdr vectors, raw sockaddrs, per-header segment counts, cmsg
// space for UDP_SEGMENT, and the GSO staging buffer.
type sendVec struct {
	iovs  [maxSendBatch]syscall.Iovec
	names [maxSendBatch]sockaddrBuf
	hdrs  [maxSendBatch]mmsghdr
	segs  [maxSendBatch]int32
	ctrl  [maxSendBatch][32]byte
	gso   [gsoBufCap]byte

	// call is v.sendmmsg, bound the first time a pooled scratch is used; it
	// sends hdrs[off:n] and leaves the syscall's results in k/errno — like
	// mmsgReader, so that a syscall allocates nothing.
	call   func(fd uintptr) bool
	off, n int
	k      int
	errno  syscall.Errno
}

// sendmmsg is the netpoller callback of sendMmsg: one non-blocking
// syscall over the unsent headers, false (wait for writability, call
// again) when the socket buffer is full.
//
//leadervet:hotpath
func (v *sendVec) sendmmsg(fd uintptr) bool {
	v.k, v.errno = sendmmsgFn(fd, v.hdrs[v.off:v.n], syscall.MSG_DONTWAIT)
	return v.errno != syscall.EAGAIN
}

// putGsoCmsg writes one UDP_SEGMENT cmsg announcing seg-byte segments
// and returns the control length for the msghdr.
func putGsoCmsg(b *[32]byte, seg uint16) uint64 {
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&b[0]))
	h.Level = solUDP
	h.Type = udpSegment
	h.SetLen(syscall.CmsgLen(2))
	*(*uint16)(unsafe.Pointer(&b[syscall.CmsgLen(0)])) = seg
	return uint64(syscall.CmsgSpace(2))
}

// build fills the vector from the resolved entries of batch (s.ok set,
// s.direct clear), coalescing GSO runs when gso is true: consecutive
// entries to one destination whose payloads all match the first one's
// size (a shorter one may close the run) become a single super-datagram
// the kernel segments back into the identical wire datagrams. Returns
// the header count; v.segs[i] records how many wire datagrams header i
// carries.
//
//leadervet:hotpath
func (v *sendVec) build(family int, s *sendScratch, batch []Datagram, gso bool) int {
	n := 0
	gsoOff := 0
	i := 0
	for i < len(batch) {
		if !s.ok[i] || s.direct[i] {
			i++
			continue
		}
		seg := len(batch[i].Payload)
		run := 1
		if gso && seg > 0 {
			for i+run < len(batch) && run < gsoMaxSegs &&
				s.ok[i+run] && !s.direct[i+run] && s.addrs[i+run] == s.addrs[i] {
				l := len(batch[i+run].Payload)
				if l > seg || l == 0 || gsoOff+seg*run+l > gsoBufCap {
					break
				}
				run++
				if l < seg {
					break // a shorter payload must be the super-datagram's tail
				}
			}
		}
		h := &v.hdrs[n]
		hdr := &h.hdr
		hdr.Name = &v.names[n][0]
		hdr.Namelen = putSockaddr(&v.names[n], family, s.addrs[i])
		hdr.Iov = &v.iovs[n]
		hdr.Iovlen = 1
		hdr.Control = nil
		hdr.Controllen = 0
		hdr.Flags = 0
		h.n = 0
		if run == 1 {
			if seg == 0 {
				v.iovs[n].Base = nil
				v.iovs[n].SetLen(0)
			} else {
				v.iovs[n].Base = &batch[i].Payload[0]
				v.iovs[n].SetLen(seg)
			}
		} else {
			base := gsoOff
			for j := 0; j < run; j++ {
				gsoOff += copy(v.gso[gsoOff:], batch[i+j].Payload)
			}
			v.iovs[n].Base = &v.gso[base]
			v.iovs[n].SetLen(gsoOff - base)
			hdr.Control = &v.ctrl[n][0]
			hdr.Controllen = putGsoCmsg(&v.ctrl[n], uint16(seg))
		}
		v.segs[n] = int32(run)
		n++
		i += run
	}
	return n
}

// sendMmsg transmits every resolved, non-direct entry of batch through
// sendmmsg on the socket behind rc. A partial transmission (the kernel accepts k < n
// headers) retries the remainder — never drops it. A per-header errno
// (e.g. ECONNREFUSED bounced from an earlier ICMP) skips that header
// only, matching Send's independent best-effort contract. downgrade is
// true when the very first syscall says the kernel will never serve
// sendmmsg; the caller then demotes the transport and resends the whole
// chunk through the portable path (nothing has hit the wire yet).
//
//leadervet:hotpath
func (u *UDP) sendMmsg(rc syscall.RawConn, s *sendScratch, batch []Datagram) (sent int, firstErr error, downgrade bool) {
	if rc == nil {
		return 0, nil, true
	}
	v := &s.vec
	v.n = v.build(u.family, s, batch, u.gsoOK)
	if v.n == 0 {
		return 0, nil, false
	}
	if v.call == nil {
		v.call = v.sendmmsg
	}
	v.off = 0
	for v.off < v.n {
		if werr := rc.Write(v.call); werr != nil {
			// The socket died under us (Close racing a send): report, stop.
			if firstErr == nil {
				firstErr = werr
			}
			break
		}
		if v.k > 0 {
			u.io.sendSyscalls.Add(1)
			for i := v.off; i < v.off+v.k; i++ {
				segs := int(v.segs[i])
				sent += segs
				if segs > 1 {
					u.io.gsoBatches.Add(1)
					u.io.gsoSegments.Add(int64(segs))
				}
			}
			v.off += v.k
			continue
		}
		if v.errno != 0 {
			if mmsgDowngradeErrno(v.errno) && v.off == 0 && sent == 0 {
				return 0, nil, true
			}
			u.io.sendSyscalls.Add(1)
			if firstErr == nil {
				firstErr = v.errno //leadervet:ignore — boxes the errno of a failed header, not of a sent one
			}
			v.off++ // this header's datagram(s) failed; the rest still go
			continue
		}
		break // k == 0 with no errno: never observed; avoid spinning
	}
	u.io.sendDatagrams.Add(int64(sent))
	return sent, firstErr, false
}

// probeGSO reports whether the kernel accepts UDP_SEGMENT on this socket
// (Linux ≥ 4.18): setting segment size 0 (GSO off) succeeds exactly when
// the option exists.
func probeGSO(conn *net.UDPConn) bool {
	rc, err := conn.SyscallConn()
	if err != nil {
		return false
	}
	ok := false
	_ = rc.Control(func(fd uintptr) {
		ok = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil
	})
	return ok
}
