//go:build !linux || !(amd64 || arm64)

package transport

import (
	"net"
	"net/netip"
	"syscall"
)

// Portable stand-ins for the Linux syscall-batched packet plane. With
// mmsgSupported pinned false, udp.go's batched paths are dead code on
// this platform and every send/receive degrades to the classic
// one-datagram-per-syscall loop with identical observable behavior; the
// stubs below only satisfy the compiler.

const mmsgSupported = false

func mmsgDowngradeError(error) bool { return false }

type mmsgReader struct{}

func newMmsgReader(*net.UDPConn) *mmsgReader { return nil }

func (r *mmsgReader) recv() (int, error)     { return 0, nil }
func (r *mmsgReader) payload(int) []byte     { return nil }
func (r *mmsgReader) src(int) netip.AddrPort { return netip.AddrPort{} }
func (r *mmsgReader) release()               {}

// sendVec carries no state on portable builds; sendScratch embeds it so
// the pooled scratch type is the same shape everywhere.
type sendVec struct{}

func (u *UDP) sendMmsg(syscall.RawConn, *sendScratch, []Datagram) (sent int, firstErr error, downgrade bool) {
	return 0, nil, true
}

func probeGSO(*net.UDPConn) bool { return false }
