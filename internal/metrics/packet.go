package metrics

import (
	"sync/atomic"
	"time"
)

// PacketCounters instruments the outbound packet plane and its receive
// mirror: how many datagrams actually hit the wire, how many protocol
// messages rode inside them, and how much of the traffic was coalesced into
// shared datagrams. The counters are atomic so the single-threaded protocol
// loop can write them while observers snapshot from any goroutine.
//
// The set quantifies the paper's "lightweight shared infrastructure" claim
// end to end: MessagesOut/DatagramsOut is the coalescing factor, and
// BytesOut counts one UDP/IP header per datagram — the honest version of
// the per-workstation KB/s figures.
type PacketCounters struct {
	// DatagramsOut counts datagrams handed to the transport.
	DatagramsOut atomic.Int64
	// BatchesOut counts datagrams that carried more than one message.
	BatchesOut atomic.Int64
	// MessagesOut counts protocol messages emitted, batched or bare.
	MessagesOut atomic.Int64
	// CoalescedOut counts messages that shared a datagram with at least one
	// other message: the traffic the batch envelope saved a datagram for.
	CoalescedOut atomic.Int64
	// BytesOut counts wire bytes sent, including one UDPOverhead per
	// datagram.
	BytesOut atomic.Int64

	// DatagramsIn, BatchesIn, MessagesIn and BytesIn mirror the receive
	// side, counted by the host when it decodes a datagram.
	DatagramsIn atomic.Int64
	BatchesIn   atomic.Int64
	MessagesIn  atomic.Int64
	BytesIn     atomic.Int64

	// UnknownDropped counts received messages skipped because their wire
	// kind is unknown to this build: forward traffic from newer peers
	// (batch inners skipped individually, bare datagrams dropped whole).
	UnknownDropped atomic.Int64
}

// PacketStats is a point-in-time copy of PacketCounters — the public
// stableleader.PacketStats is this type: how many datagrams crossed the
// wire, how many protocol messages rode inside them, and how much traffic
// the coalescing scheduler merged into shared datagrams.
// MessagesOut/DatagramsOut is the outbound coalescing factor; Bytes count
// one UDP/IP header per datagram. Counters accumulate from service start.
type PacketStats struct {
	// DatagramsOut is the number of datagrams handed to the transport.
	DatagramsOut int64
	// BatchesOut is how many of those carried more than one message.
	BatchesOut int64
	// MessagesOut is the number of protocol messages sent, batched or bare.
	MessagesOut int64
	// CoalescedOut is the number of messages that shared a datagram with
	// at least one other message.
	CoalescedOut int64
	// BytesOut is outbound wire bytes, UDP/IP headers included.
	BytesOut int64

	// DatagramsIn, BatchesIn, MessagesIn and BytesIn mirror the receive
	// side.
	DatagramsIn int64
	BatchesIn   int64
	MessagesIn  int64
	BytesIn     int64

	// UnknownDropped counts received messages skipped because their wire
	// kind is unknown to this build — traffic from newer-versioned peers
	// (batch inners are skipped individually; a bare unknown datagram
	// drops whole). A nonzero value under homogeneous versions indicates
	// garbage or hostile traffic.
	UnknownDropped int64

	// RecvSyscalls and SendSyscalls count the kernel crossings behind the
	// datagram columns. They are not counters of this set — the transport
	// owns syscall accounting — so Snapshot leaves them zero; the host
	// fills them from the transport when it exposes them (see
	// transport.IOStatser: the UDP transport does, in-process transports
	// report zero). On the syscall-batched packet plane one
	// recvmmsg/sendmmsg crossing carries many datagrams, so the
	// per-syscall ratios run above 1.
	RecvSyscalls int64
	SendSyscalls int64
}

// Delta returns the column-wise difference s - prev: the traffic between
// two snapshots of the same counter set. Interval observers (periodic
// stats logs, rate panels) difference snapshots instead of hand-
// subtracting twelve fields; ratio computations (packets per syscall,
// coalescing factor) apply to a delta exactly as to a cumulative
// snapshot, yielding interval ratios.
func (s PacketStats) Delta(prev PacketStats) PacketStats {
	return PacketStats{
		DatagramsOut: s.DatagramsOut - prev.DatagramsOut,
		BatchesOut:   s.BatchesOut - prev.BatchesOut,
		MessagesOut:  s.MessagesOut - prev.MessagesOut,
		CoalescedOut: s.CoalescedOut - prev.CoalescedOut,
		BytesOut:     s.BytesOut - prev.BytesOut,

		DatagramsIn: s.DatagramsIn - prev.DatagramsIn,
		BatchesIn:   s.BatchesIn - prev.BatchesIn,
		MessagesIn:  s.MessagesIn - prev.MessagesIn,
		BytesIn:     s.BytesIn - prev.BytesIn,

		UnknownDropped: s.UnknownDropped - prev.UnknownDropped,

		RecvSyscalls: s.RecvSyscalls - prev.RecvSyscalls,
		SendSyscalls: s.SendSyscalls - prev.SendSyscalls,
	}
}

// RecvPacketsPerSyscall reports how many received datagrams each receive
// syscall carried on average — 1 on the classic path, above 1 when
// recvmmsg batching is active. Zero when the transport does not account
// syscalls (or nothing was received).
func (s PacketStats) RecvPacketsPerSyscall() float64 {
	if s.RecvSyscalls == 0 {
		return 0
	}
	return float64(s.DatagramsIn) / float64(s.RecvSyscalls)
}

// SendPacketsPerSyscall is RecvPacketsPerSyscall for the send direction
// (sendmmsg vectors and GSO super-datagrams raise it above 1).
func (s PacketStats) SendPacketsPerSyscall() float64 {
	if s.SendSyscalls == 0 {
		return 0
	}
	return float64(s.DatagramsOut) / float64(s.SendSyscalls)
}

// PacketsPerSyscall aggregates both directions: total datagrams moved
// per kernel crossing. Zero when the transport does not account
// syscalls.
func (s PacketStats) PacketsPerSyscall() float64 {
	calls := s.RecvSyscalls + s.SendSyscalls
	if calls == 0 {
		return 0
	}
	return float64(s.DatagramsIn+s.DatagramsOut) / float64(calls)
}

// PacketRates is a PacketStats delta normalised to per-second rates over
// a measurement interval.
type PacketRates struct {
	DatagramsOutPerSec float64
	MessagesOutPerSec  float64
	BytesOutPerSec     float64
	DatagramsInPerSec  float64
	MessagesInPerSec   float64
	BytesInPerSec      float64
}

// RatesOver converts the snapshot — normally a Delta — into per-second
// rates over elapsed. A non-positive elapsed yields zero rates.
func (s PacketStats) RatesOver(elapsed time.Duration) PacketRates {
	sec := elapsed.Seconds()
	if sec <= 0 {
		return PacketRates{}
	}
	return PacketRates{
		DatagramsOutPerSec: float64(s.DatagramsOut) / sec,
		MessagesOutPerSec:  float64(s.MessagesOut) / sec,
		BytesOutPerSec:     float64(s.BytesOut) / sec,
		DatagramsInPerSec:  float64(s.DatagramsIn) / sec,
		MessagesInPerSec:   float64(s.MessagesIn) / sec,
		BytesInPerSec:      float64(s.BytesIn) / sec,
	}
}

// Snapshot reads every counter. The fields are read individually, so a
// snapshot taken mid-flush may be off by one message between columns; each
// column is itself exact.
func (c *PacketCounters) Snapshot() PacketStats {
	return PacketStats{
		DatagramsOut: c.DatagramsOut.Load(),
		BatchesOut:   c.BatchesOut.Load(),
		MessagesOut:  c.MessagesOut.Load(),
		CoalescedOut: c.CoalescedOut.Load(),
		BytesOut:     c.BytesOut.Load(),
		DatagramsIn:  c.DatagramsIn.Load(),
		BatchesIn:    c.BatchesIn.Load(),
		MessagesIn:   c.MessagesIn.Load(),
		BytesIn:      c.BytesIn.Load(),

		UnknownDropped: c.UnknownDropped.Load(),
	}
}

// CountOut records one outbound datagram carrying msgs messages and bytes
// wire bytes (UDP/IP overhead included).
func (c *PacketCounters) CountOut(msgs int, bytes int) {
	if c == nil {
		return
	}
	c.DatagramsOut.Add(1)
	c.MessagesOut.Add(int64(msgs))
	c.BytesOut.Add(int64(bytes))
	if msgs > 1 {
		c.BatchesOut.Add(1)
		c.CoalescedOut.Add(int64(msgs))
	}
}

// CountUnknown records n received messages skipped for carrying a wire
// kind this build does not know.
func (c *PacketCounters) CountUnknown(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.UnknownDropped.Add(n)
}

// CountInPart records one shard's share of an inbound datagram whose
// messages were steered to several event-loop shards. MessagesIn counts
// every part; the datagram-level columns (DatagramsIn, BytesIn, and
// BatchesIn when the whole datagram carried more than one message) are
// carried by exactly one part, flagged datagram by the steering stage —
// so a datagram split three ways still counts once, while per-shard
// message delivery stays exact.
func (c *PacketCounters) CountInPart(msgs int, bytes int, datagram bool, batch bool) {
	if c == nil {
		return
	}
	c.MessagesIn.Add(int64(msgs))
	if datagram {
		c.DatagramsIn.Add(1)
		c.BytesIn.Add(int64(bytes))
		if batch {
			c.BatchesIn.Add(1)
		}
	}
}
