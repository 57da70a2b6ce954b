// Package transport carries the service's datagrams between processes.
//
// The service treats transports as unreliable, unordered datagram carriers
// — exactly the assumption of the paper's protocols — so implementations
// never need retries or acknowledgements. Two transports are provided: an
// in-process hub (examples, tests, single-binary clusters) and UDP (real
// deployments). Payloads are opaque: the service encodes its own messages
// (see internal/wire) and identifies senders from the payload itself.
package transport

import (
	"net/netip"

	"stableleader/id"
)

// Transport is one process's attachment to the network.
//
// Payload buffers are reused on both sides of the contract: Send must not
// retain payload after it returns (the service marshals into a pooled
// buffer and reclaims it immediately), and Receive handlers must not
// retain payload after they return (transports read into pooled buffers
// and reuse them for the next datagram). Implementations that need the
// bytes past the call — queueing, delayed delivery — must copy.
type Transport interface {
	// Send transmits payload to the process named to. Best effort: an
	// error means the datagram was certainly not sent; nil means it was
	// handed to the network, which may still lose it. Send must not
	// retain payload after returning, and must be safe for concurrent
	// use — the sharded service calls it from every event-loop shard.
	Send(to id.Process, payload []byte) error
	// Receive installs the delivery callback. The callback may be invoked
	// concurrently and must not retain payload after returning. Receive
	// must be called before any delivery is expected and at most once.
	Receive(h func(payload []byte))
	// Close detaches from the network and stops deliveries. It may block
	// until in-flight handler invocations return, so it must not be
	// called from inside the Receive handler (or from anything the
	// handler is blocked on): that self-deadlocks.
	Close() error
}

// Datagram is one send-ready packet: an opaque payload bound for one
// process. Batch send paths move slices of these so a burst of datagrams
// can cross the kernel boundary in a single syscall (sendmmsg on Linux).
type Datagram struct {
	// To names the destination process (resolved through the transport's
	// address book, like Send).
	To id.Process
	// Payload is the wire bytes. Like Send, the transport must not retain
	// it after the batch call returns.
	Payload []byte
}

// VectorSender is the optional vectored send door: implemented by
// transports that can hand several datagrams to the network in fewer
// syscalls than one per datagram. The service stages each event-loop
// wakeup's sends and flushes them through it in one call; what a batch
// becomes on the wire — sendmmsg, GSO super-datagrams, a plain write for
// a batch of one, a loop of writes where the kernel offers nothing
// better — is the transport's decision alone.
//
// SendBatch attempts every datagram in the batch: each entry is
// independent best effort (exactly as if sent through Send one by one, in
// order), so one unresolvable destination or transient send error skips
// that entry rather than aborting the rest. sent is the number of
// datagrams actually handed to the network; err is the first per-entry
// error, nil when sent == len(batch). A kernel that transmits only a
// prefix of the vector (partial sendmmsg) is retried internally — the
// remainder is never silently dropped. Per-destination payload order is
// preserved: batch[i] and batch[j] to the same destination leave the
// socket in index order. Like Send, it must be safe for concurrent use.
type VectorSender interface {
	SendBatch(batch []Datagram) (sent int, err error)
}

// IOStats counts the syscall-level traffic of a transport: how many
// kernel crossings the packet plane paid and how many datagrams each one
// carried. RecvDatagrams/RecvSyscalls and SendDatagrams/SendSyscalls are
// the packets-per-syscall ratios the batched I/O plane exists to raise
// above 1.
type IOStats struct {
	// RecvSyscalls counts receive syscalls (recvmmsg or single reads).
	RecvSyscalls int64
	// RecvDatagrams counts datagrams those syscalls returned.
	RecvDatagrams int64
	// SendSyscalls counts send syscalls (sendmmsg or single writes).
	SendSyscalls int64
	// SendDatagrams counts datagrams those syscalls transmitted (GSO
	// super-datagrams count once per wire datagram they segment into).
	SendDatagrams int64
	// GSOBatches counts kernel-segmented super-datagrams sent, and
	// GSOSegments the wire datagrams they expanded to.
	GSOBatches  int64
	GSOSegments int64
}

// IOStatser is implemented by transports that account their syscall
// traffic. The service folds these numbers into PacketStats.
type IOStatser interface {
	IOStats() IOStats
}

// SourceAware is implemented by transports that expose each datagram's
// network source and can learn id-to-address mappings from it. The
// service uses it for the remote client plane: clients are a dynamic,
// unbounded population that cannot be preconfigured in a static address
// book, so the service learns each client's address from its SUBSCRIBE
// traffic and answers through the learned mapping.
//
// The in-process transport routes by id natively and does not need this;
// UDP implements it.
type SourceAware interface {
	// ReceiveFrom installs a delivery callback that also receives the
	// datagram's source address. It replaces Receive (same contract:
	// before any delivery, at most one of the two, payload not retained).
	ReceiveFrom(h func(payload []byte, src netip.AddrPort))
	// LearnPeer adds or refreshes the address for process p. Safe for
	// concurrent use; learning an unchanged address is cheap.
	LearnPeer(p id.Process, addr netip.AddrPort)
}
