// Package wire defines the protocol messages exchanged by the leader
// election service and a compact binary codec for them.
//
// The same definitions serve two purposes:
//
//   - real transports (UDP, in-process) marshal messages with Marshal and
//     recover them with Unmarshal;
//   - the discrete-event simulator passes message values directly but
//     accounts network traffic byte-exactly through WireSize, which always
//     equals len(Marshal(m)) (a property-based test enforces this).
//
// Six message kinds exist, mirroring the architecture of the paper
// (Figures 1 and 2):
//
//	HELLO   group maintenance gossip (membership table)
//	JOIN    announce group membership (with candidacy flag)
//	LEAVE   announce voluntary departure
//	ALIVE   failure detector heartbeat + election payload
//	ACCUSE  leader accusation (raises the target's accusation time)
//	RATE    QoS feedback: the monitoring side asks the sender to emit
//	        ALIVEs at the interval computed by the FD configurator
//
// A seventh kind, BATCH, is not a protocol message but a transport
// envelope: the outbound packet scheduler coalesces every message bound for
// one peer into a single datagram carrying a Batch. A datagram holding one
// message is emitted bare (today's format), so mixed-version clusters keep
// interoperating on the single-message fast path.
//
// Four further kinds form the client plane — the wire surface non-member
// processes use to consult the election service (the paper's "service"
// reading of leader election):
//
//	SUBSCRIBE        a client asks a service node for leadership snapshots
//	                 of one group under a renewable lease
//	UNSUBSCRIBE      a client withdraws its subscription
//	LEADER_SNAPSHOT  the service's answer: the node's current leader view,
//	                 the granted lease, and a per-group sequence number;
//	                 doubles as the answer to a due renewal and, with the
//	                 tombstone flag, as the "stop asking me" goodbye
//	LEASE_RENEW      a client extends its lease; answered with a snapshot
//	                 only when the client has had none for lease/6
//
// Three further kinds implement warm-standby leadership and planned
// handover (the proactive-failover plane):
//
//	STANDBY         the leader's piggybacked nomination of its warm
//	                standby, riding the coalesced heartbeat stream
//	HANDOVER        the departing (or deposed) leader's urgent grant of
//	                leadership to the standby, so the group re-elects
//	                instantly instead of waiting out failure detection
//	SUCCESSOR_HINT  the client-plane companion: sent just before a
//	                tombstone so subscribed clients re-pin to the
//	                successor without a stale window
//
// One further kind makes the gossip anti-entropy: a round sends each
// target a checksum of the table, and the full table follows only where
// the checksums differ (see TableDigest).
//
//	HELLO_DIGEST    the 8-byte digest of the sender's membership table
//
// One further kind compacts the heartbeats of one datagram: inside a Batch
// envelope, consecutive ALIVEs from one sender lifetime may travel as one
// record that decodes back into the same Alive values (see AliveRun).
//
//	ALIVE_RUN       a run of ALIVEs; empty, the sender's announcement that
//	                it decodes runs
//
// Inside a Batch envelope, message kinds this build does not know are
// skipped (and counted), not treated as corruption: the length prefix makes
// every inner message self-delimiting, so a newer peer can speak a newer
// kind to an older one without poisoning the datagram's remaining traffic.
// Pre-standby peers skip the three kinds above this way, and pre-digest
// peers skip HELLO_DIGEST. Pre-run peers would skip ALIVE_RUN, heartbeats
// included, so a sender codes runs only toward a peer whose current
// incarnation announced that it decodes them.
//
// There is one codec: MarshalAppend into a caller's buffer (Marshal is it
// over a fresh one), and a Decoder that interns strings and recycles
// structs handed back through Release (Unmarshal is a fresh Decoder's).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"stableleader/id"
)

// Kind discriminates the message types on the wire.
type Kind uint8

// Message kinds. Values are part of the wire format and must not change.
const (
	KindHello Kind = iota + 1
	KindJoin
	KindLeave
	KindAlive
	KindAccuse
	KindRate
	KindBatch
	KindSubscribe
	KindUnsubscribe
	KindLeaderSnapshot
	KindLeaseRenew
	KindStandby
	KindHandover
	KindSuccessorHint
	KindHelloDigest
	KindAliveRun
)

// knownKind reports whether k names a message this build can decode (the
// Batch envelope excluded: batches never nest). Unknown kinds inside a
// batch are skipped, not errors — forward compatibility for mixed-version
// deployments.
func knownKind(k Kind) bool {
	return k >= KindHello && k <= KindAliveRun && k != KindBatch
}

// String returns the conventional upper-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "HELLO"
	case KindJoin:
		return "JOIN"
	case KindLeave:
		return "LEAVE"
	case KindAlive:
		return "ALIVE"
	case KindAccuse:
		return "ACCUSE"
	case KindRate:
		return "RATE"
	case KindBatch:
		return "BATCH"
	case KindSubscribe:
		return "SUBSCRIBE"
	case KindUnsubscribe:
		return "UNSUBSCRIBE"
	case KindLeaderSnapshot:
		return "LEADER_SNAPSHOT"
	case KindLeaseRenew:
		return "LEASE_RENEW"
	case KindStandby:
		return "STANDBY"
	case KindHandover:
		return "HANDOVER"
	case KindSuccessorHint:
		return "SUCCESSOR_HINT"
	case KindHelloDigest:
		return "HELLO_DIGEST"
	case KindAliveRun:
		return "ALIVE_RUN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// UDPOverhead is the per-datagram header cost (8 bytes UDP + 20 bytes IPv4)
// added to WireSize when accounting network bandwidth, matching how the
// paper's KB/s figures count traffic on the wire.
const UDPOverhead = 28

// ErrTruncated reports a message that ended before all fields were read.
var ErrTruncated = errors.New("wire: truncated message")

// ErrUnknownKind reports an unrecognized kind byte.
var ErrUnknownKind = errors.New("wire: unknown message kind")

// ErrBadBatch reports a malformed batch envelope: an unsupported version,
// a nested batch, or an inner message whose length prefix disagrees with
// its encoding.
var ErrBadBatch = errors.New("wire: malformed batch")

// Message is implemented by every protocol message.
type Message interface {
	// Kind identifies the concrete type.
	Kind() Kind
	// From is the sending process.
	From() id.Process
	// GroupID is the group the message belongs to.
	GroupID() id.Group
	// WireSize is the exact marshaled length in bytes (headers excluded).
	WireSize() int
}

// MemberInfo is one row of the membership table gossiped in HELLO messages.
type MemberInfo struct {
	ID          id.Process
	Incarnation int64
	Candidate   bool
	Left        bool
}

// Hello carries the sender's full membership table for one group.
type Hello struct {
	Group       id.Group
	Sender      id.Process
	Incarnation int64
	Members     []MemberInfo
}

// HelloDigest is a gossip round's summary of the sender's membership
// table: TableDigest of the rows a Hello from it would carry. A receiver
// whose own digest differs answers with its full Hello.
type HelloDigest struct {
	Group       id.Group
	Sender      id.Process
	Incarnation int64
	Digest      uint64
}

// TableDigest is the membership table's checksum: the sum of a 64-bit
// FNV-1a hash of each row, so it is independent of row order and the same
// on every process and architecture. Equal tables have equal digests; a
// collision between unequal ones only delays their convergence, because
// a full Hello still reconciles them (see the core's reply rule).
func TableDigest(rows []MemberInfo) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var sum uint64
	for _, r := range rows {
		// A row hashes as ID, incarnation (8 bytes, big-endian), flags:
		// the fixed-width tail delimits the ID.
		h := uint64(offset64)
		for i := 0; i < len(r.ID); i++ {
			h = (h ^ uint64(r.ID[i])) * prime64
		}
		for s := 56; s >= 0; s -= 8 {
			h = (h ^ uint64(r.Incarnation)>>s&0xff) * prime64
		}
		sum += (h ^ uint64(rowFlags(r))) * prime64
	}
	return sum
}

// rowFlags packs a member row's two booleans as they travel in a Hello.
func rowFlags(r MemberInfo) byte {
	var flags byte
	if r.Candidate {
		flags |= 1
	}
	if r.Left {
		flags |= 2
	}
	return flags
}

// Join announces that Sender (at Incarnation) joined Group.
type Join struct {
	Group       id.Group
	Sender      id.Process
	Incarnation int64
	Candidate   bool
}

// Leave announces that Sender (at Incarnation) voluntarily left Group.
type Leave struct {
	Group       id.Group
	Sender      id.Process
	Incarnation int64
}

// Alive is the failure-detector heartbeat. It doubles as the election
// payload: accusation time and phase for the Omega-l and Omega-lc
// algorithms, and the sender's local leader for Omega-lc's forwarding stage.
type Alive struct {
	Group       id.Group
	Sender      id.Process
	Incarnation int64
	// Seq numbers heartbeats per (sender, destination, group) stream so the
	// receiver's link estimator can count losses from gaps.
	Seq uint64
	// SendTime is the sender's clock (ns) when the heartbeat was emitted;
	// the receiver derives the NFD-S freshness deadline SendTime+Interval+delta.
	SendTime int64
	// Interval is the sender's current heartbeat interval (ns) toward this
	// destination, so the receiver can time out correctly across rate changes.
	Interval int64
	// AccTime is the sender's accusation time (ns); zero under Omega-id.
	AccTime int64
	// Phase is the sender's competition phase (Omega-l only).
	Phase uint32
	// HasLocalLeader marks the forwarding fields as meaningful (Omega-lc).
	HasLocalLeader bool
	// LocalLeader is the sender's stage-one (local) leader.
	LocalLeader id.Process
	// LocalLeaderAcc is the accusation time the sender knows for LocalLeader.
	LocalLeaderAcc int64
}

// Accuse tells the destination that the sender suspected it and demoted it.
// A valid accusation raises the target's accusation time, preventing a
// demoted leader from flapping back.
type Accuse struct {
	Group       id.Group
	Sender      id.Process
	Incarnation int64
	// TargetIncarnation must match the target's current incarnation.
	TargetIncarnation int64
	// Phase must match the target's current competition phase (Omega-l);
	// accusations provoked by voluntary silence carry a stale phase and are
	// ignored, implementing the paper's stability mechanism.
	Phase uint32
	// At is the accuser's clock when the suspicion fired.
	At int64
}

// Rate asks the destination to send ALIVEs to the sender every Interval
// nanoseconds, as computed by the sender's FD configurator for the link.
type Rate struct {
	Group       id.Group
	Sender      id.Process
	Incarnation int64
	Interval    int64
}

// Subscribe asks the destination service node to register Sender (at
// Incarnation — the client's lifetime, so a restarted client supersedes its
// stale registration) for leadership snapshots of Group under a lease. The
// node answers immediately with a LeaderSnapshot carrying the granted
// lease, then keeps the client fresh with change-driven and periodic
// snapshots until the lease expires unrenewed.
type Subscribe struct {
	Group       id.Group
	Sender      id.Process
	Incarnation int64
	// TTL is the requested lease duration in nanoseconds. The service
	// clamps it to its configured bounds; the granted value rides back in
	// the snapshot's Lease field.
	TTL int64
}

// Unsubscribe withdraws Sender's subscription to Group. Incarnation must
// match the registered lifetime: a stale unsubscribe from before a client
// restart must not tear down the successor's lease.
type Unsubscribe struct {
	Group       id.Group
	Sender      id.Process
	Incarnation int64
}

// LeaderSnapshot is the service's client-bound answer: one node's current
// leadership view of Group. It is sent on subscription, on every local
// leader change, in answer to a renewal that finds the client's last
// snapshot lease/6 old (so a lost change snapshot heals within lease/2),
// and with Tombstone set when the node stops serving the group (graceful
// leave or shutdown) — the signal for clients to fail over.
type LeaderSnapshot struct {
	Group       id.Group
	Sender      id.Process // the service node answering
	Incarnation int64      // the service node's incarnation
	// Seq orders snapshots per (node incarnation, group): a reordered UDP
	// datagram carrying an older view must not overwrite a newer one.
	Seq uint64
	// Elected reports whether the node currently knows a leader; Leader
	// and LeaderIncarnation are meaningful only when it is set.
	Elected           bool
	Leader            id.Process
	LeaderIncarnation int64
	// Tombstone marks a final snapshot: the node no longer serves the
	// group. Elected/Leader are the node's last view, kept so clients can
	// serve it as a stale hint while failing over.
	Tombstone bool
	// At is the service node's clock (ns) when this view was adopted.
	At int64
	// Lease is the granted lease duration in nanoseconds: how long the
	// client may serve this view from cache before it must be considered
	// stale. Zero on tombstones.
	Lease int64
}

// LeaseRenew extends Sender's existing subscription lease on Group — the
// client plane's one periodic exchange. It is answered with a snapshot
// only when the client has had none for lease/6, so a renewal every
// lease/3 doubles as the client's freshness poll. A renew for an unknown
// (expired, superseded) registration is answered like a fresh Subscribe,
// so a client that raced an expiry heals itself.
type LeaseRenew struct {
	Group       id.Group
	Sender      id.Process
	Incarnation int64
	TTL         int64
}

// Standby is the leader's nomination of a warm standby for Group: the
// member it considers the best-placed successor should it depart. It rides
// the coalescing envelope alongside the leader's heartbeats (zero extra
// steady-state datagrams) and is re-announced on change and to newcomers.
// Followers track the nomination but act on it only through a HANDOVER —
// a stale or spoofed nomination cannot move leadership by itself.
type Standby struct {
	Group       id.Group
	Sender      id.Process // the nominating leader
	Incarnation int64
	// Seq orders nominations per (sender incarnation, group): a reordered
	// datagram carrying an older nomination must not overwrite a newer one.
	Seq uint64
	// Standby names the nominated member (empty withdraws the nomination);
	// StandbyInc is the nominee's incarnation.
	Standby    id.Process
	StandbyInc int64
}

// Handover is the planned-handover grant: the departing (graceful leave,
// shutdown) or deposed leader urgently transfers leadership to Successor.
// GrantAcc is the accusation time granted to the successor — strictly
// smaller than every live member's, so the successor wins the (accusation
// time, id) order immediately under Omega-l/Omega-lc. Receivers honour a
// HANDOVER only from their current leader at a matching incarnation: a
// duplicated, reordered or forged grant cannot move leadership.
type Handover struct {
	Group        id.Group
	Sender       id.Process // the granting leader
	Incarnation  int64
	Successor    id.Process
	SuccessorInc int64
	GrantAcc     int64
	// At is the grantor's clock (ns) when the handover was decided.
	At int64
}

// SuccessorHint is the client-plane half of a planned handover: sent to
// each subscriber immediately before the tombstone snapshot, it names the
// member about to assume leadership so clients re-pin to it without a
// stale window. Seq shares the LeaderSnapshot stream's ordering; Lease
// bounds how long the hinted view may be served before the successor's own
// snapshot must take over.
type SuccessorHint struct {
	Group        id.Group
	Sender       id.Process // the service node saying goodbye
	Incarnation  int64
	Seq          uint64
	Successor    id.Process
	SuccessorInc int64
	// At is the service node's clock (ns) when the handover was decided.
	At int64
	// Lease is how long (ns) the hinted view may be served as fresh.
	Lease int64
}

// BatchVersion is the envelope version emitted by this build. Decoders
// reject datagrams with a higher version rather than misparse them.
const BatchVersion = 1

// Batch is the coalescing envelope: one datagram carrying several protocol
// messages bound for the same peer, possibly spanning groups. Its layout is
//
//	kind (KindBatch) | version | count uvarint | (len uvarint | record)*
//
// where a record is one message or, when Runs is set, a run of ALIVEs (see
// AliveRun); count counts records. Batches never nest. All messages in a
// batch come from one sender, so From and GroupID delegate to the first
// message; per-message headers stay authoritative for dispatch.
type Batch struct {
	Msgs []Message
	// Runs codes every two or more consecutive ALIVEs of one sender
	// lifetime as one run record; only for a peer known to decode runs.
	// Decoding never sets it: the messages come back the same either way.
	Runs bool
}

// Interface conformance checks.
var (
	_ Message = (*Hello)(nil)
	_ Message = (*Join)(nil)
	_ Message = (*Leave)(nil)
	_ Message = (*Alive)(nil)
	_ Message = (*Accuse)(nil)
	_ Message = (*Rate)(nil)
	_ Message = (*Batch)(nil)
	_ Message = (*Subscribe)(nil)
	_ Message = (*Unsubscribe)(nil)
	_ Message = (*LeaderSnapshot)(nil)
	_ Message = (*LeaseRenew)(nil)
	_ Message = (*Standby)(nil)
	_ Message = (*Handover)(nil)
	_ Message = (*SuccessorHint)(nil)
	_ Message = (*HelloDigest)(nil)
	_ Message = (*AliveRun)(nil)
)

// Kind implements Message.
func (*Hello) Kind() Kind { return KindHello }

// Kind implements Message.
func (*Join) Kind() Kind { return KindJoin }

// Kind implements Message.
func (*Leave) Kind() Kind { return KindLeave }

// Kind implements Message.
func (*Alive) Kind() Kind { return KindAlive }

// Kind implements Message.
func (*Accuse) Kind() Kind { return KindAccuse }

// Kind implements Message.
func (*Rate) Kind() Kind { return KindRate }

// Kind implements Message.
func (*Batch) Kind() Kind { return KindBatch }

// Kind implements Message.
func (*Subscribe) Kind() Kind { return KindSubscribe }

// Kind implements Message.
func (*Unsubscribe) Kind() Kind { return KindUnsubscribe }

// Kind implements Message.
func (*LeaderSnapshot) Kind() Kind { return KindLeaderSnapshot }

// Kind implements Message.
func (*LeaseRenew) Kind() Kind { return KindLeaseRenew }

// Kind implements Message.
func (*Standby) Kind() Kind { return KindStandby }

// Kind implements Message.
func (*Handover) Kind() Kind { return KindHandover }

// Kind implements Message.
func (*SuccessorHint) Kind() Kind { return KindSuccessorHint }

// Kind implements Message.
func (*HelloDigest) Kind() Kind { return KindHelloDigest }

// From implements Message.
func (m *Hello) From() id.Process { return m.Sender }

// From implements Message.
func (m *Join) From() id.Process { return m.Sender }

// From implements Message.
func (m *Leave) From() id.Process { return m.Sender }

// From implements Message.
func (m *Alive) From() id.Process { return m.Sender }

// From implements Message.
func (m *Accuse) From() id.Process { return m.Sender }

// From implements Message.
func (m *Rate) From() id.Process { return m.Sender }

// From implements Message.
func (m *Subscribe) From() id.Process { return m.Sender }

// From implements Message.
func (m *Unsubscribe) From() id.Process { return m.Sender }

// From implements Message.
func (m *LeaderSnapshot) From() id.Process { return m.Sender }

// From implements Message.
func (m *LeaseRenew) From() id.Process { return m.Sender }

// From implements Message.
func (m *Standby) From() id.Process { return m.Sender }

// From implements Message.
func (m *Handover) From() id.Process { return m.Sender }

// From implements Message.
func (m *SuccessorHint) From() id.Process { return m.Sender }

// From implements Message.
func (m *HelloDigest) From() id.Process { return m.Sender }

// From implements Message: the first inner message's sender.
func (m *Batch) From() id.Process {
	if len(m.Msgs) == 0 {
		return ""
	}
	return m.Msgs[0].From()
}

// GroupID implements Message.
func (m *Hello) GroupID() id.Group { return m.Group }

// GroupID implements Message.
func (m *Join) GroupID() id.Group { return m.Group }

// GroupID implements Message.
func (m *Leave) GroupID() id.Group { return m.Group }

// GroupID implements Message.
func (m *Alive) GroupID() id.Group { return m.Group }

// GroupID implements Message.
func (m *Accuse) GroupID() id.Group { return m.Group }

// GroupID implements Message.
func (m *Rate) GroupID() id.Group { return m.Group }

// GroupID implements Message.
func (m *Subscribe) GroupID() id.Group { return m.Group }

// GroupID implements Message.
func (m *Unsubscribe) GroupID() id.Group { return m.Group }

// GroupID implements Message.
func (m *LeaderSnapshot) GroupID() id.Group { return m.Group }

// GroupID implements Message.
func (m *LeaseRenew) GroupID() id.Group { return m.Group }

// GroupID implements Message.
func (m *Standby) GroupID() id.Group { return m.Group }

// GroupID implements Message.
func (m *Handover) GroupID() id.Group { return m.Group }

// GroupID implements Message.
func (m *SuccessorHint) GroupID() id.Group { return m.Group }

// GroupID implements Message.
func (m *HelloDigest) GroupID() id.Group { return m.Group }

// GroupID implements Message: the first inner message's group. A batch may
// span groups; dispatch reads each inner message's own header.
func (m *Batch) GroupID() id.Group {
	if len(m.Msgs) == 0 {
		return ""
	}
	return m.Msgs[0].GroupID()
}

// strSize is the encoded size of a length-prefixed string.
func strSize(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// headerSize is the encoded size of the fields common to all messages.
func headerSize(g id.Group, s id.Process) int {
	return 1 + strSize(string(g)) + strSize(string(s)) + 8
}

// WireSize implements Message.
func (m *Hello) WireSize() int {
	n := headerSize(m.Group, m.Sender) + uvarintLen(uint64(len(m.Members)))
	for _, mb := range m.Members {
		n += strSize(string(mb.ID)) + 8 + 1
	}
	return n
}

// WireSize implements Message.
func (m *Join) WireSize() int { return headerSize(m.Group, m.Sender) + 1 }

// WireSize implements Message.
func (m *Leave) WireSize() int { return headerSize(m.Group, m.Sender) }

// WireSize implements Message.
func (m *Alive) WireSize() int {
	n := headerSize(m.Group, m.Sender) + uvarintLen(m.Seq) + 8 + 8 + 8 + 4 + 1
	if m.HasLocalLeader {
		n += strSize(string(m.LocalLeader)) + 8
	}
	return n
}

// WireSize implements Message.
func (m *Accuse) WireSize() int { return headerSize(m.Group, m.Sender) + 8 + 4 + 8 }

// WireSize implements Message.
func (m *Rate) WireSize() int { return headerSize(m.Group, m.Sender) + 8 }

// WireSize implements Message.
func (m *Subscribe) WireSize() int { return headerSize(m.Group, m.Sender) + 8 }

// WireSize implements Message.
func (m *Unsubscribe) WireSize() int { return headerSize(m.Group, m.Sender) }

// WireSize implements Message.
func (m *LeaderSnapshot) WireSize() int {
	return headerSize(m.Group, m.Sender) + uvarintLen(m.Seq) + 1 +
		strSize(string(m.Leader)) + 8 + 8 + 8
}

// WireSize implements Message.
func (m *LeaseRenew) WireSize() int { return headerSize(m.Group, m.Sender) + 8 }

// WireSize implements Message.
func (m *Standby) WireSize() int {
	return headerSize(m.Group, m.Sender) + uvarintLen(m.Seq) +
		strSize(string(m.Standby)) + 8
}

// WireSize implements Message.
func (m *Handover) WireSize() int {
	return headerSize(m.Group, m.Sender) + strSize(string(m.Successor)) + 8 + 8 + 8
}

// WireSize implements Message.
func (m *SuccessorHint) WireSize() int {
	return headerSize(m.Group, m.Sender) + uvarintLen(m.Seq) +
		strSize(string(m.Successor)) + 8 + 8 + 8
}

// WireSize implements Message.
func (m *HelloDigest) WireSize() int { return headerSize(m.Group, m.Sender) + 8 }

// WireSize implements Message.
func (m *Batch) WireSize() int {
	records, n := 0, 0
	for i := 0; i < len(m.Msgs); {
		j := m.record(i)
		sz := recordSize(m.Msgs[i:j])
		n += uvarintLen(uint64(sz)) + sz
		records++
		i = j
	}
	return 2 + uvarintLen(uint64(records)) + n // kind + version + count
}

// ItemSize is the number of bytes a message occupies inside a batch
// envelope: its length prefix plus its encoding. The outbound scheduler
// uses it to enforce the datagram size threshold incrementally.
func ItemSize(m Message) int {
	sz := m.WireSize()
	return uvarintLen(uint64(sz)) + sz
}

// BatchOverhead is the fixed envelope cost of a small batch (kind byte,
// version byte, one-byte count): what coalescing adds on top of the
// back-to-back messages themselves.
const BatchOverhead = 3

// writer appends big-endian fields to a byte slice.
type writer struct{ b []byte }

func (w *writer) kind(k Kind)  { w.b = append(w.b, byte(k)) }
func (w *writer) u8(v byte)    { w.b = append(w.b, v) }
func (w *writer) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *writer) i64(v int64)  { w.b = binary.BigEndian.AppendUint64(w.b, uint64(v)) }
func (w *writer) uvarint(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}
func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}
func (w *writer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// reader consumes big-endian fields from a byte slice, latching the first
// error so call sites stay linear. Strings intern through in and message
// structs come from st's freelists.
type reader struct {
	b   []byte
	off int
	err error
	st  *store
	in  *Interner
	// unknown counts inner batch messages skipped for carrying a kind this
	// build does not know — forward traffic, not corruption.
	unknown int
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *reader) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) i64() int64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return int64(v)
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail()
		return ""
	}
	raw := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return r.in.intern(raw)
}

func (r *reader) boolean() bool { return r.u8() != 0 }

// Marshal encodes m into a fresh byte slice.
func Marshal(m Message) []byte {
	return MarshalAppend(make([]byte, 0, m.WireSize()), m)
}

// MarshalAppend encodes m at the end of dst and returns the extended slice.
// Reusing dst across calls makes the send hot path allocation-free.
func MarshalAppend(dst []byte, m Message) []byte {
	if t, ok := m.(*Batch); ok {
		w := writer{b: dst}
		w.kind(KindBatch)
		w.u8(BatchVersion)
		records := 0
		for i := 0; i < len(t.Msgs); i = t.record(i) {
			records++
		}
		w.uvarint(uint64(records))
		for i := 0; i < len(t.Msgs); {
			j := t.record(i)
			if inner := t.Msgs[i]; j == i+1 {
				if inner.Kind() == KindBatch {
					panic("wire: Marshal of a nested Batch")
				}
				w.uvarint(uint64(inner.WireSize()))
				w.b = MarshalAppend(w.b, inner)
			} else {
				w.uvarint(uint64(recordSize(t.Msgs[i:j])))
				w.run(t.Msgs[i:j])
			}
			i = j
		}
		return w.b
	}
	w := writer{b: dst}
	w.kind(m.Kind())
	w.str(string(m.GroupID()))
	w.str(string(m.From()))
	switch t := m.(type) {
	case *Hello:
		w.i64(t.Incarnation)
		w.uvarint(uint64(len(t.Members)))
		for _, mb := range t.Members {
			w.str(string(mb.ID))
			w.i64(mb.Incarnation)
			w.u8(rowFlags(mb))
		}
	case *Join:
		w.i64(t.Incarnation)
		w.boolean(t.Candidate)
	case *Leave:
		w.i64(t.Incarnation)
	case *Alive:
		w.i64(t.Incarnation)
		w.uvarint(t.Seq)
		w.i64(t.SendTime)
		w.i64(t.Interval)
		w.i64(t.AccTime)
		w.u32(t.Phase)
		w.boolean(t.HasLocalLeader)
		if t.HasLocalLeader {
			w.str(string(t.LocalLeader))
			w.i64(t.LocalLeaderAcc)
		}
	case *Accuse:
		w.i64(t.Incarnation)
		w.i64(t.TargetIncarnation)
		w.u32(t.Phase)
		w.i64(t.At)
	case *Rate:
		w.i64(t.Incarnation)
		w.i64(t.Interval)
	case *Subscribe:
		w.i64(t.Incarnation)
		w.i64(t.TTL)
	case *Unsubscribe:
		w.i64(t.Incarnation)
	case *LeaderSnapshot:
		w.i64(t.Incarnation)
		w.uvarint(t.Seq)
		var flags byte
		if t.Elected {
			flags |= 1
		}
		if t.Tombstone {
			flags |= 2
		}
		w.u8(flags)
		w.str(string(t.Leader))
		w.i64(t.LeaderIncarnation)
		w.i64(t.At)
		w.i64(t.Lease)
	case *LeaseRenew:
		w.i64(t.Incarnation)
		w.i64(t.TTL)
	case *Standby:
		w.i64(t.Incarnation)
		w.uvarint(t.Seq)
		w.str(string(t.Standby))
		w.i64(t.StandbyInc)
	case *Handover:
		w.i64(t.Incarnation)
		w.str(string(t.Successor))
		w.i64(t.SuccessorInc)
		w.i64(t.GrantAcc)
		w.i64(t.At)
	case *SuccessorHint:
		w.i64(t.Incarnation)
		w.uvarint(t.Seq)
		w.str(string(t.Successor))
		w.i64(t.SuccessorInc)
		w.i64(t.At)
		w.i64(t.Lease)
	case *HelloDigest:
		w.i64(t.Incarnation)
		w.i64(int64(t.Digest))
	case *AliveRun:
		w.i64(t.Incarnation)
		w.i64(0) // base SendTime
		w.uvarint(0)
	default:
		panic(fmt.Sprintf("wire: Marshal of unknown type %T", m))
	}
	return w.b
}

// Unmarshal decodes one datagram from b — a single message or a Batch
// envelope (returned as a *Batch) — through a fresh Decoder. Hosts keep a
// Decoder instead; this form serves tools and tests.
func Unmarshal(b []byte) (Message, error) {
	return NewDecoder().Unmarshal(b)
}

// isBatch reports whether datagram b is a batch envelope.
func isBatch(b []byte) bool { return len(b) > 0 && Kind(b[0]) == KindBatch }

// unmarshalBatchEnvelope decodes a Batch, appending its inner messages to
// dst (on error, those decoded so far). Inner messages must not nest
// batches and must consume exactly their declared length.
func unmarshalBatchEnvelope(r *reader, dst []Message) ([]Message, error) {
	r.u8() // kind, already known to be KindBatch
	version := r.u8()
	if r.err != nil {
		return dst, r.err
	}
	if version == 0 || version > BatchVersion {
		return dst, fmt.Errorf("%w: version %d", ErrBadBatch, version)
	}
	count := r.uvarint()
	if r.err != nil {
		return dst, r.err
	}
	if count > uint64(len(r.b)-r.off) {
		// Every inner message costs at least one length byte; a count
		// larger than the remaining payload is certainly corrupt. Reject
		// before allocating.
		return dst, fmt.Errorf("%w: count %d exceeds payload", ErrBadBatch, count)
	}
	for i := uint64(0); i < count; i++ {
		l := r.uvarint()
		if r.err != nil {
			return dst, r.err
		}
		if l == 0 {
			return dst, fmt.Errorf("%w: empty inner message", ErrBadBatch)
		}
		if l > uint64(len(r.b)-r.off) {
			return dst, ErrTruncated
		}
		end := r.off + int(l)
		if Kind(r.b[r.off]) == KindBatch {
			return dst, fmt.Errorf("%w: nested batch", ErrBadBatch)
		}
		if !knownKind(Kind(r.b[r.off])) {
			// A kind from a newer protocol version: the length prefix
			// delimits it, so skip exactly its bytes and keep decoding the
			// rest of the datagram. Hosts surface the count as
			// PacketStats.UnknownDropped.
			r.off = end
			r.unknown++
			continue
		}
		inner := reader{b: r.b[:end], off: r.off, st: r.st, in: r.in}
		var err error
		if dst, err = decodeRecord(&inner, dst); err != nil {
			return dst, err
		}
		if inner.off != end {
			return dst, fmt.Errorf("%w: inner message shorter than its length prefix", ErrBadBatch)
		}
		r.off = end
	}
	return dst, nil
}

// decodeRecord decodes one record of a datagram, appending what it holds
// to dst: the message, or the ALIVEs of a run.
func decodeRecord(r *reader, dst []Message) ([]Message, error) {
	if r.off < len(r.b) && Kind(r.b[r.off]) == KindAliveRun {
		return unmarshalRun(r, dst)
	}
	m, err := unmarshalOne(r)
	if err != nil {
		return dst, err
	}
	return append(dst, m), nil
}

// unmarshalOne decodes a single non-batch message.
func unmarshalOne(r *reader) (Message, error) {
	kind := Kind(r.u8())
	group := id.Group(r.str())
	sender := id.Process(r.str())
	var m Message
	switch kind {
	case KindHello:
		t := r.st.hellos.get()
		t.Group, t.Sender, t.Incarnation = group, sender, r.i64()
		n := r.uvarint()
		if r.err == nil && n > uint64(len(r.b)) {
			// A member row occupies at least two bytes; a count larger than
			// the buffer is certainly corrupt. Reject before allocating.
			return nil, ErrTruncated
		}
		for i := uint64(0); i < n && r.err == nil; i++ {
			mb := MemberInfo{ID: id.Process(r.str()), Incarnation: r.i64()}
			flags := r.u8()
			mb.Candidate = flags&1 != 0
			mb.Left = flags&2 != 0
			t.Members = append(t.Members, mb)
		}
		if len(t.Members) == 0 {
			// Canonical empty form: a recycled struct carries a non-nil
			// zero-length slice, which must not be observable (a warmed
			// decoder and a fresh one agree bit for bit).
			t.Members = nil
		}
		m = t
	case KindJoin:
		t := r.st.joins.get()
		t.Group, t.Sender, t.Incarnation, t.Candidate = group, sender, r.i64(), r.boolean()
		m = t
	case KindLeave:
		t := r.st.leaves.get()
		t.Group, t.Sender, t.Incarnation = group, sender, r.i64()
		m = t
	case KindAlive:
		t := r.st.alives.get()
		t.Group, t.Sender, t.Incarnation = group, sender, r.i64()
		t.Seq = r.uvarint()
		t.SendTime = r.i64()
		t.Interval = r.i64()
		t.AccTime = r.i64()
		t.Phase = r.u32()
		t.HasLocalLeader = r.boolean()
		if t.HasLocalLeader {
			t.LocalLeader = id.Process(r.str())
			t.LocalLeaderAcc = r.i64()
		}
		m = t
	case KindAccuse:
		t := r.st.accuses.get()
		t.Group, t.Sender = group, sender
		t.Incarnation = r.i64()
		t.TargetIncarnation = r.i64()
		t.Phase = r.u32()
		t.At = r.i64()
		m = t
	case KindRate:
		t := r.st.rates.get()
		t.Group, t.Sender, t.Incarnation, t.Interval = group, sender, r.i64(), r.i64()
		m = t
	case KindSubscribe:
		t := r.st.subscribes.get()
		t.Group, t.Sender, t.Incarnation, t.TTL = group, sender, r.i64(), r.i64()
		m = t
	case KindUnsubscribe:
		t := r.st.unsubs.get()
		t.Group, t.Sender, t.Incarnation = group, sender, r.i64()
		m = t
	case KindLeaderSnapshot:
		t := r.st.snapshots.get()
		t.Group, t.Sender, t.Incarnation = group, sender, r.i64()
		t.Seq = r.uvarint()
		flags := r.u8()
		t.Elected = flags&1 != 0
		t.Tombstone = flags&2 != 0
		t.Leader = id.Process(r.str())
		t.LeaderIncarnation = r.i64()
		t.At = r.i64()
		t.Lease = r.i64()
		m = t
	case KindLeaseRenew:
		t := r.st.renews.get()
		t.Group, t.Sender, t.Incarnation, t.TTL = group, sender, r.i64(), r.i64()
		m = t
	case KindStandby:
		t := r.st.standbys.get()
		t.Group, t.Sender, t.Incarnation = group, sender, r.i64()
		t.Seq = r.uvarint()
		t.Standby = id.Process(r.str())
		t.StandbyInc = r.i64()
		m = t
	case KindHandover:
		t := r.st.handovers.get()
		t.Group, t.Sender, t.Incarnation = group, sender, r.i64()
		t.Successor = id.Process(r.str())
		t.SuccessorInc = r.i64()
		t.GrantAcc = r.i64()
		t.At = r.i64()
		m = t
	case KindSuccessorHint:
		t := r.st.hints.get()
		t.Group, t.Sender, t.Incarnation = group, sender, r.i64()
		t.Seq = r.uvarint()
		t.Successor = id.Process(r.str())
		t.SuccessorInc = r.i64()
		t.At = r.i64()
		t.Lease = r.i64()
		m = t
	case KindHelloDigest:
		t := r.st.digests.get()
		t.Group, t.Sender, t.Incarnation, t.Digest = group, sender, r.i64(), uint64(r.i64())
		m = t
	default:
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, uint8(kind))
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}
