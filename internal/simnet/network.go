package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"stableleader/id"
	"stableleader/internal/clock"
	"stableleader/internal/wire"
)

// Handler receives messages delivered to a node. The from process is the
// wire-level sender (identical to m.From() for well-formed traffic).
type Handler interface {
	HandleMessage(m wire.Message)
}

// LinkModel describes a directed communication link the way the paper's
// injector does: an independent drop probability per message, and an
// exponentially distributed delay for messages that are not dropped. The
// Dup and Reorder knobs extend the injector beyond the paper's testbed;
// both are gated on being nonzero, so every zero-knob scenario draws
// exactly the random stream it always did and replays byte-identically.
type LinkModel struct {
	// Loss is the iid probability that a message is dropped.
	Loss float64
	// MeanDelay is the mean of the exponential delay distribution.
	MeanDelay time.Duration
	// Dup is the iid probability that a delivered datagram is delivered a
	// second time. The copy draws its own independent delay, so it can
	// arrive before the original — duplication doubles as reordering, as
	// on a real multipathed network.
	Dup float64
	// Reorder is the iid probability that a datagram is held back an extra
	// ReorderDelay before delivery, letting datagrams sent after it
	// overtake it.
	Reorder float64
	// ReorderDelay is the hold-back for reordered datagrams; when zero,
	// 4×MeanDelay is used.
	ReorderDelay time.Duration
}

// LAN is the behaviour the paper measured on its real gigabit LAN:
// practically no losses and a 0.025 ms average delay.
func LAN() LinkModel { return LinkModel{Loss: 0, MeanDelay: 25 * time.Microsecond} }

// link is the state of one directed link.
type link struct {
	model LinkModel
	down  bool
	// downSince/downTotal track outage time for diagnostics.
	downSince int64
	downTotal int64
}

// Counters accumulates per-workstation traffic and processing statistics.
// Bytes are counted per datagram: one wire.UDPOverhead per datagram, so a
// coalesced batch pays the UDP/IP header once — the honest version of the
// paper's KB/s figures. Msgs counts protocol messages (a batch of k counts
// k); Datagrams counts what actually crosses the wire.
type Counters struct {
	MsgsSent      int64
	MsgsRecv      int64
	DatagramsSent int64
	DatagramsRecv int64
	BytesSent     int64
	BytesRecv     int64
	TimerFires    int64
}

// Endpoint is a workstation attachment point. It persists across crashes
// and recoveries of the process running on it, so counters cover the whole
// experiment.
type Endpoint struct {
	id       id.Process
	up       bool
	handler  Handler
	counters Counters
}

// ID returns the process id attached to this endpoint.
func (ep *Endpoint) ID() id.Process { return ep.id }

// Counters returns a snapshot of the endpoint's counters.
func (ep *Endpoint) Counters() Counters { return ep.counters }

// linkKey identifies a directed link.
type linkKey struct{ from, to id.Process }

// Network simulates the point-to-point network among a set of endpoints.
type Network struct {
	eng          *Engine
	defaultModel LinkModel
	links        map[linkKey]*link
	endpoints    map[id.Process]*Endpoint
}

// NewNetwork returns a network whose links all follow the given default
// model until overridden with SetLinkModel.
func NewNetwork(eng *Engine, defaultModel LinkModel) *Network {
	return &Network{
		eng:          eng,
		defaultModel: defaultModel,
		links:        make(map[linkKey]*link),
		endpoints:    make(map[id.Process]*Endpoint),
	}
}

// Attach registers a workstation for the given process id. The endpoint
// starts down; call SetUp when its service instance starts.
func (n *Network) Attach(p id.Process) *Endpoint {
	if _, ok := n.endpoints[p]; ok {
		panic(fmt.Sprintf("simnet: endpoint %q attached twice", p))
	}
	ep := &Endpoint{id: p}
	n.endpoints[p] = ep
	return ep
}

// Endpoint returns the endpoint for p, or nil if not attached.
func (n *Network) Endpoint(p id.Process) *Endpoint { return n.endpoints[p] }

// Endpoints returns all attached endpoints.
func (n *Network) Endpoints() []*Endpoint {
	out := make([]*Endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		out = append(out, ep)
	}
	return out
}

// SetUp marks the process as running and installs its message handler.
// A nil handler with up=false models a crash.
func (n *Network) SetUp(p id.Process, up bool, h Handler) {
	ep := n.endpoints[p]
	if ep == nil {
		panic(fmt.Sprintf("simnet: SetUp of unattached endpoint %q", p))
	}
	ep.up = up
	ep.handler = h
}

// getLink returns (creating if needed) the state for the directed link.
func (n *Network) getLink(from, to id.Process) *link {
	k := linkKey{from, to}
	l := n.links[k]
	if l == nil {
		l = &link{model: n.defaultModel}
		n.links[k] = l
	}
	return l
}

// SetLinkModel overrides the loss/delay model of one directed link.
func (n *Network) SetLinkModel(from, to id.Process, m LinkModel) {
	n.getLink(from, to).model = m
}

// SetLinkDown crashes or recovers one directed link. While down, the link
// drops every message, exactly like the paper's link-crash injector.
func (n *Network) SetLinkDown(from, to id.Process, down bool) {
	l := n.getLink(from, to)
	if l.down == down {
		return
	}
	l.down = down
	if down {
		l.downSince = n.eng.NowNanos()
	} else {
		l.downTotal += n.eng.NowNanos() - l.downSince
	}
}

// LinkDown reports whether the directed link is currently crashed.
func (n *Network) LinkDown(from, to id.Process) bool {
	return n.getLink(from, to).down
}

// Send transmits m — a single message or a coalesced *wire.Batch — from
// from to to across the simulated link as ONE datagram: one UDP/IP header,
// one loss draw, one delay draw. The sender is charged whether or not the
// network drops it.
func (n *Network) Send(from, to id.Process, m wire.Message) {
	src := n.endpoints[from]
	if src == nil || !src.up {
		return
	}
	msgs := int64(1)
	if b, ok := m.(*wire.Batch); ok {
		msgs = int64(len(b.Msgs))
	}
	size := int64(m.WireSize() + wire.UDPOverhead)
	src.counters.MsgsSent += msgs
	src.counters.DatagramsSent++
	src.counters.BytesSent += size
	l := n.getLink(from, to)
	if l.down {
		return
	}
	if l.model.Loss > 0 && n.eng.Rand().Float64() < l.model.Loss {
		return
	}
	delay := expDuration(n.eng.Rand(), l.model.MeanDelay)
	if l.model.Reorder > 0 && n.eng.Rand().Float64() < l.model.Reorder {
		hold := l.model.ReorderDelay
		if hold <= 0 {
			hold = 4 * l.model.MeanDelay
		}
		delay += hold
	}
	n.deliver(to, m, msgs, size, delay)
	if l.model.Dup > 0 && n.eng.Rand().Float64() < l.model.Dup {
		n.deliver(to, m, msgs, size, expDuration(n.eng.Rand(), l.model.MeanDelay))
	}
}

// expDuration draws an exponentially distributed duration with the given
// mean. A non-positive mean is zero without a draw, so a model without
// delay leaves the random stream — and every simulation outcome after it —
// as it was.
func expDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// deliver schedules one copy of a datagram for arrival after delay.
func (n *Network) deliver(to id.Process, m wire.Message, msgs, size int64, delay time.Duration) {
	n.eng.After(delay, func() {
		dst := n.endpoints[to]
		if dst == nil || !dst.up || dst.handler == nil {
			return
		}
		dst.counters.MsgsRecv += msgs
		dst.counters.DatagramsRecv++
		dst.counters.BytesRecv += size
		dst.handler.HandleMessage(m)
	})
}

// NodeRuntime adapts the engine and network into the runtime interface the
// protocol stack expects (clock + timers + send + per-node random stream).
// Each process lifetime gets a fresh NodeRuntime; Shutdown invalidates all
// timers it issued, modelling the loss of all pending work on a crash.
type NodeRuntime struct {
	net  *Network
	self id.Process
	rng  *rand.Rand
	skew time.Duration
	dead bool
}

// NewNodeRuntime returns a runtime for one lifetime of process self. The
// node-local random stream is seeded from the engine stream so that the
// whole simulation remains a function of the scenario seed.
func NewNodeRuntime(net *Network, self id.Process) *NodeRuntime {
	return &NodeRuntime{
		net:  net,
		self: self,
		rng:  rand.New(rand.NewSource(net.eng.Rand().Int63())),
	}
}

// Now implements clock.Clock, offset by the node's clock skew.
func (r *NodeRuntime) Now() time.Time { return r.net.eng.Now().Add(r.skew) }

// SetSkew offsets this node's clock by d relative to virtual time: its
// timestamps (accusation times, heartbeat send times) all shift by d while
// timer durations stay exact — the way a skewed-but-stable workstation
// clock behaves. Skew only changes what the node *reports*, never when
// events run, so skewed runs stay deterministic.
func (r *NodeRuntime) SetSkew(d time.Duration) { r.skew = d }

// AfterFunc implements clock.Clock. Callbacks are suppressed once the
// runtime is shut down or the endpoint is down (the process crashed).
func (r *NodeRuntime) AfterFunc(d time.Duration, fn func()) clock.Timer {
	ep := r.net.endpoints[r.self]
	return r.net.eng.After(d, func() {
		if r.dead || ep == nil || !ep.up {
			return
		}
		ep.counters.TimerFires++
		fn()
	})
}

// NodeRuntime deliberately does NOT implement clock.TimerFactory: the
// protocol's re-armable timers (clock.NewTimer) fall back to the portable
// Stop-then-AfterFunc sequence over this AfterFunc — exactly the events
// protocol code used to push onto the heap by hand, so virtual-time runs
// are event-for-event identical whether callers re-arm through a Rearmer
// or through raw AfterFunc (the property
// timerwheel.TestWheelMatchesAfterFuncUnderVirtualTime locks in for the
// wheel-backed real-time twin).

// Send implements the protocol runtime's transmit operation.
func (r *NodeRuntime) Send(to id.Process, m wire.Message) {
	if r.dead {
		return
	}
	r.net.Send(r.self, to, m)
}

// Rand returns the node-local random stream.
func (r *NodeRuntime) Rand() *rand.Rand { return r.rng }

// Shutdown invalidates every timer issued by this runtime. Messages already
// in flight are unaffected (the network, not the process, owns them).
func (r *NodeRuntime) Shutdown() { r.dead = true }
