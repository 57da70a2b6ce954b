// Package client consults a stableleader service from processes that are
// not group members — the "leader election as a service" reading of the
// paper, scaled to remote clients.
//
// A Client attaches to a transport, subscribes to leadership snapshots
// from one or more service endpoints under a renewable lease, and answers
// Leader queries from a local copy-on-write cache: the steady-state read
// is one atomic load, allocation free, with staleness bounded by the lease
// TTL. Changes stream through Watch as typed events. When the serving
// endpoint dies or says goodbye, the client fails over across its
// endpoint list by itself.
//
//	cli, err := client.New(tr,
//		client.WithID("frontend-1"),
//		client.WithEndpoints("a", "b", "c"))
//	...
//	lease, err := cli.Leader(ctx, "orders")   // cached, wait-free
//	for ev := range cli.Watch(ctx, "orders") { ... }
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"stableleader/id"
	"stableleader/internal/clientcore"
	"stableleader/internal/clock"
	"stableleader/internal/wire"
	"stableleader/transport"
)

// ErrClosed is returned by operations on a closed Client.
var ErrClosed = errors.New("client: closed")

// LeaderLease is one group's leadership as served to this client: the
// view, who served it, and how long it may be treated as fresh.
type LeaderLease struct {
	// Group is the group concerned.
	Group id.Group
	// Leader is the elected process (empty if Elected is false).
	Leader id.Process
	// LeaderIncarnation distinguishes successive lifetimes of the leader.
	LeaderIncarnation int64
	// Elected is false while the serving endpoint sees the group
	// leaderless (for example mid-election).
	Elected bool
	// Stale marks a view served past its lease (only visible through
	// Cached; Leader never returns stale views).
	Stale bool
	// ServedBy is the service endpoint the view came from.
	ServedBy id.Process
	// At is when the view was adopted locally; Expires is the lease
	// deadline, after which the view is no longer served as fresh.
	At      time.Time
	Expires time.Time
}

// Client is a remote consumer of the leader election service. It has no
// goroutine of its own: its state machine runs on whichever goroutine
// enters it — a transport receiver with a datagram, a timer fire, the
// first Leader or Watch of a group, Close — one entry at a time.
type Client struct {
	self id.Process
	tr   transport.Transport
	node *clientcore.Node

	// nodeMu serialises every entry into node, and stopped (set under it
	// by Close) turns every later entry into a no-op. Lock order is mu →
	// nodeMu → groupView.mu; onUpdate, which runs under nodeMu, never
	// takes mu.
	nodeMu  sync.Mutex
	stopped bool

	// closing is closed when Close is first called, finished once the
	// shutdown it starts is complete.
	closing  chan struct{}
	finished chan struct{}

	// strings is the interning table the receivers decode through.
	strings wire.Interner

	// mu guards groups (the canonical registry) and closed. The read hot
	// path never takes it: viewsRO holds a copy-on-write snapshot of the
	// groups map, re-published on every (rare) mutation, so Leader/Cached
	// resolve a group with two atomic loads and no lock.
	mu       sync.RWMutex
	groups   map[id.Group]*groupView
	viewsRO  atomic.Pointer[map[id.Group]*groupView]
	closed   bool
	closeErr error
}

// groupView is the client-side read plane for one group: the cached lease
// (copy-on-write, atomically published by the state machine) plus the
// Watch subscribers and slow-path waiters.
type groupView struct {
	c     *Client
	g     id.Group
	lease atomic.Pointer[LeaderLease]

	mu      sync.Mutex
	subs    map[*subscriber]struct{}
	waiters []chan struct{}
	closed  bool
	donec   chan struct{}
}

// New creates and starts a Client on the given transport. WithEndpoints
// is required; everything else defaults sensibly (a random client id, a
// 10s lease).
func New(tr transport.Transport, opts ...Option) (*Client, error) {
	if tr == nil {
		return nil, errors.New("client: a transport is required")
	}
	cfg := config{ttl: clientcore.DefaultTTL}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if len(cfg.endpoints) == 0 {
		return nil, errors.New("client: at least one endpoint is required (WithEndpoints)")
	}
	seed := cfg.seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	if cfg.self == "" {
		cfg.self = id.Process(fmt.Sprintf("client-%08x", rng.Uint32()))
	}
	c := &Client{
		self:     cfg.self,
		tr:       tr,
		closing:  make(chan struct{}),
		finished: make(chan struct{}),
		groups:   make(map[id.Group]*groupView),
	}
	rt := &clientRuntime{c: c, rng: rng}
	c.node = clientcore.NewNode(rt, clientcore.Config{
		Self:      cfg.self,
		Endpoints: cfg.endpoints,
		TTL:       cfg.ttl,
		NoShuffle: cfg.ordered,
		OnUpdate:  c.onUpdate,
	})
	tr.Receive(c.onDatagram)
	return c, nil
}

// ID returns the client's process id.
func (c *Client) ID() id.Process { return c.self }

// locked runs fn on the state machine, unless the client has stopped.
func (c *Client) locked(fn func()) {
	c.nodeMu.Lock()
	defer c.nodeMu.Unlock()
	if !c.stopped {
		fn()
	}
}

// onDatagram decodes one received datagram into a pooled carrier outside
// the lock, dispatches it to the state machine, and gives its storage
// back (the state machine copies everything it keeps). The unknown-kind
// count is discarded: forward traffic is irrelevant to a client.
//
//leadervet:hotpath
func (c *Client) onDatagram(payload []byte) {
	car := wire.GetCarrier()
	if _, err := car.Decode(&c.strings, payload); err == nil {
		c.nodeMu.Lock()
		if !c.stopped {
			for _, m := range car.Msgs {
				c.node.HandleMessage(m)
			}
		}
		c.nodeMu.Unlock()
	}
	car.Release()
}

// viewFast resolves g's read plane without locks: one atomic load of the
// copy-on-write map snapshot.
//
//leadervet:hotpath
func (c *Client) viewFast(g id.Group) *groupView {
	if m := c.viewsRO.Load(); m != nil {
		return (*m)[g]
	}
	return nil
}

// view returns (creating and subscribing if needed) the read plane for g.
// The lock-free snapshot serves repeat callers; the write lock, the map
// re-publication and the subscribe happen only on first touch.
func (c *Client) view(g id.Group) (*groupView, error) {
	if gv := c.viewFast(g); gv != nil {
		return gv, nil
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	gv := c.groups[g]
	if gv == nil {
		gv = &groupView{c: c, g: g, subs: make(map[*subscriber]struct{}), donec: make(chan struct{})}
		c.groups[g] = gv
		ro := make(map[id.Group]*groupView, len(c.groups))
		for k, v := range c.groups {
			ro[k] = v
		}
		c.viewsRO.Store(&ro)
		c.locked(func() { c.node.Subscribe(g) })
	}
	c.mu.Unlock()
	return gv, nil
}

// Leader returns the current leader view of g — the query mode of the
// paper, served from the client's cache: a single atomic load, allocation
// free, no network round trip. The view's staleness is bounded by the
// lease TTL; a view past its lease is never returned. On a cold cache (or
// past the lease) Leader subscribes (idempotently) and waits, honouring
// ctx, until a service endpoint answers. On a closed client Leader
// returns ErrClosed (Cached still serves the last view as a stale hint).
//
//leadervet:hotpath
func (c *Client) Leader(ctx context.Context, g id.Group) (LeaderLease, error) {
	select {
	case <-c.closing:
		return LeaderLease{}, ErrClosed
	default:
	}
	gv, err := c.view(g)
	if err != nil {
		return LeaderLease{}, err
	}
	if l := gv.lease.Load(); l != nil && !l.Stale && time.Now().Before(l.Expires) {
		return *l, nil
	}
	return gv.await(ctx)
}

// Cached returns the last view of g without waiting or staleness checks —
// the stale hint for callers that prefer outdated data to blocking, and
// deliberately still served after Close. ok is false before the first
// snapshot or if g was never queried or watched.
//
//leadervet:hotpath
func (c *Client) Cached(g id.Group) (LeaderLease, bool) {
	gv := c.viewFast(g)
	if gv == nil {
		return LeaderLease{}, false
	}
	l := gv.lease.Load()
	if l == nil {
		return LeaderLease{}, false
	}
	out := *l
	if !out.Stale && !time.Now().Before(out.Expires) {
		out.Stale = true
	}
	return out, true
}

// await is the slow path: wait for the next fresh snapshot.
func (gv *groupView) await(ctx context.Context) (LeaderLease, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		if err := ctx.Err(); err != nil {
			return LeaderLease{}, err
		}
		gv.mu.Lock()
		if gv.closed {
			gv.mu.Unlock()
			return LeaderLease{}, ErrClosed
		}
		// Re-check under the lock: an update racing the registration
		// would otherwise be missed.
		if l := gv.lease.Load(); l != nil && !l.Stale && time.Now().Before(l.Expires) {
			gv.mu.Unlock()
			return *l, nil
		}
		ch := make(chan struct{})
		gv.waiters = append(gv.waiters, ch)
		gv.mu.Unlock()
		select {
		case <-ch:
			// A fresh lease was published; loop to read it (it may have
			// aged out again under extreme delays, hence the loop).
		case <-ctx.Done():
			return LeaderLease{}, ctx.Err()
		case <-gv.donec:
			return LeaderLease{}, ErrClosed
		}
	}
}

// Watch subscribes to g's event stream: leadership updates, lease-loss
// (staleness) edges and endpoint tombstones. Any number of watchers may
// run concurrently; each has its own drop-oldest buffer, so a slow
// consumer loses history, never freshness. The channel closes when ctx
// is cancelled or the client closes. Watching implicitly subscribes to g.
func (c *Client) Watch(ctx context.Context, g id.Group, opts ...WatchOption) <-chan Event {
	cfg := watchConfig{buffer: defaultWatchBuffer}
	for _, o := range opts {
		o(&cfg)
	}
	sub := &subscriber{ch: make(chan Event, cfg.buffer)}
	gv, err := c.view(g)
	if err != nil {
		close(sub.ch)
		return sub.ch
	}
	gv.mu.Lock()
	if gv.closed {
		gv.mu.Unlock()
		close(sub.ch)
		return sub.ch
	}
	gv.subs[sub] = struct{}{}
	if l := gv.lease.Load(); cfg.initial && l != nil {
		sub.offer(LeaderUpdated{Lease: *l})
	}
	gv.mu.Unlock()

	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				gv.unsubscribe(sub)
			case <-gv.donec:
			}
		}()
	}
	return sub.ch
}

// unsubscribe detaches one watcher and closes its channel.
func (gv *groupView) unsubscribe(sub *subscriber) {
	gv.mu.Lock()
	defer gv.mu.Unlock()
	if _, ok := gv.subs[sub]; !ok {
		return
	}
	delete(gv.subs, sub)
	close(sub.ch)
}

// onUpdate is the clientcore hook: it publishes the copy-on-write lease,
// wakes slow-path waiters on fresh views, and fans Watch events out. It
// runs under nodeMu, one publication at a time.
func (c *Client) onUpdate(up clientcore.Update) {
	gv := c.viewFast(up.Group)
	if gv == nil {
		return
	}
	lease := &LeaderLease{
		Group:             up.Group,
		Leader:            up.Leader,
		LeaderIncarnation: up.LeaderIncarnation,
		Elected:           up.Elected,
		Stale:             up.Stale || up.Tombstone,
		ServedBy:          up.ServedBy,
		At:                up.At,
		Expires:           up.Expires,
	}
	gv.mu.Lock()
	defer gv.mu.Unlock()
	gv.lease.Store(lease)
	fresh := !lease.Stale
	if fresh && len(gv.waiters) > 0 {
		for _, ch := range gv.waiters {
			close(ch)
		}
		gv.waiters = nil
	}
	if gv.closed || !up.Changed {
		return
	}
	var ev Event
	switch {
	case up.Tombstone:
		ev = EndpointTombstoned{Group: up.Group, Endpoint: up.ServedBy, At: up.At}
	case up.Stale:
		ev = LeaseLost{Group: up.Group, ServedBy: up.ServedBy, Last: *lease, At: up.At}
	default:
		ev = LeaderUpdated{Lease: *lease}
	}
	for s := range gv.subs {
		s.offer(ev)
	}
}

// closeView ends one group's watchers and waiters exactly once.
func (gv *groupView) closeView() {
	gv.mu.Lock()
	defer gv.mu.Unlock()
	if gv.closed {
		return
	}
	gv.closed = true
	for s := range gv.subs {
		close(s.ch)
		delete(gv.subs, s)
	}
	for _, ch := range gv.waiters {
		close(ch)
	}
	gv.waiters = nil
	close(gv.donec)
}

// Close shuts the client down gracefully: UNSUBSCRIBEs go to every
// serving endpoint (so registries free the leases immediately rather than
// waiting them out), then the transport closes. ctx bounds the wait; on
// cancellation the shutdown completes in the background. Close is
// idempotent.
func (c *Client) Close(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.closing)
		go c.shutdown()
	}
	c.mu.Unlock()
	select { // a finished shutdown answers even a cancelled ctx
	case <-c.finished:
		return c.closeErr
	default:
	}
	select {
	case <-c.finished:
		return c.closeErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// shutdown stops the state machine (unsubscribing everywhere), ends every
// group's watchers and waiters, and closes the transport.
func (c *Client) shutdown() {
	c.locked(func() {
		c.node.Stop(true)
		c.stopped = true
	})
	if m := c.viewsRO.Load(); m != nil {
		for _, gv := range *m {
			gv.closeView()
		}
	}
	c.closeErr = c.tr.Close()
	close(c.finished)
}

// clientRuntime adapts the Client to clientcore.Runtime: real clock,
// timers that enter the state machine under its lock, transport sends
// through a pooled marshal buffer.
type clientRuntime struct {
	c   *Client
	rng *rand.Rand
}

var _ clientcore.Runtime = (*clientRuntime)(nil)

// Now implements clock.Clock.
func (r *clientRuntime) Now() time.Time { return time.Now() }

// AfterFunc implements clock.Clock: the callback enters the state machine
// under its lock (and is dropped once the client has stopped).
func (r *clientRuntime) AfterFunc(d time.Duration, fn func()) clock.Timer {
	return time.AfterFunc(d, func() { r.c.locked(fn) })
}

// sendBufPool recycles marshal buffers across sends (transports do not
// retain the payload after Send returns).
var sendBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 2048); return &b },
}

// Send implements clientcore.Runtime.
//
//leadervet:hotpath
func (r *clientRuntime) Send(to id.Process, m wire.Message) {
	bp := sendBufPool.Get().(*[]byte)
	buf := wire.MarshalAppend((*bp)[:0], m)
	_ = r.c.tr.Send(to, buf)
	*bp = buf[:0]
	sendBufPool.Put(bp)
}

// Rand implements clientcore.Runtime (used only under nodeMu).
func (r *clientRuntime) Rand() *rand.Rand { return r.rng }
