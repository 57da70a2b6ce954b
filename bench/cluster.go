package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	stableleader "stableleader"
	"stableleader/id"
	"stableleader/qos"
	"stableleader/transport"
)

// loopback is where every socket of the benchmark binds; port 0 lets the
// kernel pick, so concurrent runs never collide.
const loopback = "127.0.0.1:0"

// specFor is the QoS every workload asks for, at its own TdU: the paper's
// accuracy requirements (one mistake per 100 days, PaL 0.99999988), so a
// suspicion of a live peer during a run is a breach of contract, not noise.
func specFor(tdu time.Duration) qos.Spec {
	s := qos.Default()
	s.DetectionTime = tdu
	return s
}

// node is one Service of a cluster with its transport and group handles.
type node struct {
	name   id.Process
	addr   string // the bound loopback address, kept across restarts
	live   bool
	tr     *transport.UDP
	svc    *stableleader.Service
	groups []*stableleader.Group // by group index
	// wg waits for the goroutines draining the node's Watch streams.
	wg sync.WaitGroup
}

// clusterConfig describes a cluster of Services on loopback UDP.
type clusterConfig struct {
	nodes  int
	groups int
	tdu    time.Duration
	// candidate reports whether node n competes for leadership (nil: all).
	candidate func(n int) bool
	// firstJoiner names the node that joins group g before anybody else:
	// accusation times start at join time, so it becomes the stable leader.
	firstJoiner func(g int) int
	svcOpts     []stableleader.Option
	udpOpts     []transport.UDPOption
	// onEvent, if set, receives every LeaderChanged and MemberSuspected of
	// every node, stamped with its arrival time at the benchmark. It runs
	// on one goroutine per (node, group) stream.
	onEvent func(n, g int, ev stableleader.Event, at time.Time)
}

// cluster is a set of Services over real UDP sockets, all in this process.
type cluster struct {
	cfg   clusterConfig
	gids  []id.Group
	names []id.Process

	// mu guards each node's live, svc and groups fields: the prober reads
	// them while the fault injector crashes and restarts nodes.
	mu    sync.RWMutex
	nodes []*node

	// retired accumulates the packet counters of crashed incarnations so
	// run totals survive restarts.
	retired stableleader.PacketStats
}

func nodeName(i int) id.Process { return id.Process(fmt.Sprintf("n%02d", i)) }

// startCluster opens every socket, starts every Service and issues every
// join; agreement comes later (see waitAgreed).
func startCluster(ctx context.Context, cfg clusterConfig) (*cluster, error) {
	c := &cluster{cfg: cfg}
	for g := 0; g < cfg.groups; g++ {
		c.gids = append(c.gids, id.Group(fmt.Sprintf("g%02d", g)))
	}
	for i := 0; i < cfg.nodes; i++ {
		c.names = append(c.names, nodeName(i))
		c.nodes = append(c.nodes, &node{name: nodeName(i), addr: loopback})
	}
	fail := func(err error) (*cluster, error) {
		c.close(ctx)
		return nil, err
	}
	for i := range c.nodes {
		if err := c.open(i); err != nil {
			return fail(err)
		}
	}
	// Every socket is bound now, so every address is known.
	for _, n := range c.nodes {
		for _, p := range c.nodes {
			if p != n {
				if err := n.tr.SetPeer(p.name, p.addr); err != nil {
					return fail(fmt.Errorf("node %s: peer %s: %w", n.name, p.name, err))
				}
			}
		}
	}
	// First pass: the designated leader of each group joins alone, so it
	// holds the earliest accusation time; second pass: everybody else.
	for g := range c.gids {
		if err := c.join(ctx, cfg.firstJoiner(g), g); err != nil {
			return fail(err)
		}
	}
	for i := range c.nodes {
		for g := range c.gids {
			if i != cfg.firstJoiner(g) {
				if err := c.join(ctx, i, g); err != nil {
					return fail(err)
				}
			}
		}
		c.nodes[i].live = true
	}
	return c, nil
}

// open binds node i's socket (its previous address on a restart) and
// starts its Service.
func (c *cluster) open(i int) error {
	n := c.nodes[i]
	peers := make(map[id.Process]string)
	for _, p := range c.nodes {
		if p != n && p.addr != loopback {
			peers[p.name] = p.addr
		}
	}
	tr, err := transport.NewUDP(n.addr, peers, c.cfg.udpOpts...)
	if err != nil {
		return fmt.Errorf("node %s: open socket: %w", n.name, err)
	}
	svc, err := stableleader.New(n.name, tr, c.cfg.svcOpts...)
	if err != nil {
		_ = tr.Close()
		return fmt.Errorf("node %s: start service: %w", n.name, err)
	}
	c.mu.Lock()
	n.addr, n.tr, n.svc = tr.LocalAddr().String(), tr, svc
	n.groups = make([]*stableleader.Group, len(c.gids))
	c.mu.Unlock()
	return nil
}

// join enters node i into group g and starts forwarding its events.
func (c *cluster) join(ctx context.Context, i, g int) error {
	n := c.nodes[i]
	opts := []stableleader.JoinOption{
		stableleader.WithQoS(specFor(c.cfg.tdu)),
		stableleader.WithSeeds(c.names...),
	}
	if c.cfg.candidate == nil || c.cfg.candidate(i) {
		opts = append(opts, stableleader.AsCandidate())
	}
	grp, err := n.svc.Join(ctx, c.gids[g], opts...)
	if err != nil {
		return fmt.Errorf("node %s: join %s: %w", n.name, c.gids[g], err)
	}
	c.mu.Lock()
	n.groups[g] = grp
	c.mu.Unlock()
	if c.cfg.onEvent != nil {
		// The stream closes by itself when the service closes or crashes.
		events := grp.Watch(context.Background(),
			stableleader.WithEventFilter(stableleader.KindLeaderChanged, stableleader.KindMemberSuspected),
			stableleader.WithWatchBuffer(256))
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			for ev := range events {
				c.cfg.onEvent(i, g, ev, time.Now())
			}
		}()
	}
	return nil
}

// crash kills node i without a goodbye and folds its counters into the
// run totals. The node counts as dead from the call on; crash returns once
// the Service is down and its socket closed.
func (c *cluster) crash(i int) {
	n := c.nodes[i]
	c.mu.Lock()
	n.live = false
	c.mu.Unlock()
	_ = n.svc.Crash()
	n.wg.Wait()
	c.mu.Lock()
	c.retired = addStats(c.retired, n.svc.PacketStats())
	c.mu.Unlock()
}

// restart brings a crashed node back on its old port as a new incarnation
// and rejoins every group; it returns the time spent in the Join calls. The
// node stays out of the live set until awaitRejoin.
func (c *cluster) restart(ctx context.Context, i int) (joins time.Duration, err error) {
	if err := c.open(i); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for g := range c.gids {
		if err := c.join(ctx, i, g); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// awaitRejoin waits until restarted node i names, in every group, the
// leader the live nodes agree on, then counts it as live again.
func (c *cluster) awaitRejoin(ctx context.Context, i int, timeout time.Duration) error {
	n := c.nodes[i]
	deadline := time.Now().Add(timeout)
	for g := 0; g < len(c.gids); {
		want, ok := c.leaderOf(ctx, g)
		li, err := n.groups[g].Leader(ctx)
		if ok && err == nil && li.Elected && li.Leader == c.names[want] {
			g++
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s did not catch up with group %s within %v", n.name, c.gids[g], timeout)
		}
		time.Sleep(time.Millisecond)
	}
	c.mu.Lock()
	n.live = true
	c.mu.Unlock()
	return nil
}

// close shuts every live node down gracefully and waits for its streams.
func (c *cluster) close(ctx context.Context) {
	for _, n := range c.nodes {
		if n.svc == nil {
			continue
		}
		c.mu.Lock()
		n.live = false
		c.mu.Unlock()
		_ = n.svc.Close(ctx) // idempotent with an earlier Crash
		n.wg.Wait()
	}
}

// packetStats sums the packet counters of every incarnation of every node.
func (c *cluster) packetStats() stableleader.PacketStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := c.retired
	for _, n := range c.nodes {
		if n.live {
			total = addStats(total, n.svc.PacketStats())
		}
	}
	return total
}

// addStats is the column-wise sum a + b (Delta against the negation).
func addStats(a, b stableleader.PacketStats) stableleader.PacketStats {
	return a.Delta(stableleader.PacketStats{}.Delta(b))
}

// leaderOf returns the leader every live node agrees on for group g, or
// ok=false while they disagree, see no leader, or name a dead incarnation.
func (c *cluster) leaderOf(ctx context.Context, g int) (leader int, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	leader = -1
	for _, n := range c.nodes {
		if !n.live {
			continue
		}
		li, err := n.groups[g].Leader(ctx)
		if err != nil || !li.Elected {
			return -1, false
		}
		l := c.index(li.Leader)
		if l < 0 || !c.nodes[l].live || c.nodes[l].svc.Incarnation() != li.Incarnation {
			return -1, false
		}
		if leader >= 0 && l != leader {
			return -1, false
		}
		leader = l
	}
	return leader, leader >= 0
}

// agreed reports whether every group has a leader in the sense of leaderOf.
func (c *cluster) agreed(ctx context.Context) bool {
	for g := range c.gids {
		if _, ok := c.leaderOf(ctx, g); !ok {
			return false
		}
	}
	return true
}

// waitAgreed polls until agreed or the deadline; set-up only — measured
// timings come from Watch events.
func (c *cluster) waitAgreed(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !c.agreed(ctx) {
		if time.Now().After(deadline) {
			return fmt.Errorf("no agreement on a leader in every group within %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (c *cluster) index(p id.Process) int { return slices.Index(c.names, p) }

func (c *cluster) groupIndex(g id.Group) int { return slices.Index(c.gids, g) }
