package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	stableleader "stableleader"
)

// The steady workload: the paper's "lightweight" claim on the real runtime.
// Six Services, 48 groups, everybody a candidate, no faults; the protocol's
// own timers are the open-loop schedule. Every layer runs at low duty, so
// cost is per wakeup, not per message.
const (
	steadyNodes  = 6
	steadyGroups = 48
	steadyTdU    = 500 * time.Millisecond
	steadyWarmup = 3 * time.Second
)

type steady struct {
	o *runOpts
	c *cluster

	mu sync.Mutex
	// armed is set once warm-up is over: from then on every leader change
	// demotes a live leader, which the paper's stability property forbids.
	armed      bool
	demotions  int64
	suspicions int64
	raisedBy   map[int]bool // nodes that raised a spurious event
}

func setupSteady(ctx context.Context, o *runOpts) (instance, error) {
	s := &steady{o: o, raisedBy: map[int]bool{}}
	c, err := startCluster(ctx, clusterConfig{
		nodes:       steadyNodes,
		groups:      steadyGroups,
		tdu:         steadyTdU,
		firstJoiner: func(g int) int { return (g + int(o.seed)) % steadyNodes },
		onEvent:     s.onEvent,
	})
	if err != nil {
		return nil, err
	}
	s.c = c
	if err := c.waitAgreed(ctx, 20*steadyTdU); err != nil {
		c.close(ctx)
		return nil, err
	}
	return s, nil
}

func (s *steady) onEvent(n, g int, ev stableleader.Event, _ time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.armed {
		return
	}
	switch e := ev.(type) {
	case stableleader.LeaderChanged:
		s.demotions++
		s.raisedBy[n] = true
	case stableleader.MemberSuspected:
		// Under ΩL a follower that stopped competing goes quiet and is
		// legitimately suspected; only suspecting the leader is a mistake.
		if l, ok := s.c.leaderOf(context.Background(), g); !ok || s.c.names[l] == e.Member {
			s.suspicions++
			s.raisedBy[n] = true
		}
	}
}

func (s *steady) measure(ctx context.Context, r *result) error {
	// The join order was rotated so that leadership, and with it the
	// heartbeat load, spreads evenly; a skewed spread measures another
	// workload, so it fails the run.
	perNode := make([]int, steadyNodes)
	for g := range s.c.gids {
		l, ok := s.c.leaderOf(ctx, g)
		if !ok {
			return fmt.Errorf("group %d lost its leader before measurement", g)
		}
		perNode[l]++
	}
	for _, k := range perNode {
		if k != steadyGroups/steadyNodes {
			r.fail(fmt.Sprintf("leader spread %v, want %d groups per node", perNode, steadyGroups/steadyNodes))
			break
		}
	}

	sleepCtx(ctx, s.o.scale(steadyWarmup))
	s.mu.Lock()
	s.armed = true
	s.mu.Unlock()

	m := &meter{nodes: steadyNodes, stats: s.c.packetStats}
	p := &prober{agreed: func() bool { return s.c.agreed(ctx) }}
	m.start(s.o.measure)
	p.start()
	scrapeMS := s.scrapeDuring(ctx)
	sleepCtx(ctx, s.o.measure)
	p.stop()
	m.stop(r)

	s.mu.Lock()
	s.armed = false
	demotions, suspicions := s.demotions, s.suspicions
	var raised []int
	for n := range s.raisedBy {
		raised = append(raised, n)
	}
	s.mu.Unlock()

	r.Attempted = p.probes
	r.Failed = p.probes - p.up + demotions
	r.Metrics["leader_availability"] = p.availability()
	r.Metrics["heap_live_mb"] = heapLiveMB()
	r.Metrics["steady.unjustified_demotions"] = float64(demotions)
	r.Metrics["steady.spurious_suspicions"] = float64(suspicions)
	r.Metrics["gen.inject_late_ms_max"] = float64(p.lateMax) / float64(time.Millisecond)
	r.Metrics["obs.scrape_ms"] = <-scrapeMS
	for _, n := range raised {
		s.o.dumpFlight(ctx, wlSteady, s.c.nodes[n].svc)
	}
	return nil
}

func (s *steady) close(ctx context.Context) { s.c.close(ctx) }

// scrapeDuring, on traced runs, GETs /metrics from node 0 halfway through
// the measured window and delivers how long the scrape took, in ms. It is a
// guard rail: a scrape goes through every shard loop and must stay cheap.
func (s *steady) scrapeDuring(ctx context.Context) <-chan float64 {
	out := make(chan float64, 1)
	if !s.o.traced {
		out <- 0
		return out
	}
	go func() {
		sleepCtx(ctx, s.o.measure/2)
		h := s.c.nodes[0].svc.ObsHandler()
		sp := s.o.tr.begin("obs.scrape", -1, 0)
		t0 := time.Now()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))
		d := time.Since(t0)
		s.o.tr.end(sp)
		out <- float64(d) / float64(time.Millisecond)
	}()
	return out
}
