package core

import (
	"sync"
	"time"

	"stableleader/id"
	"stableleader/internal/wire"
)

// announceRunsEvery bounds how often the process tells one peer that it
// decodes ALIVE runs: once on the first datagram toward it, then at most
// once a second, which repairs a lost announcement at no datagram of its
// own.
const announceRunsEvery = time.Second

// runPeers is what a process knows of its peers' ALIVE-run decoding, held
// in Shared because its nodes send through one outbound scheduler: per
// peer ever monitored, the newest incarnation heard of, whether that
// incarnation announced that it decodes runs, how many of the process's
// monitors watch the peer (one per group the two share), and when the
// process last announced its own runs to it. A build that predates runs skips a run, heartbeats and all,
// so runs go to a peer only once its current incarnation has announced;
// a restart clears that until the new incarnation announces again. Safe
// for concurrent use: loops update it as they handle traffic and every
// port reads it as a datagram leaves, with that datagram's queue locked —
// a lock never held while this one is taken.
type runPeers struct {
	mu sync.Mutex
	m  map[id.Process]*runPeer // guarded by mu
}

type runPeer struct {
	inc       int64
	runs      bool
	monitors  int
	announced time.Time
}

// monitor counts one more monitor of p at inc; an incarnation newer than
// any heard of clears p's runs.
func (rp *runPeers) monitor(p id.Process, inc int64) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.m == nil {
		rp.m = make(map[id.Process]*runPeer)
	}
	e := rp.m[p]
	if e == nil {
		e = &runPeer{}
		rp.m[p] = e
	}
	e.monitors++
	if inc > e.inc {
		e.inc, e.runs = inc, false
	}
}

// unmonitor counts one monitor of p fewer.
func (rp *runPeers) unmonitor(p id.Process) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if e := rp.m[p]; e != nil {
		e.monitors--
	}
}

// announced records p's announcement, at inc, that it decodes runs. Only
// peers the process has monitored are recorded, so the table stays
// bounded by the membership ever seen whoever sends announcements.
func (rp *runPeers) announced(p id.Process, inc int64) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if e := rp.m[p]; e != nil && inc >= e.inc {
		e.inc, e.runs = inc, true
	}
}

// leaving is asked about a datagram leaving for p at now: whether it may
// code runs, and whether it should carry our own announcement — due every
// announceRunsEvery toward a peer we monitor in two groups or more. One
// monitor per shared group: with one group in common, p never owes us two
// heartbeats in one datagram, so no run could form and announcing would
// only cost bytes.
//
//leadervet:hotpath
func (rp *runPeers) leaving(p id.Process, now time.Time) (runs, announce bool) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	e := rp.m[p]
	if e == nil {
		return false, false
	}
	if e.monitors >= 2 && now.Sub(e.announced) >= announceRunsEvery {
		e.announced, announce = now, true
	}
	return e.runs, announce
}

// wireCaps is the node's answer to its outbound port about a datagram
// leaving for to (see outbound.Scheduler.Port): whether it codes runs, and
// the announcement, from the send pool, when one is due.
//
//leadervet:acquires 1
//leadervet:hotpath
func (n *Node) wireCaps(to id.Process) (bool, wire.Message) {
	runs, announce := n.shared.runs.leaving(to, n.rt.Now())
	if !announce {
		return runs, nil
	}
	a := wire.GetAliveRun()
	a.Sender, a.Incarnation = n.self, n.inc
	return runs, a
}
