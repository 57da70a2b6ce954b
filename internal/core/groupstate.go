package core

import (
	"time"

	"stableleader/id"
	"stableleader/internal/clock"
	"stableleader/internal/election"
	"stableleader/internal/fd"
	"stableleader/internal/group"
	"stableleader/internal/obs"
	"stableleader/internal/wire"
	"stableleader/qos"
)

// Join announcement schedule: the initial JOIN plus retries beat message
// loss; afterwards HELLO gossip keeps membership converged.
const (
	joinAnnounceCount = 4
	joinAnnounceEvery = 300 * time.Millisecond

	// gossipFanout is how many members each gossip round targets.
	gossipFanout = 3

	// minRate/maxRate clamp RATE requests from remote monitors so a
	// confused or malicious peer cannot drive our send rate to extremes.
	minRateInterval = time.Millisecond
	maxRateInterval = 10 * time.Second
)

// Warm-standby plane constants.
const (
	// standbyRefreshEvery is the per-destination re-announcement period of
	// the leader's standby nomination. The STANDBY rides the heartbeat
	// datagram already going to the peer (enqueued on the coalescing path
	// right before the ALIVE), so the refresh repairs announcement loss at
	// zero extra steady-state packets.
	standbyRefreshEvery = time.Second

	// standbyLivenessFactor scales HelloInterval into the window within
	// which a silent follower must have been heard (gossip digests, RATE
	// requests, ...) to stay nominable. ΩL followers stop heartbeating on
	// purpose, so the failure detector legitimately distrusts them and
	// group-maintenance traffic is the only liveness signal left.
	standbyLivenessFactor = 4
)

// monitorEntry pairs a failure detector monitor with the incarnation it
// watches. lastHeard is the liveness evidence for standby nomination:
// when any group traffic arrives from the member (see noteHeard).
type monitorEntry struct {
	mon       *fd.Monitor
	inc       int64
	lastHeard time.Time
}

// destState is the per-(group, destination) heartbeat stream state. The
// timer that used to live here moved into the node-level pacer, which wakes
// once per peer and services every group's stream in one burst.
type destState struct {
	interval time.Duration // requested via RATE; 0 means default
	seq      uint64
	lastSent time.Time
	// standbyAt is when this destination last received a STANDBY
	// announcement; zero forces one onto the next heartbeat (newcomers,
	// nomination changes).
	standbyAt time.Time
}

// groupState is one group's complete machinery on a node. It implements
// election.Env for its algorithm.
type groupState struct {
	n    *Node
	gid  id.Group
	opts JoinOptions

	table    *group.Table
	algo     election.Algorithm
	monitors map[id.Process]*monitorEntry
	dests    map[id.Process]*destState

	active   bool
	lastInfo LeaderInfo

	// Warm-standby plane (loop-owned). As leader, standby/standbyInc is
	// the follower we nominate and announce in the heartbeat stream
	// (standbySeq numbers the announcements); as follower, it is the view
	// adopted from the leader's STANDBY stream, guarded by
	// (standbyFromInc, standbyFromSeq).
	standby        id.Process //leadervet:loopOwned
	standbyInc     int64      //leadervet:loopOwned
	standbySeq     uint64     //leadervet:loopOwned
	standbyFromInc int64      //leadervet:loopOwned
	standbyFromSeq uint64     //leadervet:loopOwned

	// leaderlessAt is when the current leaderless window opened (we held
	// an elected view and lost it); zero while elected or before the
	// first loss. It feeds the observability plane's leaderless-duration
	// histogram on the re-election edge.
	leaderlessAt time.Time //leadervet:loopOwned

	// lastActive is the previous active membership view, kept so that
	// membership changes can be reported as per-member deltas.
	lastActive map[id.Process]group.Member

	// membersCache memoises table.Active() between table changes; the
	// election cores read the membership on every event.
	membersCache   []group.Member
	membersVersion uint64
	membersValid   bool

	// helloCache is the HELLO for table version helloVersion and
	// digestCache its HELLO_DIGEST: both are immutable once built, so every
	// gossip round, greeting and reply between two table changes shares
	// them. helloSentTo is when each peer was last answered with the full
	// HELLO, the bound of the reply rule. gossipPeers and statusScratch are
	// the gossip round's and the status snapshot's working slices, kept so
	// the periodic duties allocate nothing.
	helloCache    *wire.Hello              //leadervet:loopOwned
	digestCache   *wire.HelloDigest        //leadervet:loopOwned
	helloVersion  uint64                   //leadervet:loopOwned
	helloSentTo   map[id.Process]time.Time //leadervet:loopOwned
	gossipPeers   []id.Process             //leadervet:loopOwned
	statusScratch []MemberStatus           //leadervet:loopOwned

	helloTimer clock.Rearmer
	joinTimer  clock.Rearmer
	joinsLeft  int

	stopped bool
}

var _ election.Env = (*groupState)(nil)

func newGroupState(n *Node, gid id.Group, opts JoinOptions) *groupState {
	gs := &groupState{
		n:           n,
		gid:         gid,
		opts:        opts,
		table:       group.NewTable(),
		monitors:    make(map[id.Process]*monitorEntry),
		dests:       make(map[id.Process]*destState),
		helloSentTo: make(map[id.Process]time.Time),
	}
	gs.helloTimer = clock.NewTimer(n.rt, gs.helloTick)
	gs.joinTimer = clock.NewTimer(n.rt, gs.announceJoin)
	return gs
}

// start runs the join sequence: seed the table with ourselves, start the
// election core, announce the join, and begin gossiping.
func (gs *groupState) start() {
	gs.table.Upsert(group.Member{
		ID:          gs.n.self,
		Incarnation: gs.n.inc,
		Candidate:   gs.opts.Candidate,
	})
	gs.algo = election.New(gs.opts.Algorithm, gs)
	gs.lastInfo = LeaderInfo{Group: gs.gid, At: gs.n.rt.Now()}
	// Seed the delta baseline with the initial view (just ourselves) so
	// OnMembership reports only changes after the join.
	gs.lastActive = map[id.Process]group.Member{}
	for _, m := range gs.table.Active() {
		gs.lastActive[m.ID] = m
	}
	gs.algo.Start()
	gs.syncPeers()
	gs.joinsLeft = joinAnnounceCount
	gs.announceJoin()
	gs.scheduleHello()
	// The startup grace hides self-claims time-dependently; re-evaluate the
	// reported leader the moment it expires (plus a hair, so Now() is
	// strictly past the deadline).
	gs.n.rt.AfterFunc(gs.StartupGrace()+time.Millisecond, func() {
		if !gs.stopped {
			gs.afterEvent()
		}
	})
	gs.afterEvent()
	gs.publishStatus()
}

// --- election.Env -----------------------------------------------------

// Self implements election.Env.
func (gs *groupState) Self() id.Process { return gs.n.self }

// Incarnation implements election.Env.
func (gs *groupState) Incarnation() int64 { return gs.n.inc }

// Now implements election.Env.
func (gs *groupState) Now() time.Time { return gs.n.rt.Now() }

// Members implements election.Env.
func (gs *groupState) Members() []group.Member {
	if !gs.membersValid || gs.membersVersion != gs.table.Version() {
		gs.membersCache = gs.table.Active()
		gs.membersVersion = gs.table.Version()
		gs.membersValid = true
	}
	return gs.membersCache
}

// SendAccuse implements election.Env. Accusations are latency-critical
// (they close the window in which a demoted leader can flap back), so they
// bypass coalescing and flush the peer's staged traffic with them.
func (gs *groupState) SendAccuse(to id.Process, targetInc int64, phase uint32) {
	// An accusation is the rank-change half of an election: it raises the
	// target's accusation time everywhere it lands.
	gs.n.obs.Inc(obs.CAccusationsOut)
	gs.n.obs.Record(obs.KindRankChange, gs.gid, to, targetInc, int64(phase), gs.n.rt.Now())
	gs.n.sendNow(to, &wire.Accuse{
		Group:             gs.gid,
		Sender:            gs.n.self,
		Incarnation:       gs.n.inc,
		TargetIncarnation: targetInc,
		Phase:             phase,
		At:                gs.n.rt.Now().UnixNano(),
	})
}

// StartupGrace implements election.Env: one detection time is long enough
// for a live incumbent's heartbeat to reach a fresh joiner.
func (gs *groupState) StartupGrace() time.Duration {
	if gs.opts.DisableStartupGrace {
		return 0
	}
	return gs.opts.QoS.DetectionTime
}

// SetActive implements election.Env: it switches ALIVE emission on or off.
// Activation registers a heartbeat stream per destination with the node's
// pacer, which greets each immediately (election rounds must not wait a
// full interval).
func (gs *groupState) SetActive(active bool) {
	if gs.active == active || gs.stopped {
		return
	}
	gs.active = active
	for _, dest := range sortedKeys(gs.dests) {
		if active {
			gs.n.registerStream(gs, dest, gs.dests[dest])
		} else {
			gs.n.dropStream(gs.gid, dest)
		}
	}
}

// --- heartbeats --------------------------------------------------------

// intervalFor is the heartbeat interval toward a destination: what the
// destination requested via RATE, or TdU/5 until it does.
func (gs *groupState) intervalFor(ds *destState) time.Duration {
	if ds.interval > 0 {
		return ds.interval
	}
	return gs.defaultInterval()
}

// defaultInterval is the heartbeat interval of a stream nobody has sent a
// RATE for.
func (gs *groupState) defaultInterval() time.Duration {
	return gs.opts.QoS.DetectionTime / 5
}

// sendAliveTo emits one heartbeat to dest through the coalescing path.
// When we lead and the destination's standby announcement is due, the
// STANDBY is enqueued right before the ALIVE so both coalesce into the one
// datagram already leaving — the piggyback that keeps the standby plane at
// zero extra steady-state packets.
//
//leadervet:onLoop
func (gs *groupState) sendAliveTo(dest id.Process, ds *destState) {
	gs.announceStandby(dest, ds)
	ds.seq++
	ds.lastSent = gs.n.rt.Now()
	m := wire.GetAlive()
	m.Group = gs.gid
	m.Sender = gs.n.self
	m.Incarnation = gs.n.inc
	m.Seq = ds.seq
	m.SendTime = ds.lastSent.UnixNano()
	m.Interval = int64(gs.intervalFor(ds))
	gs.algo.FillAlive(m)
	gs.n.sendLazy(dest, m) //leadervet:handoff — the host's send path releases it
}

// announceStandby enqueues the STANDBY announcement due for a heartbeat
// destination, if any: non-leaders announce nothing, and a leader
// re-announces per destination only every standbyRefreshEvery (loss
// repair) or immediately after a nomination change (standbyAt zeroed).
//
//leadervet:onLoop
func (gs *groupState) announceStandby(dest id.Process, ds *destState) {
	if gs.opts.DisableHandover {
		return
	}
	info := gs.lastInfo
	if !info.Elected || info.Leader != gs.n.self {
		return
	}
	now := gs.n.rt.Now()
	if !ds.standbyAt.IsZero() && now.Sub(ds.standbyAt) < standbyRefreshEvery {
		return
	}
	ds.standbyAt = now
	gs.standbySeq++
	m := wire.GetStandby()
	m.Group, m.Sender, m.Incarnation = gs.gid, gs.n.self, gs.n.inc
	m.Seq, m.Standby, m.StandbyInc = gs.standbySeq, gs.standby, gs.standbyInc
	gs.n.sendLazy(dest, m) //leadervet:handoff — the host's send path releases it
}

// --- peer bookkeeping ---------------------------------------------------

// syncPeers reconciles monitors and heartbeat destinations with the current
// membership: one monitor and one destination per fellow active member.
// All iteration is in id order so runs are reproducible.
func (gs *groupState) syncPeers() {
	members := gs.table.Active() // sorted by id
	want := make(map[id.Process]group.Member, len(members))
	for _, m := range members {
		if m.ID != gs.n.self {
			want[m.ID] = m
		}
	}
	// Drop peers that left (or whose incarnation was superseded: their
	// monitor must restart from scratch).
	for _, p := range sortedKeys(gs.monitors) {
		entry := gs.monitors[p]
		m, ok := want[p]
		if ok && m.Incarnation == entry.inc {
			continue
		}
		entry.mon.Stop()
		gs.n.shared.runs.unmonitor(p)
		delete(gs.monitors, p)
	}
	for _, p := range sortedKeys(gs.dests) {
		if _, ok := want[p]; ok {
			continue
		}
		gs.n.dropStream(gs.gid, p)
		delete(gs.dests, p)
	}
	// Add new peers in id order.
	for _, m := range members {
		p := m.ID
		if p == gs.n.self {
			continue
		}
		if _, ok := gs.monitors[p]; !ok {
			gs.monitors[p] = gs.newMonitor(p, m.Incarnation)
		}
		if _, ok := gs.dests[p]; !ok {
			ds := &destState{}
			gs.dests[p] = ds
			if gs.active {
				// Registration greets the newcomer immediately so it
				// adopts a leader without waiting a full interval.
				gs.n.registerStream(gs, p, ds)
			}
		}
	}
}

// newMonitor builds the failure detector for peer p.
func (gs *groupState) newMonitor(p id.Process, inc int64) *monitorEntry {
	gs.n.shared.runs.monitor(p, inc)
	entry := &monitorEntry{inc: inc}
	entry.mon = fd.NewMonitor(fd.Config{
		Clock:     gs.n.rt,
		Spec:      gs.opts.QoS,
		Estimator: gs.n.estimatorFor(p, inc),
		OnEdge: func(trusted bool) {
			if gs.stopped {
				return
			}
			// Recorded before the algorithm reacts, so a crash-driven
			// election dumps as suspect → rank-change → leader-change.
			if trusted {
				gs.n.obs.Inc(obs.CTrustRestored)
				gs.n.obs.Record(obs.KindTrust, gs.gid, p, entry.inc, 0, gs.n.rt.Now())
			} else {
				gs.n.obs.Inc(obs.CSuspicions)
				gs.n.obs.Record(obs.KindSuspect, gs.gid, p, entry.inc, 0, gs.n.rt.Now())
			}
			if gs.opts.OnTrustChange != nil {
				gs.opts.OnTrustChange(p, entry.inc, trusted)
			}
			if trusted {
				gs.algo.HandleTrust(p, entry.inc)
			} else {
				gs.algo.HandleSuspect(p)
			}
			gs.afterEvent()
			gs.publishStatus()
			// A trust edge changes nomination eligibility; re-rank.
			gs.nominateStandby()
		},
		RequestRate: func(interval time.Duration) {
			m := wire.GetRate()
			m.Group, m.Sender, m.Incarnation, m.Interval = gs.gid, gs.n.self, gs.n.inc, int64(interval)
			gs.n.sendLazy(p, m) //leadervet:handoff — the host's send path releases it
		},
		OnReconfigure: func(params qos.Params) {
			if gs.stopped {
				return
			}
			if gs.opts.OnReconfigured != nil {
				gs.opts.OnReconfigured(p, params)
			}
			gs.publishStatus()
		},
		ReconfigureInterval: gs.opts.ReconfigureInterval,
		Rate:                gs.n.shared.Rates.For(p, gs.opts.QoS),
		Obs:                 gs.n.obs,
	})
	return entry
}

// ObserveDropout implements election.Observer: the core reports a
// voluntary competition drop-out (ΩL's phase bump, which keeps the
// suspicions our deliberate silence causes from raising our accusation
// time). Runs on the loop like every Env callback.
//
//leadervet:onLoop
func (gs *groupState) ObserveDropout(phase uint32) {
	gs.n.obs.Inc(obs.CDropouts)
	gs.n.obs.Record(obs.KindRankChange, gs.gid, gs.n.self, gs.n.inc, int64(phase), gs.n.rt.Now())
}

// --- group maintenance ---------------------------------------------------

// announceJoin broadcasts JOIN to the seeds and the currently known
// members, with a few retries to beat message loss.
func (gs *groupState) announceJoin() {
	if gs.stopped || gs.joinsLeft <= 0 {
		return
	}
	gs.joinsLeft--
	targets := make(map[id.Process]bool)
	for _, s := range gs.opts.Seeds {
		if s != gs.n.self {
			targets[s] = true
		}
	}
	for _, m := range gs.table.Active() {
		if m.ID != gs.n.self {
			targets[m.ID] = true
		}
	}
	msg := &wire.Join{
		Group:       gs.gid,
		Sender:      gs.n.self,
		Incarnation: gs.n.inc,
		Candidate:   gs.opts.Candidate,
	}
	for _, p := range sortedKeys(targets) {
		gs.n.sendLazy(p, msg)
	}
	if gs.joinsLeft > 0 {
		gs.joinTimer.Reset(joinAnnounceEvery)
	}
}

// scheduleHello arms the next gossip round with jitter so rounds desync
// across the group — in eighths of the gossip period, on the beat grid, so
// that the rounds of a node's many groups share wake-ups (and, toward a
// peer it sends no heartbeats, datagrams: an eighth is how long such a
// HELLO waits for company anyway). Rounding to the nearest slot keeps the
// mean period.
func (gs *groupState) scheduleHello() {
	jitter := 0.75 + 0.5*gs.n.rt.Rand().Float64()
	slot := gs.opts.HelloInterval / 8
	now := gs.n.rt.Now()
	at := now.Add(time.Duration(float64(gs.opts.HelloInterval)*jitter) - slot/2)
	gs.helloTimer.Reset(clock.NextBeat(at, slot).Sub(now))
}

// helloTick is one gossip round; it re-arms itself. The round also
// re-ranks the standby nomination: link estimates drift between trust
// edges, and the gossip cadence is a cheap place to track them.
func (gs *groupState) helloTick() {
	if gs.stopped {
		return
	}
	gs.gossip()
	gs.scheduleHello()
	gs.nominateStandby()
}

// gossip sends the digest of the membership table to a few random
// members; a member whose table differs answers with its own full HELLO
// (see handleHelloDigest), so the table itself travels only on change.
// The round also forgets the replies old enough not to bound the next.
//
//leadervet:onLoop
func (gs *groupState) gossip() {
	now := gs.n.rt.Now()
	for p, at := range gs.helloSentTo {
		if now.Sub(at) >= gs.opts.HelloInterval {
			delete(gs.helloSentTo, p)
		}
	}
	peers := gs.gossipPeers[:0]
	for _, m := range gs.Members() {
		if m.ID != gs.n.self {
			peers = append(peers, m.ID)
		}
	}
	gs.gossipPeers = peers
	if len(peers) == 0 {
		return
	}
	rng := gs.n.rt.Rand()
	rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	digest := gs.digest()
	for _, p := range peers[:min(gossipFanout, len(peers))] {
		gs.n.sendBackground(p, digest, gs.opts.HelloInterval)
	}
}

// digest returns the HELLO_DIGEST of our membership table, built and
// cached together with the HELLO it summarises.
//
//leadervet:onLoop
func (gs *groupState) digest() *wire.HelloDigest {
	gs.hello()
	return gs.digestCache
}

// hello returns the HELLO carrying our full membership table, built once
// per table version together with its digest: both are immutable, so
// their targets — and every round until the table changes — share them
// like the targets of a JOIN do.
//
//leadervet:onLoop
func (gs *groupState) hello() *wire.Hello {
	if gs.helloCache != nil && gs.helloVersion == gs.table.Version() {
		return gs.helloCache
	}
	rows := gs.table.Snapshot()
	members := make([]wire.MemberInfo, len(rows))
	for i, r := range rows {
		members[i] = wire.MemberInfo{
			ID:          r.ID,
			Incarnation: r.Incarnation,
			Candidate:   r.Candidate,
			Left:        r.Left,
		}
	}
	gs.helloCache = &wire.Hello{
		Group:       gs.gid,
		Sender:      gs.n.self,
		Incarnation: gs.n.inc,
		Members:     members,
	}
	gs.digestCache = &wire.HelloDigest{
		Group:       gs.gid,
		Sender:      gs.n.self,
		Incarnation: gs.n.inc,
		Digest:      wire.TableDigest(members),
	}
	gs.helloVersion = gs.table.Version()
	return gs.helloCache
}

// answerHello sends p our full HELLO: the answer to a digest that differs
// from ours, or to a HELLO that lacks some of our table. Because the
// table is a state CRDT, an exchange is at most digest → HELLO → HELLO
// and leaves both tables equal. Answers to one peer are bounded to one
// per HelloInterval, so a peer whose digest never matches ours (hostile,
// colliding, or of another version) costs no more than full-table gossip.
//
//leadervet:onLoop
func (gs *groupState) answerHello(p id.Process) {
	if gs.stopped {
		return
	}
	now := gs.n.rt.Now()
	if at, ok := gs.helloSentTo[p]; ok && now.Sub(at) < gs.opts.HelloInterval {
		return
	}
	gs.helloSentTo[p] = now
	gs.n.sendBackground(p, gs.hello(), gs.opts.HelloInterval)
}

// covers reports whether rows — a HELLO already merged into our table —
// are exactly our table: as many rows, in strictly increasing id order
// (so none counts twice), each equal to ours.
func (gs *groupState) covers(rows []wire.MemberInfo) bool {
	if len(rows) != gs.table.Len() {
		return false
	}
	for i, r := range rows {
		if i > 0 && rows[i-1].ID >= r.ID {
			return false
		}
		if m, ok := gs.table.Get(r.ID); !ok || m != memberOf(r) {
			return false
		}
	}
	return true
}

// memberOf is the table row a HELLO row stands for.
func memberOf(r wire.MemberInfo) group.Member {
	return group.Member{ID: r.ID, Incarnation: r.Incarnation, Candidate: r.Candidate, Left: r.Left}
}

// --- message handlers -----------------------------------------------------

// noteHeard records group traffic from p as liveness evidence for standby
// nomination: ΩL followers stop heartbeating on purpose, so the failure
// detector legitimately distrusts them and gossip (digests above all) and
// RATE receipt are the only signal that they are still there.
func (gs *groupState) noteHeard(p id.Process, inc int64) {
	if entry, ok := gs.monitors[p]; ok && entry.inc == inc {
		entry.lastHeard = gs.n.rt.Now()
	}
}

//leadervet:hotpath
func (gs *groupState) handleJoin(m *wire.Join) {
	gs.noteHeard(m.Sender, m.Incarnation)
	changed := gs.table.Upsert(group.Member{
		ID:          m.Sender,
		Incarnation: m.Incarnation,
		Candidate:   m.Candidate,
	})
	if changed {
		gs.onMembershipChange()
		// Greet the newcomer with our table so it converges immediately.
		gs.n.sendLazy(m.Sender, gs.hello())
	}
}

//leadervet:hotpath
func (gs *groupState) handleLeave(m *wire.Leave) {
	changed := gs.table.Upsert(group.Member{
		ID:          m.Sender,
		Incarnation: m.Incarnation,
		Left:        true,
	})
	if changed {
		gs.onMembershipChange()
	}
}

//leadervet:hotpath
func (gs *groupState) handleHello(m *wire.Hello) {
	gs.noteHeard(m.Sender, m.Incarnation)
	// Row by row straight off the wire struct (the table keeps rows by
	// value): a HELLO, one per peer per gossip round, allocates nothing.
	changed := false
	for _, r := range m.Members {
		if gs.table.Upsert(memberOf(r)) {
			changed = true
		}
	}
	if changed {
		gs.onMembershipChange()
	}
	if !gs.covers(m.Members) {
		gs.answerHello(m.Sender)
	}
}

// handleHelloDigest takes a gossip round's digest as liveness evidence
// and answers one that differs from ours with our full HELLO.
//
//leadervet:hotpath
func (gs *groupState) handleHelloDigest(m *wire.HelloDigest) {
	gs.noteHeard(m.Sender, m.Incarnation)
	if m.Digest != gs.digest().Digest {
		gs.answerHello(m.Sender)
	}
}

//leadervet:hotpath
func (gs *groupState) handleAlive(m *wire.Alive) {
	member, ok := gs.table.Get(m.Sender)
	if !ok || member.Left || member.Incarnation != m.Incarnation {
		// Unknown or stale incarnation: membership will catch up through
		// the JOIN retries or gossip; judging liveness from unattributable
		// heartbeats would be unsound.
		return
	}
	now := gs.n.rt.Now()
	delay := now.Sub(time.Unix(0, m.SendTime))
	gs.n.estimatorFor(m.Sender, m.Incarnation).Observe(gs.gid, m.Seq, delay)
	if entry, ok := gs.monitors[m.Sender]; ok {
		entry.lastHeard = now
		entry.mon.Observe(time.Unix(0, m.SendTime), time.Duration(m.Interval), now)
	}
	if gs.stopped {
		// The trust edge may have torn the group down (callback side
		// effects); bail out before touching the algorithm.
		return
	}
	gs.algo.HandleAlive(m)
	gs.afterEvent()
}

//leadervet:hotpath
func (gs *groupState) handleAccuse(m *wire.Accuse) {
	gs.noteHeard(m.Sender, m.Incarnation)
	gs.n.obs.Inc(obs.CAccusationsIn)
	gs.algo.HandleAccuse(m)
	gs.afterEvent()
}

//leadervet:hotpath
func (gs *groupState) handleRate(m *wire.Rate) {
	gs.noteHeard(m.Sender, m.Incarnation)
	ds, ok := gs.dests[m.Sender]
	if !ok {
		return
	}
	interval := time.Duration(m.Interval)
	if interval < minRateInterval {
		interval = minRateInterval
	}
	if interval > maxRateInterval {
		interval = maxRateInterval
	}
	if ds.interval == interval {
		return
	}
	ds.interval = interval
	if gs.active {
		gs.n.retimeStream(gs.gid, m.Sender)
	}
}

// handleStandby adopts the leader's standby nomination. Only the current
// leader's announcements count, and (incarnation, seq) ordering drops
// duplicated or reordered deliveries.
//
//leadervet:onLoop
func (gs *groupState) handleStandby(m *wire.Standby) {
	gs.noteHeard(m.Sender, m.Incarnation)
	if gs.opts.DisableHandover {
		return
	}
	info := gs.lastInfo
	if !info.Elected || info.Leader != m.Sender || info.Incarnation != m.Incarnation {
		return
	}
	if m.Incarnation == gs.standbyFromInc && m.Seq <= gs.standbyFromSeq {
		return
	}
	gs.standbyFromInc, gs.standbyFromSeq = m.Incarnation, m.Seq
	gs.setStandby(m.Standby, m.StandbyInc)
}

// handleHandover feeds a planned handover to the election core; the core
// itself guards that the sender is our current leader.
func (gs *groupState) handleHandover(m *wire.Handover) {
	gs.noteHeard(m.Sender, m.Incarnation)
	if gs.opts.DisableHandover {
		return
	}
	gs.n.obs.Inc(obs.CHandoversRecv)
	gs.n.obs.Record(obs.KindHandover, gs.gid, m.Successor, m.SuccessorInc, 0, gs.n.rt.Now())
	gs.applyHandover(m)
}

// applyHandover feeds a handover to the election core and puts the
// successor under failure detection. A standby that was silent until now
// (ΩL followers send nothing) was never trusted by its monitor, so the
// monitor would never report its crash either, and a successor dying before
// its first heartbeat would lead this node's view forever. The departing
// leader vouched for it by nominating it; taking that as one heartbeat at
// the default interval arms the freshness deadline, and from here on the
// successor heartbeats in time or is suspected like any leader.
//
//leadervet:onLoop
func (gs *groupState) applyHandover(m *wire.Handover) {
	gs.algo.HandleHandover(m)
	if entry, ok := gs.monitors[m.Successor]; ok && entry.inc == m.SuccessorInc && !entry.mon.Trusted() {
		now := gs.n.rt.Now()
		entry.mon.Observe(now, gs.defaultInterval(), now)
	}
	gs.afterEvent()
}

// onMembershipChange reconciles peers, reports membership deltas, and
// informs the algorithm.
func (gs *groupState) onMembershipChange() {
	gs.syncPeers()
	gs.reportMembershipDelta()
	gs.algo.HandleMembership()
	gs.afterEvent()
	gs.publishStatus()
	gs.nominateStandby()
}

// reportMembershipDelta diffs the active view against the previous one and
// fires OnMembership for each member that entered or left it. A member
// superseded by a newer incarnation reports as leave-then-join.
func (gs *groupState) reportMembershipDelta() {
	cur := gs.Members() // sorted by id; also primes the memoised cache
	next := make(map[id.Process]group.Member, len(cur))
	for _, m := range cur {
		next[m.ID] = m
	}
	if gs.opts.OnMembership == nil {
		gs.lastActive = next
		return
	}
	// Departures first (in id order, for reproducibility).
	for _, p := range sortedKeys(gs.lastActive) {
		old := gs.lastActive[p]
		m, ok := next[p]
		if !ok || m.Incarnation != old.Incarnation {
			gs.opts.OnMembership(old, false)
		}
	}
	for _, m := range cur {
		old, ok := gs.lastActive[m.ID]
		if !ok || old.Incarnation != m.Incarnation {
			gs.opts.OnMembership(m, true)
		}
	}
	gs.lastActive = next
}

// --- leadership notification ----------------------------------------------

// appendStatusRows appends the group's membership/FD status, sorted by
// member id: the rows behind Node.Status and the OnStatus snapshots.
func (gs *groupState) appendStatusRows(out []MemberStatus) []MemberStatus {
	for _, m := range gs.Members() {
		st := MemberStatus{
			ID:          m.ID,
			Incarnation: m.Incarnation,
			Candidate:   m.Candidate,
			Self:        m.ID == gs.n.self,
			Trusted:     m.ID == gs.n.self,
		}
		if entry, ok := gs.monitors[m.ID]; ok {
			st.Trusted = entry.mon.Trusted()
			p := entry.mon.Params()
			st.Interval, st.Timeout = p.Interval, p.Timeout
		}
		out = append(out, st)
	}
	return out
}

// publishStatus shows the host the current status rows. Called at every
// status-visible edge — membership deltas, trust edges, reconfigurations
// — never per heartbeat; the rows are built in place, so the one copy an
// edge costs is the host's.
//
//leadervet:onLoop
func (gs *groupState) publishStatus() {
	if gs.stopped || gs.opts.OnStatus == nil {
		return
	}
	gs.statusScratch = gs.appendStatusRows(gs.statusScratch[:0])
	gs.opts.OnStatus(gs.statusScratch)
}

// currentInfo derives the LeaderInfo from the algorithm's present answer.
func (gs *groupState) currentInfo() LeaderInfo {
	m, ok := gs.algo.Leader()
	if !ok {
		return LeaderInfo{Group: gs.gid, At: gs.lastInfo.At}
	}
	return LeaderInfo{
		Group:       gs.gid,
		Leader:      m.ID,
		Incarnation: m.Incarnation,
		Elected:     true,
		At:          gs.lastInfo.At,
	}
}

// afterEvent runs after every event delivered to the algorithm: it detects
// leader view changes and fires the interrupt callback.
func (gs *groupState) afterEvent() {
	if gs.stopped {
		return
	}
	info := gs.currentInfo()
	if info.Same(gs.lastInfo) {
		return
	}
	info.At = gs.n.rt.Now()
	prev := gs.lastInfo
	gs.lastInfo = info
	gs.noteLeaderEdge(prev, info)
	if gs.opts.OnLeaderChange != nil {
		gs.opts.OnLeaderChange(info)
	}
	if gs.n.subs != nil {
		// The client plane shares the interrupt edge: remote subscribers
		// learn of the change in the same event that notified local ones.
		gs.n.subs.PublishLeaderChange(gs.gid, clientView(info))
	}
	gs.onLeaderEdge(info)
}

// noteLeaderEdge feeds the observability plane at every leader-view
// change: election counters, the flight record, and the leaderless-
// duration histogram (a window opens when an elected view is lost and
// closes when the next one is adopted — startup convergence does not
// count, matching the accounting in internal/metrics).
//
//leadervet:onLoop
func (gs *groupState) noteLeaderEdge(prev, info LeaderInfo) {
	o := gs.n.obs
	if o == nil {
		return
	}
	if info.Elected {
		o.Inc(obs.CLeaderChanges)
		if info.Leader == gs.n.self {
			o.Inc(obs.CElectionsWon)
		}
		if !gs.leaderlessAt.IsZero() {
			o.ObserveLeaderless(info.At.Sub(gs.leaderlessAt))
			gs.leaderlessAt = time.Time{}
		}
	} else {
		o.Inc(obs.CElectionsStarted)
		gs.leaderlessAt = info.At
	}
	if prev.Elected && prev.Leader == gs.n.self && (!info.Elected || info.Leader != gs.n.self) {
		o.Inc(obs.CDemotions)
	}
	o.Record(obs.KindLeaderChange, gs.gid, info.Leader, info.Incarnation, 0, info.At)
}

// onLeaderEdge maintains the standby plane across leadership changes: a
// fresh leader nominates immediately, and a follower whose adopted standby
// just became the leader clears the consumed nomination.
//
//leadervet:onLoop
func (gs *groupState) onLeaderEdge(info LeaderInfo) {
	if info.Elected && info.Leader == gs.n.self {
		gs.nominateStandby()
		return
	}
	if info.Elected && gs.standby == info.Leader && gs.standbyInc == info.Incarnation {
		gs.setStandby("", 0)
	}
}

// --- warm standby & planned handover --------------------------------------

// setStandby records the current standby view and fires the host callback
// on change.
//
//leadervet:onLoop
func (gs *groupState) setStandby(p id.Process, inc int64) {
	if gs.standby == p && gs.standbyInc == inc {
		return
	}
	gs.standby, gs.standbyInc = p, inc
	if p != "" {
		gs.n.obs.Inc(obs.CStandbyNominations)
	}
	gs.n.obs.Record(obs.KindStandby, gs.gid, p, inc, 0, gs.n.rt.Now())
	if gs.opts.OnStandbyChange != nil {
		gs.opts.OnStandbyChange(p, inc)
	}
}

// nominateStandby re-evaluates the leader's choice of warm standby. On a
// change, every destination's announcement clock is zeroed so the next
// heartbeat to each peer carries the new nomination.
//
//leadervet:onLoop
func (gs *groupState) nominateStandby() {
	if gs.stopped || gs.opts.DisableHandover {
		return
	}
	info := gs.lastInfo
	if !info.Elected || info.Leader != gs.n.self {
		return
	}
	p, inc := gs.bestFollower()
	if p == gs.standby && inc == gs.standbyInc {
		return
	}
	gs.setStandby(p, inc)
	for _, dest := range sortedKeys(gs.dests) {
		gs.dests[dest].standbyAt = time.Time{}
	}
}

// bestFollower picks the standby: the live candidate follower with the best
// link to us, preferring failure-detector trust, then lowest estimated loss,
// then lowest mean delay, then smallest id. Under ΩL followers are silent on
// purpose, so untrusted members heard from recently (gossip, RATE)
// remain eligible. Under Ωid the handover carries no rank, and the LEAVE
// that follows elects the smallest remaining id — nominate exactly that so
// the successor hint matches what the group will actually do.
func (gs *groupState) bestFollower() (id.Process, int64) {
	now := gs.n.rt.Now()
	window := time.Duration(standbyLivenessFactor) * gs.opts.HelloInterval
	var bestID id.Process
	var bestInc int64
	var bestTrusted bool
	var bestLoss float64
	var bestDelay time.Duration
	found := false
	for _, m := range gs.Members() { // sorted by id: deterministic ties
		if m.ID == gs.n.self || !m.Candidate {
			continue
		}
		entry, ok := gs.monitors[m.ID]
		if !ok || entry.inc != m.Incarnation {
			continue
		}
		trusted := entry.mon.Trusted()
		if !trusted && (entry.lastHeard.IsZero() || now.Sub(entry.lastHeard) > window) {
			continue
		}
		if gs.opts.Algorithm == election.OmegaID {
			// First eligible in id order is the next leader after our LEAVE.
			return m.ID, m.Incarnation
		}
		st := gs.n.estimatorFor(m.ID, m.Incarnation).Snapshot()
		if found && !followerBetter(trusted, st.Loss, st.MeanDelay, bestTrusted, bestLoss, bestDelay) {
			continue
		}
		bestID, bestInc = m.ID, m.Incarnation
		bestTrusted, bestLoss, bestDelay = trusted, st.Loss, st.MeanDelay
		found = true
	}
	if !found {
		return "", 0
	}
	return bestID, bestInc
}

// followerBetter is the strict nomination order: trust beats distrust, then
// lower loss, then lower delay. Equal candidates keep the incumbent (the
// smaller id, by iteration order).
func followerBetter(aTrusted bool, aLoss float64, aDelay time.Duration, bTrusted bool, bLoss float64, bDelay time.Duration) bool {
	if aTrusted != bTrusted {
		return aTrusted
	}
	if aLoss != bLoss {
		return aLoss < bLoss
	}
	return aDelay < bDelay
}

// performHandover executes a planned handover if we lead and a standby is
// available: broadcast HANDOVER granting the standby the group-minimal rank,
// then self-apply so our own view (and the tombstone derived from it) names
// the successor. Urgent handovers (deposition) flush immediately; lazy ones
// (leave) stay staged so the LEAVE that follows flushes [HANDOVER, LEAVE]
// to each peer as one datagram.
//
//leadervet:onLoop
func (gs *groupState) performHandover(urgent bool) (id.Process, int64, bool) {
	if gs.stopped || gs.opts.DisableHandover {
		return "", 0, false
	}
	grant, ok := gs.algo.HandoverGrant()
	if !ok {
		return "", 0, false
	}
	// Re-nominate at the last moment: the standby view may predate a
	// membership change.
	gs.nominateStandby()
	succ, succInc := gs.standby, gs.standbyInc
	if succ == "" {
		return "", 0, false
	}
	m := &wire.Handover{
		Group:        gs.gid,
		Sender:       gs.n.self,
		Incarnation:  gs.n.inc,
		Successor:    succ,
		SuccessorInc: succInc,
		GrantAcc:     grant,
		At:           gs.n.rt.Now().UnixNano(),
	}
	for _, mem := range gs.table.Active() {
		if mem.ID == gs.n.self {
			continue
		}
		if urgent {
			gs.n.sendNow(mem.ID, m)
		} else {
			gs.n.sendLazy(mem.ID, m)
		}
	}
	gs.n.obs.Inc(obs.CHandoversSent)
	gs.n.obs.Record(obs.KindHandover, gs.gid, succ, succInc, 1, gs.n.rt.Now())
	gs.applyHandover(m)
	return succ, succInc, true
}

// depose steps down as leader without leaving the group: the standby takes
// over immediately and we stay as a ranked-last follower.
func (gs *groupState) depose() error {
	if gs.stopped {
		return ErrStopped
	}
	if gs.opts.DisableHandover {
		return ErrNoStandby
	}
	if _, ok := gs.algo.HandoverGrant(); !ok {
		return ErrNotLeader
	}
	if _, _, ok := gs.performHandover(true); !ok {
		return ErrNoStandby
	}
	return nil
}

// --- lifecycle -------------------------------------------------------------

// leave announces departure and tears the group down. A departing leader
// first performs a planned handover: the HANDOVER is staged lazily so the
// urgent LEAVE that follows flushes [HANDOVER, LEAVE] to each peer as one
// datagram — the standby assumes leadership in the same delivery that
// removes us, instead of the group waiting out a detection timeout.
func (gs *groupState) leave() {
	succ, succInc, handedOver := gs.performHandover(false)
	msg := &wire.Leave{Group: gs.gid, Sender: gs.n.self, Incarnation: gs.n.inc}
	for _, m := range gs.table.Active() {
		if m.ID != gs.n.self {
			gs.n.sendNow(m.ID, msg)
		}
	}
	if gs.n.subs != nil {
		// Final tombstone snapshots, flushed urgently: subscribed clients
		// fail over to another service node immediately instead of waiting
		// out their leases against a dead endpoint. After a handover the
		// tombstone carries the successor, so clients re-pin without probing.
		v := clientView(gs.currentInfo())
		if handedOver {
			v.Successor, v.SuccessorInc = succ, succInc
		}
		gs.n.subs.PublishTombstone(gs.gid, v)
	}
	gs.shutdown()
}

// shutdown stops all timers, heartbeat streams and monitors without
// announcing anything (crash semantics).
func (gs *groupState) shutdown() {
	if gs.stopped {
		return
	}
	gs.stopped = true
	gs.algo.Stop()
	for p, entry := range gs.monitors {
		entry.mon.Stop()
		gs.n.shared.runs.unmonitor(p)
	}
	for _, p := range sortedKeys(gs.dests) {
		gs.n.dropStream(gs.gid, p)
	}
	gs.helloTimer.Stop()
	gs.joinTimer.Stop()
}

// sortedKeys returns a map's keys in deterministic order; every peer- or
// group-set iteration must go through it for runs to be reproducible.
func sortedKeys[K ~string, V any](m map[K]V) []K {
	return id.SortedMapKeys(m)
}
