package wire

import "sync"

// Send-side message pooling.
//
// The receive side recycles message structs through each carrier's
// freelists; the send side needs the mirror for what is built per send:
// the Alive every heartbeat stream builds per beat, the Batch envelope
// (and its message slice) every coalesced datagram leaves in — at rest,
// one per peer per heartbeat — the STANDBY and RATE riding them, the run
// announcement, and LeaderSnapshot, the client-plane fan-out payload. A
// leader-change edge under 10k subscribers builds 10k snapshot structs in
// one burst, and before pooling that burst dominated the fan-out's
// allocation profile (BenchmarkFanout: 1001 allocs per 1000-subscriber
// publication).
//
// The contract mirrors the outbound ownership chain: the producer (the
// pacer, the subscriber registry, the outbound scheduler) obtains a struct
// from a Get function here, hands it to the node's send path, and never
// touches it again; the host that consumes the message — the real-time
// service, which marshals it into a datagram and drops it — returns it
// through ReleaseOutbound after the bytes are on the wire. Hosts that
// retain messages past Send (the simulator's in-flight virtual datagrams,
// test harnesses that inspect traffic) simply never call ReleaseOutbound:
// the pool misses and the producer allocates, which is correct, just not
// free.
var snapshotPool = sync.Pool{New: func() any { return new(LeaderSnapshot) }}

// GetLeaderSnapshot returns a zeroed LeaderSnapshot, recycled when the
// consuming host releases them through ReleaseOutbound.
//
//leadervet:acquires
func GetLeaderSnapshot() *LeaderSnapshot {
	return snapshotPool.Get().(*LeaderSnapshot)
}

var alivePool = sync.Pool{New: func() any { return new(Alive) }}

// GetAlive returns a zeroed Alive, recycled when the consuming host
// releases it through ReleaseOutbound.
//
//leadervet:acquires
func GetAlive() *Alive {
	return alivePool.Get().(*Alive)
}

var standbyPool = sync.Pool{New: func() any { return new(Standby) }}

// GetStandby returns a zeroed Standby, recycled when the consuming host
// releases it through ReleaseOutbound.
//
//leadervet:acquires
func GetStandby() *Standby {
	return standbyPool.Get().(*Standby)
}

var ratePool = sync.Pool{New: func() any { return new(Rate) }}

// GetRate returns a zeroed Rate, recycled when the consuming host releases
// it through ReleaseOutbound.
//
//leadervet:acquires
func GetRate() *Rate {
	return ratePool.Get().(*Rate)
}

var runPool = sync.Pool{New: func() any { return new(AliveRun) }}

// GetAliveRun returns a zeroed AliveRun, recycled when the consuming host
// releases it through ReleaseOutbound.
//
//leadervet:acquires
func GetAliveRun() *AliveRun {
	return runPool.Get().(*AliveRun)
}

var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// GetBatch returns an empty Batch envelope whose Msgs slice keeps the
// capacity of its previous datagram, recycled when the consuming host
// releases it through ReleaseOutbound.
//
//leadervet:acquires
func GetBatch() *Batch {
	return batchPool.Get().(*Batch)
}

// ReleaseOutbound recycles the pool-managed parts of one emitted datagram:
// a bare message of a kind pooled above, or a Batch envelope with the
// pooled messages it carries. Every other kind is left to the garbage collector — the
// protocol core builds those rarely and may share slices (HELLO member
// rows) that must not be recycled out from under a retainer. The caller
// must own m outright (the outbound scheduler transfers ownership at
// Emit) and must not touch it after the call.
//
//leadervet:releases m
func ReleaseOutbound(m Message) {
	if b, ok := m.(*Batch); ok {
		for _, inner := range b.Msgs {
			releaseOne(inner)
		}
		b.Msgs, b.Runs = kept(b.Msgs), false
		batchPool.Put(b)
		return
	}
	releaseOne(m)
}

// releaseOne recycles one message that is not an envelope.
func releaseOne(m Message) {
	switch t := m.(type) {
	case *Alive:
		*t = Alive{}
		alivePool.Put(t)
	case *LeaderSnapshot:
		*t = LeaderSnapshot{}
		snapshotPool.Put(t)
	case *Standby:
		*t = Standby{}
		standbyPool.Put(t)
	case *Rate:
		*t = Rate{}
		ratePool.Put(t)
	case *AliveRun:
		*t = AliveRun{}
		runPool.Put(t)
	}
}
