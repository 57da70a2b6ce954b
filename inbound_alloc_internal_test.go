package stableleader

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stableleader/id"
	"stableleader/internal/wire"
)

// TestInboundAllocFreeAtRingDepth pins the receive path's allocation
// contract where it used to break: with the receivers decoding as far
// ahead of the loops as the inbound rings let them — every shard's ring
// full, 256 datagram parts each — a dispatched message costs no heap
// allocation, at any shard count and with receivers decoding
// concurrently. The traffic covers what a carrier has to own: 16-ALIVE
// envelopes spanning the shards (scatter slice), bare ALIVEs, HELLOs with
// member rows (row capacity) and client-plane LEASE_RENEWs.
func TestInboundAllocFreeAtRingDepth(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, receivers := range []int{1, 2} {
			t.Run(fmt.Sprintf("shards=%d/receivers=%d", shards, receivers), func(t *testing.T) {
				testInboundAllocFree(t, shards, receivers)
			})
		}
	}
}

func testInboundAllocFree(t *testing.T, shards, receivers int) {
	const groups = 16
	ctx := context.Background()
	// The test plays the transport's receiver goroutines itself (deliver).
	svc, err := New("self", nullTransport{}, WithSeed(1), WithShards(shards), WithClientPlane())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(ctx)
	gids := make([]id.Group, groups)
	for i := range gids {
		gids[i] = id.Group(fmt.Sprintf("ring%02d", i))
		if _, err := svc.Join(ctx, gids[i], AsCandidate()); err != nil {
			t.Fatal(err)
		}
	}
	delivered := func() int64 { return svc.PacketStats().MessagesIn }
	await := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for delivered() < want {
			if time.Now().After(deadline) {
				t.Fatalf("dispatched %d of %d messages", delivered(), want)
			}
			runtime.Gosched()
		}
	}

	// One synthetic peer and one synthetic client per receiver, members
	// and subscribers of every group before the flood starts.
	var intro int64
	for r := 0; r < receivers; r++ {
		peer, client := id.Process(fmt.Sprintf("peer%d", r)), id.Process(fmt.Sprintf("client%d", r))
		for _, g := range gids {
			svc.deliver(wire.Marshal(&wire.Join{Group: g, Sender: peer, Incarnation: 1, Candidate: true}))
			svc.deliver(wire.Marshal(&wire.Subscribe{Group: g, Sender: client, Incarnation: 1, TTL: int64(time.Minute)}))
			intro += 2
		}
	}
	await(intro)

	// One round is one datagram of each shape: groups+3 messages.
	const perRound = groups + 3
	var sent atomic.Int64 // datagrams handed to the service, all receivers
	flood := func(r, rounds int) {
		peer, client := id.Process(fmt.Sprintf("peer%d", r)), id.Process(fmt.Sprintf("client%d", r))
		alives := make([]*wire.Alive, groups)
		batch := &wire.Batch{}
		for i, g := range gids {
			alives[i] = &wire.Alive{Group: g, Sender: peer, Incarnation: 1, Interval: int64(100 * time.Millisecond)}
			batch.Msgs = append(batch.Msgs, alives[i])
		}
		hello := &wire.Hello{Sender: peer, Incarnation: 1, Members: []wire.MemberInfo{
			{ID: "self", Incarnation: svc.Incarnation(), Candidate: true},
			{ID: peer, Incarnation: 1, Candidate: true},
		}}
		renew := &wire.LeaseRenew{Sender: client, Incarnation: 1, TTL: int64(time.Minute)}
		var buf []byte
		send := func(m wire.Message) {
			buf = wire.MarshalAppend(buf[:0], m)
			svc.deliver(buf)
			sent.Add(1)
		}
		var seq uint64
		for i := 0; i < rounds; i++ {
			now := time.Now().UnixNano()
			seq++
			for _, a := range alives {
				a.Seq, a.SendTime = seq, now
			}
			send(batch)
			seq++
			one := alives[i%groups]
			one.Seq = seq
			send(one)
			hello.Group, renew.Group = gids[i%groups], gids[i%groups]
			send(hello)
			send(renew)
		}
	}
	// run floods rounds rounds from every receiver and waits for their
	// dispatch. With stall set the loops are held first until the
	// receivers have run into full rings: the deepest the plane gets.
	run := func(rounds int, stall bool) {
		base := delivered()
		gate := make(chan struct{})
		if stall {
			for _, sh := range svc.shards {
				sh.enqueue(func() { <-gate })
			}
		}
		var wg sync.WaitGroup
		for r := 0; r < receivers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				flood(r, rounds)
			}(r)
		}
		if stall {
			// Blocked receivers have stopped sending, on a full ring (a
			// starved one has merely stopped sending).
			full := func() bool {
				for _, sh := range svc.shards {
					if len(sh.inbound) == cap(sh.inbound) {
						return true
					}
				}
				return false
			}
			for blocked := false; !blocked; {
				before := sent.Load()
				time.Sleep(2 * time.Millisecond)
				blocked = sent.Load() == before && full()
			}
			for _, sh := range svc.shards {
				if len(sh.inbound) < cap(sh.inbound)*3/4 {
					t.Errorf("shard %d: ring at %d of %d with the receivers blocked", sh.idx, len(sh.inbound), cap(sh.inbound))
				}
			}
		}
		close(gate)
		wg.Wait()
		await(base + int64(receivers*rounds*perRound))
	}

	// The collector drains the carrier pool by design; what is measured
	// here is the path, so it stays out of the measured window.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Warm-up: bring as many carriers into circulation as the rings can
	// ever hold, then run long enough for every one of them to have
	// carried each of the four datagram shapes (a carrier stocks its own
	// store the first time it does).
	for i := 0; i < 3; i++ {
		run(2000, true)
	}
	if !RaceEnabled { // no allocation count to stabilise under the race detector
		run(30000, false)
	}

	const rounds = 5000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(rounds, true)
	runtime.ReadMemStats(&after)
	if RaceEnabled {
		return // sync.Pool drops Puts under the race detector; the run above is for its benefit
	}
	msgs := receivers * rounds * perRound
	per := float64(after.Mallocs-before.Mallocs) / float64(msgs)
	t.Logf("%d allocations over %d dispatched messages = %.4f per message", after.Mallocs-before.Mallocs, msgs, per)
	if per >= 0.01 {
		t.Fatal("want < 0.01 allocations per dispatched message")
	}
}
