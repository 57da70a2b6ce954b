package stableleader_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	stableleader "stableleader"
	"stableleader/id"
	"stableleader/internal/wire"
	"stableleader/qos"
	"stableleader/transport"
)

// wireTap is a transport that counts the datagrams its Service sends and
// reads the interval its heartbeats advertise, which is the one they are
// paced at.
type wireTap struct {
	transport.Transport
	mu        sync.Mutex
	strings   wire.Interner
	datagrams int
	eta       time.Duration // fastest interval advertised since the last reset
}

func (w *wireTap) Send(to id.Process, payload []byte) error {
	c := wire.GetCarrier()
	_, _ = c.Decode(&w.strings, payload)
	w.mu.Lock()
	w.datagrams++
	for _, m := range c.Msgs {
		if a, ok := m.(*wire.Alive); ok && (w.eta == 0 || time.Duration(a.Interval) < w.eta) {
			w.eta = time.Duration(a.Interval)
		}
	}
	w.mu.Unlock()
	c.Release()
	return w.Transport.Send(to, payload)
}

// reset starts a measurement window and returns the last one's figures.
func (w *wireTap) reset() (datagrams int, eta time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	datagrams, eta = w.datagrams, w.eta
	w.datagrams, w.eta = 0, 0
	return datagrams, eta
}

// restRate runs three Services of `shards` event loops each, all members
// of sixteen groups, and returns what the busiest heartbeat source among
// them (p1, unless start-up hiccups moved some leadership) sends at rest:
// datagrams per peer-second, and the heartbeat interval η it runs at. The
// detection time is short so that heartbeats dwarf the one datagram a
// second that the standby announcements, riding them, push past the size
// threshold.
func restRate(shards int) (perPeerSecond float64, eta time.Duration, err error) {
	ctx := context.Background()
	hub := transport.NewInproc(nil)
	peers := []id.Process{"p1", "p2", "p3"}
	spec := qos.Spec{DetectionTime: 200 * time.Millisecond, MistakeRecurrence: 24 * time.Hour, QueryAccuracy: 0.999}
	var taps []*wireTap
	for i, p := range peers {
		tap := &wireTap{Transport: hub.Endpoint(p)}
		taps = append(taps, tap)
		svc, err := stableleader.New(p, tap, stableleader.WithSeed(int64(i+1)), stableleader.WithShards(shards))
		if err != nil {
			return 0, 0, err
		}
		defer svc.Crash()
		for g := 0; g < 16; g++ {
			if _, err := svc.Join(ctx, id.Group(fmt.Sprintf("rest%02d", g)),
				stableleader.AsCandidate(), stableleader.WithQoS(spec), stableleader.WithSeeds(peers...)); err != nil {
				return 0, 0, err
			}
		}
		// p1 joins first, so it holds the earliest accusation time.
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(2 * time.Second) // elections, startup grace, first rates
	const window = 3 * time.Second
	for _, tap := range taps {
		tap.reset()
	}
	time.Sleep(window)
	for _, tap := range taps {
		datagrams, e := tap.reset()
		if rate := float64(datagrams) / float64(len(peers)-1) / window.Seconds(); e > 0 && rate > perPeerSecond {
			perPeerSecond, eta = rate, e
		}
	}
	if eta == 0 {
		return 0, 0, fmt.Errorf("nobody sent a heartbeat in %v", window)
	}
	return perPeerSecond, eta, nil
}

// TestRestDatagramsDoNotScaleWithShards: at rest a Service sends each peer
// one datagram per heartbeat whatever its shard count — its shards beat on
// one grid and combine what they owe a peer into one datagram — where
// every shard used to send its own. It measures on the wall clock, so a
// measurement that misses is taken again, twice at most: shards sending
// apart miss every time (eightfold), a stalled host once. Under the race
// detector the Services still run, for the races they may show, but the
// 15 % margin is not asserted: instrumented code slows too unevenly.
func TestRestDatagramsDoNotScaleWithShards(t *testing.T) {
	if stableleader.RaceEnabled {
		t.Logf("race detector on, margin not asserted: %v", restMisses(t))
		return
	}
	var misses []string
	for attempt := 1; attempt <= 3; attempt++ {
		if misses = restMisses(t); len(misses) == 0 {
			return
		}
		t.Logf("attempt %d: %v", attempt, misses)
	}
	for _, m := range misses {
		t.Error(m)
	}
}

// restMisses measures one and eight shards side by side and returns what
// the measurement found wrong.
func restMisses(t *testing.T) (misses []string) {
	type result struct {
		rate float64
		eta  time.Duration
	}
	results := map[int]result{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, shards := range []int{1, 8} {
		wg.Add(1)
		go func(shards int) {
			defer wg.Done()
			rate, eta, err := restRate(shards)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				misses = append(misses, fmt.Sprintf("shards=%d: %v", shards, err))
			}
			results[shards] = result{rate, eta}
		}(shards)
	}
	wg.Wait()
	if len(misses) > 0 {
		return misses
	}
	one, eight := results[1], results[8]
	t.Logf("1 shard: %.2f datagrams per peer-second at η=%v; 8 shards: %.2f at η=%v", one.rate, one.eta, eight.rate, eight.eta)
	for _, shards := range []int{1, 8} {
		r := results[shards]
		if limit := 1.15 / r.eta.Seconds(); r.rate > limit {
			misses = append(misses, fmt.Sprintf("shards=%d: %.2f datagrams per peer-second, want one per heartbeat: at most %.2f at η=%v", shards, r.rate, limit, r.eta))
		}
	}
	if lo, hi := min(one.rate, eight.rate), max(one.rate, eight.rate); hi > 1.15*lo {
		misses = append(misses, fmt.Sprintf("datagrams per peer-second differ by more than 15%% between 1 shard (%.2f) and 8 (%.2f)", one.rate, eight.rate))
	}
	return misses
}
