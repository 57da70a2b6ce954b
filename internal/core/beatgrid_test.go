package core

import (
	"testing"
	"time"

	"stableleader/id"
	"stableleader/internal/simnet"
	"stableleader/internal/wire"
)

// TestEveryPacerBeatsOnTheGrid: at rest every heartbeat stream of a node —
// eight groups toward five peers — is due at the same instants, so one
// wake-up per period emits to all peers; and no stream ever leaves a peer
// waiting longer than the interval its last heartbeat promised.
func TestEveryPacerBeatsOnTheGrid(t *testing.T) {
	c, log, groups := leaderOfEight(t)
	c.eng.RunFor(10 * time.Second) // joins, greetings and first rates settle
	na := c.nodes["a"]

	var due time.Time
	for _, dest := range sortedKeys(na.pacers) {
		e, ok := na.pacers[dest].earliest()
		if !ok {
			t.Fatalf("pacer toward %s has no stream", dest)
		}
		if due.IsZero() {
			due = e
		} else if !e.Equal(due) {
			t.Errorf("pacer toward %s is next due %v, the others %v", dest, e.Sub(simnet.Epoch()), due.Sub(simnet.Epoch()))
		}
	}

	from := len(*log)
	c.eng.RunFor(20 * time.Second)
	type stream struct {
		g  id.Group
		to id.Process
	}
	beats := map[time.Time]map[id.Process]bool{} // emission instant -> peers reached
	last := map[stream]*wire.Alive{}
	alives := 0
	for _, s := range (*log)[from:] {
		if s.from != "a" {
			continue
		}
		for _, m := range s.msgs {
			al, ok := m.(*wire.Alive)
			if !ok {
				continue
			}
			alives++
			if beats[s.at] == nil {
				beats[s.at] = map[id.Process]bool{}
			}
			beats[s.at][s.to] = true
			k := stream{al.Group, s.to}
			if prev := last[k]; prev != nil {
				if gap := time.Duration(al.SendTime - prev.SendTime); gap > time.Duration(prev.Interval) {
					t.Errorf("%s->%s: heartbeat %d left %v after the one promising %v", k.g, k.to, al.Seq, gap, time.Duration(prev.Interval))
				}
			}
			last[k] = al
		}
	}
	peers := len(c.procs) - 1
	if want := len(groups) * peers; len(last) != want {
		t.Fatalf("saw %d heartbeat streams leave a, want %d", len(last), want)
	}
	for at, reached := range beats {
		if len(reached) != peers {
			t.Errorf("%v: a wake-up carried heartbeats to %d of %d peers", at.Sub(simnet.Epoch()), len(reached), peers)
		}
	}
	// Every stream beat at every wake-up: heartbeats = wake-ups x streams.
	if alives != len(beats)*len(last) {
		t.Errorf("%d heartbeats over %d wake-ups of %d streams: not every stream beats at every wake-up", alives, len(beats), len(last))
	}
}
