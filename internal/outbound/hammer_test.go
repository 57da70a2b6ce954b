package outbound

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"stableleader/id"
	"stableleader/internal/clock"
	"stableleader/internal/wire"
)

// loopClock is a wall clock whose timers fire on one goroutine's loop: the
// fire is queued, and the loop runs it between two of its own steps.
type loopClock struct{ fires chan func() }

func (c *loopClock) Now() time.Time { return time.Now() }
func (c *loopClock) AfterFunc(d time.Duration, fn func()) clock.Timer {
	return time.AfterFunc(d, func() { c.fires <- fn })
}

// runFires runs the timer callbacks queued so far.
func (c *loopClock) runFires() {
	for {
		select {
		case fn := <-c.fires:
			fn()
		default:
			return
		}
	}
}

// hammerLog is every emission of a hammer run, in emission order: emit
// runs under the destination's lock, so the order the log's own mutex
// gives two emissions toward one peer is the order they left in.
type hammerLog struct {
	mu      sync.Mutex
	seen    map[string]int       // message tag -> times emitted
	lastSeq map[[2]string]uint64 // (origin port, peer) -> last sequence number emitted
	emitted map[[2]string]int    // (origin port, peer) -> messages emitted
	errs    []string
}

func (l *hammerLog) errorf(format string, args ...any) {
	if len(l.errs) < 20 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// record logs one datagram emitted toward to.
func (l *hammerLog) record(to id.Process, m wire.Message) {
	msgs := []wire.Message{m}
	if b, ok := m.(*wire.Batch); ok {
		msgs = b.Msgs
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, m := range msgs {
		a := m.(*wire.Alive)
		k := [2]string{string(a.Group), string(to)}
		tag := fmt.Sprintf("%s>%s#%d", a.Group, to, a.Seq)
		if l.seen[tag]++; l.seen[tag] > 1 {
			l.errorf("%s emitted %d times", tag, l.seen[tag])
		}
		if a.Seq <= l.lastSeq[k] {
			l.errorf("%s left after #%d of the same port and peer", tag, l.lastSeq[k])
		}
		l.lastSeq[k] = a.Seq
		l.emitted[k]++
	}
}

// TestPortsHammer: eight event loops share one scheduler toward three
// peers, mixing background, lazy and urgent traffic. Every message is
// emitted exactly once, in the order its port staged it toward that peer
// whichever port carries it out; an urgent enqueue returns with everything
// its port staged for the peer emitted; and ports that stop while the rest
// keep going take nothing with them twice and emit nothing afterwards.
func TestPortsHammer(t *testing.T) {
	const ports, ops = 8, 3000
	peers := []id.Process{"x", "y", "z"}
	log := &hammerLog{seen: map[string]int{}, lastSeq: map[[2]string]uint64{}, emitted: map[[2]string]int{}}
	s := New(Config{})

	type loop struct {
		name    string
		clk     *loopClock
		port    *Port
		seq     map[id.Process]uint64
		stopped bool
	}
	loops := make([]*loop, ports)
	for i := range loops {
		lp := &loop{name: fmt.Sprintf("port%d", i), clk: &loopClock{fires: make(chan func(), 4096)}, seq: map[id.Process]uint64{}}
		lp.port = s.Port(lp.clk, func(to id.Process, m wire.Message) {
			if lp.stopped {
				log.mu.Lock()
				log.errorf("%s emitted toward %s after it stopped", lp.name, to)
				log.mu.Unlock()
			}
			log.record(to, m)
		}, nil)
		loops[i] = lp
	}
	enqueue := func(lp *loop, to id.Process, d time.Duration) {
		lp.seq[to]++
		lp.port.Enqueue(to, &wire.Alive{Group: id.Group(lp.name), Sender: "a", Incarnation: 1, Seq: lp.seq[to]}, d)
	}

	// Phase one: everybody enqueues; then everybody flushes, and the books
	// must balance.
	var wg sync.WaitGroup
	for i, lp := range loops {
		wg.Add(1)
		go func(i int, lp *loop) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for n := 0; n < ops; n++ {
				lp.clk.runFires()
				to := peers[rng.Intn(len(peers))]
				switch rng.Intn(8) {
				case 0:
					enqueue(lp, to, 0)
					// The urgent flush took along whatever this port had
					// staged for the peer, or another port already had.
					log.mu.Lock()
					if got, want := log.emitted[[2]string{lp.name, string(to)}], int(lp.seq[to]); got != want {
						log.errorf("%s: urgent #%d toward %s returned with %d of its %d messages emitted", lp.name, want, to, got, want)
					}
					log.mu.Unlock()
				case 1, 2:
					enqueue(lp, to, 5*time.Millisecond) // background: rides a later beat
				default:
					enqueue(lp, to, time.Duration(50+rng.Intn(200))*time.Microsecond)
				}
			}
			for _, to := range peers {
				enqueue(lp, to, 0)
			}
		}(i, lp)
	}
	wg.Wait()
	if msgs, dests := s.Staged(); msgs != 0 || dests != 0 {
		t.Errorf("%d messages toward %d peers still staged after every port flushed", msgs, dests)
	}
	for _, lp := range loops {
		for _, to := range peers {
			if got, want := log.emitted[[2]string{lp.name, string(to)}], int(lp.seq[to]); got != want {
				t.Errorf("%s->%s: %d of %d messages emitted", lp.name, to, got, want)
			}
		}
	}

	// Phase two: the ports stop one after another, mid-flight.
	for i, lp := range loops {
		wg.Add(1)
		go func(i int, lp *loop) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + i)))
			for n := 0; n < ops/4*(i+1)/ports; n++ {
				lp.clk.runFires()
				enqueue(lp, peers[rng.Intn(len(peers))], time.Duration(rng.Intn(3))*100*time.Microsecond)
			}
			lp.port.Stop()
			lp.stopped = true
			enqueue(lp, peers[0], 0) // dropped: the port is stopped
			time.Sleep(2 * time.Millisecond)
			lp.clk.runFires() // stale fires of a stopped port do nothing
		}(i, lp)
	}
	wg.Wait()
	if msgs, _ := s.Staged(); msgs != 0 {
		t.Errorf("%d messages still staged after the last port stopped", msgs)
	}
	for _, e := range log.errs {
		t.Error(e)
	}
}
