package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestPacketStatsDelta(t *testing.T) {
	prev := PacketStats{
		DatagramsOut: 10, BatchesOut: 2, MessagesOut: 30, CoalescedOut: 22, BytesOut: 4000,
		DatagramsIn: 8, BatchesIn: 1, MessagesIn: 20, BytesIn: 3000,
		UnknownDropped: 1, RecvSyscalls: 4, SendSyscalls: 5,
	}
	cur := PacketStats{
		DatagramsOut: 25, BatchesOut: 6, MessagesOut: 90, CoalescedOut: 70, BytesOut: 10000,
		DatagramsIn: 20, BatchesIn: 3, MessagesIn: 55, BytesIn: 8000,
		UnknownDropped: 1, RecvSyscalls: 6, SendSyscalls: 10,
	}
	d := cur.Delta(prev)
	want := PacketStats{
		DatagramsOut: 15, BatchesOut: 4, MessagesOut: 60, CoalescedOut: 48, BytesOut: 6000,
		DatagramsIn: 12, BatchesIn: 2, MessagesIn: 35, BytesIn: 5000,
		UnknownDropped: 0, RecvSyscalls: 2, SendSyscalls: 5,
	}
	if d != want {
		t.Errorf("Delta = %+v, want %+v", d, want)
	}
	// Differencing against itself yields the zero delta.
	if z := cur.Delta(cur); z != (PacketStats{}) {
		t.Errorf("self-delta = %+v, want zero", z)
	}
}

func TestPacketStatsRatesOver(t *testing.T) {
	d := PacketStats{
		DatagramsOut: 30, MessagesOut: 90, BytesOut: 6000,
		DatagramsIn: 10, MessagesIn: 20, BytesIn: 2000,
	}
	r := d.RatesOver(2 * time.Second)
	if r.DatagramsOutPerSec != 15 || r.MessagesOutPerSec != 45 || r.BytesOutPerSec != 3000 {
		t.Errorf("outbound rates = %+v", r)
	}
	if r.DatagramsInPerSec != 5 || r.MessagesInPerSec != 10 || r.BytesInPerSec != 1000 {
		t.Errorf("inbound rates = %+v", r)
	}
	if z := d.RatesOver(0); z != (PacketRates{}) {
		t.Errorf("zero-elapsed rates = %+v, want zero", z)
	}
	if z := d.RatesOver(-time.Second); z != (PacketRates{}) {
		t.Errorf("negative-elapsed rates = %+v, want zero", z)
	}
}

// TestPacketCountersMonotonicUnderConcurrentReaders hammers one counter
// set with writer goroutines while snapshot readers race them, asserting
// every column only ever grows between successive snapshots — the
// contract interval observers (Delta) depend on.
func TestPacketCountersMonotonicUnderConcurrentReaders(t *testing.T) {
	var c PacketCounters
	const (
		writers = 4
		rounds  = 2000
		readers = 3
	)
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < rounds; i++ {
				c.CountOut(3, 180)
				c.CountInPart(2, 120, true, true)
				c.CountInPart(1, 90, i%2 == 0, false)
				c.CountUnknown(1)
			}
		}()
	}
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			prev := c.Snapshot()
			for {
				cur := c.Snapshot()
				d := cur.Delta(prev)
				if d.DatagramsOut < 0 || d.BatchesOut < 0 || d.MessagesOut < 0 ||
					d.CoalescedOut < 0 || d.BytesOut < 0 ||
					d.DatagramsIn < 0 || d.BatchesIn < 0 || d.MessagesIn < 0 ||
					d.BytesIn < 0 || d.UnknownDropped < 0 {
					select {
					case errs <- "counter regressed between snapshots":
					default:
					}
					return
				}
				prev = cur
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}

	got := c.Snapshot()
	if want := int64(writers * rounds * 3); got.MessagesOut != want {
		t.Errorf("MessagesOut = %d, want %d", got.MessagesOut, want)
	}
	// CountInPart adds messages always and a datagram only when flagged:
	// every first call per round, every second of the other.
	if want := int64(writers * rounds); got.DatagramsIn != want+want/2 {
		t.Errorf("DatagramsIn = %d, want %d", got.DatagramsIn, want+want/2)
	}
}
