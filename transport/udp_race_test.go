package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestUDPCloseHandlerRace hammers the receive-after-Close window: traffic
// floods an endpoint while it closes. Run under -race. The contract under
// test: no handler invocation starts after Close returns.
func TestUDPCloseHandlerRace(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	for i := 0; i < 20; i++ {
		sender, err := NewUDP("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		receiver, err := NewUDP("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sender.SetPeer("r", receiver.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}

		var closed atomic.Bool
		receiver.Receive(func(p []byte) {
			if closed.Load() {
				t.Error("handler invoked after Close returned")
			}
		})

		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = sender.Send("r", []byte("x"))
				}
			}
		}()

		if err := receiver.Close(); err != nil {
			t.Fatal(err)
		}
		closed.Store(true)
		close(stop)
		wg.Wait()
		_ = sender.Close()
	}
}

// TestUDPCloseWaitsForHandler pins the other half of the Close contract:
// once Close returns, no handler invocation is still in flight on the
// read loop.
func TestUDPCloseWaitsForHandler(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	rx, err := NewUDP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	var inFlight atomic.Int32
	rx.Receive(func([]byte) {
		inFlight.Add(1)
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
	})
	tx, err := NewUDP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	if err := tx.SetPeer("rx", rx.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		_ = tx.Send("rx", []byte("x"))
	}
	if err := rx.Close(); err != nil {
		t.Fatal(err)
	}
	if n := inFlight.Load(); n != 0 {
		t.Fatalf("%d handler invocations still in flight after Close", n)
	}
}

// TestUDPReceiveAfterClose pins the no-op semantics of a late Receive.
func TestUDPReceiveAfterClose(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	u, err := NewUDP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	u.Receive(func([]byte) { t.Error("handler installed after Close ran") })
	// The read loop already exited; nothing can deliver. This mostly
	// documents that the late install does not resurrect delivery.
}
