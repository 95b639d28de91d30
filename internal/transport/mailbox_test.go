package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// within fails the test unless fn returns before the deadline: the mailbox
// contract is about who may block, so every case runs under one.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still blocked after 10s", what)
	}
}

func TestMailboxCloseFullQueue(t *testing.T) {
	mb := NewChanMailbox(2)
	mb.Put(&wire.Message{Seq: 1})
	mb.Put(&wire.Message{Seq: 2})
	mb.Close() // no room for the sentinel: the flag alone must end the drain
	within(t, "drain after close", func() {
		for want := uint64(1); want <= 2; want++ {
			if m, ok := mb.Take(); !ok || m.Seq != want {
				t.Errorf("take %d after close: %v %v", want, m, ok)
			}
		}
		if m, ok := mb.Take(); ok {
			t.Errorf("take on a drained closed mailbox returned %v", m)
		}
		if m, ok, timedOut := mb.TakeTimeout(sim.Second); ok || timedOut {
			t.Errorf("TakeTimeout on a drained closed mailbox: %v ok=%v timedOut=%v", m, ok, timedOut)
		}
	})
	within(t, "put after close", func() {
		if mb.offer(&wire.Message{Seq: 3}) {
			t.Error("offer succeeded on a closed mailbox")
		}
		mb.Put(&wire.Message{Seq: 4})
	})
}

func TestMailboxCloseWakesParkedTake(t *testing.T) {
	for _, timeout := range []bool{false, true} {
		mb := NewChanMailbox(4)
		within(t, "parked take", func() {
			go mb.Close() // lands before or after the taker parks: both must end
			var ok, timedOut bool
			if timeout {
				_, ok, timedOut = mb.TakeTimeout(sim.Time(time.Hour))
			} else {
				_, ok = mb.Take()
			}
			if ok || timedOut {
				t.Errorf("timeout=%v: woken with ok=%v timedOut=%v, want a plain close", timeout, ok, timedOut)
			}
		})
	}
}

func TestMailboxCloseReleasesBlockedPut(t *testing.T) {
	mb := NewChanMailbox(1)
	mb.Put(&wire.Message{Seq: 1})
	result := make(chan bool, 1)
	go func() { result <- mb.offer(&wire.Message{Seq: 2}) }() // full: parks
	select {
	case ok := <-result:
		t.Fatalf("offer into a full mailbox returned %v without waiting", ok)
	case <-time.After(20 * time.Millisecond):
	}
	mb.Close()
	within(t, "blocked put", func() {
		if <-result {
			t.Error("blocked offer reported success after Close")
		}
	})
}

// TestMailboxCloseRacingPut closes a mailbox under concurrent putters and a
// running taker: no putter may block or panic, and the taker must see
// ok=false after at most what was queued.
func TestMailboxCloseRacingPut(t *testing.T) {
	const putters, each = 4, 2000
	for round := 0; round < 20; round++ {
		mb := NewChanMailbox(8)
		var wg sync.WaitGroup
		taken := make(chan int, 1)
		go func() {
			n := 0
			for {
				if _, ok := mb.Take(); !ok {
					taken <- n
					return
				}
				n++
			}
		}()
		started := make(chan struct{}, putters)
		for p := 0; p < putters; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				started <- struct{}{}
				for i := 0; i < each; i++ {
					mb.Put(&wire.Message{Seq: uint64(i)})
				}
			}()
		}
		<-started
		mb.Close()
		within(t, "putters and taker after close", func() {
			wg.Wait()
			if n := <-taken; n > putters*each {
				t.Errorf("took %d messages, more than were put", n)
			}
		})
	}
}
