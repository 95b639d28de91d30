package transport

import (
	"math/rand"
	"runtime"
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

// awaitMailbox spins until cond holds of mb, read under its lock: how a test
// learns that a goroutine it started has got as far as blocking.
func awaitMailbox(mb *ChanMailbox, cond func() bool) {
	for {
		mb.mu.Lock()
		ok := cond()
		mb.mu.Unlock()
		if ok {
			return
		}
		runtime.Gosched()
	}
}

func TestMailboxCloseWakesParkedTake(t *testing.T) {
	for _, timeout := range []bool{false, true} {
		for _, parkedFirst := range []bool{false, true} {
			mb := NewChanMailbox(4)
			within(t, "parked take", func() {
				go func() {
					// Unless it waits for the taker, Close lands before or
					// after the taker parks: both must end.
					if parkedFirst {
						awaitMailbox(mb, mb.parked.Load)
					}
					mb.Close()
				}()
				var ok, timedOut bool
				if timeout {
					_, ok, timedOut = mb.TakeTimeout(sim.Time(time.Hour))
				} else {
					_, ok = mb.Take()
				}
				if ok || timedOut {
					t.Errorf("timeout=%v parkedFirst=%v: woken with ok=%v timedOut=%v, want a plain close", timeout, parkedFirst, ok, timedOut)
				}
			})
		}
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

// TestMailboxFIFOModel runs a random put/take script against a slice: the
// mailbox must return exactly what the model does while its ring grows, wraps
// around and runs full, and the ring must be no larger than the occupancy the
// script reached asks for.
func TestMailboxFIFOModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, DefaultDepth} {
		within(t, "script", func() {
			rng := rand.New(rand.NewSource(int64(capacity)))
			mb := NewChanMailbox(capacity)
			var model []uint64
			next, peak := uint64(0), 0
			// Filling and draining phases alternate, each long enough to
			// reach the capacity and the empty queue.
			phase := 3*capacity + 50
			for step := 0; step < 4*phase; step++ {
				filling := step/phase%2 == 0
				put := rng.Intn(10) < 3
				if filling {
					put = !put
				}
				switch {
				case put && len(model) < capacity:
					next++
					mb.Put(&wire.Message{Seq: next})
					model = append(model, next)
					peak = max(peak, len(model))
				case len(model) > 0:
					m, ok := mb.Take()
					if !ok || m.Seq != model[0] {
						t.Errorf("capacity %d step %d: took %v %v, model has %d", capacity, step, m, ok, model[0])
						return
					}
					model = model[1:]
				}
			}
			if peak != capacity {
				t.Errorf("capacity %d: the script peaked at %d queued", capacity, peak)
			}
			want := ringStart
			for want < peak {
				want *= 2
			}
			if len(mb.ring) != want {
				t.Errorf("capacity %d: ring of %d slots for a peak of %d queued, want %d", capacity, len(mb.ring), peak, want)
			}
			mb.Close()
			for _, seq := range model {
				if m, ok := mb.Take(); !ok || m.Seq != seq {
					t.Errorf("capacity %d: drained %v %v after close, model has %d", capacity, m, ok, seq)
					return
				}
			}
			if m, ok := mb.Take(); ok {
				t.Errorf("capacity %d: drained closed mailbox returned %v", capacity, m)
			}
		})
	}
}

// TestMailboxBlockedPutters: putters that find the mailbox at capacity wait,
// each Take lets exactly one of them in, and Close releases the rest with
// their messages refused.
func TestMailboxBlockedPutters(t *testing.T) {
	const blocked = 4
	mb := NewChanMailbox(2)
	mb.Put(&wire.Message{Seq: 1})
	mb.Put(&wire.Message{Seq: 2})
	results := make(chan bool, blocked)
	for p := 0; p < blocked; p++ {
		go func() { results <- mb.offer(&wire.Message{Seq: 100}) }()
	}
	within(t, "putters reaching the full mailbox", func() {
		awaitMailbox(mb, func() bool { return mb.waiting == blocked })
	})
	if m, ok := mb.Take(); !ok || m.Seq != 1 {
		t.Fatalf("take from the full mailbox: %v %v", m, ok)
	}
	within(t, "one putter let in by the take", func() {
		if !<-results {
			t.Error("the putter a Take made room for reported a refusal")
		}
	})
	select {
	case ok := <-results:
		t.Fatalf("one Take released a second putter (offer = %v)", ok)
	case <-time.After(20 * time.Millisecond):
	}
	mb.Close()
	within(t, "putters released by close", func() {
		for p := 1; p < blocked; p++ {
			if <-results {
				t.Error("offer reported success after Close")
			}
		}
		for _, want := range []uint64{2, 100} {
			if m, ok := mb.Take(); !ok || m.Seq != want {
				t.Errorf("drain after close: %v %v, want seq %d", m, ok, want)
			}
		}
		if m, ok := mb.Take(); ok {
			t.Errorf("a refused message was enqueued: %v", m)
		}
	})
}

// TestMailboxPerPutterOrder: eight putters at once, through a mailbox small
// enough that they block and through one that has to grow; the taker must see
// each putter's messages in the order it put them, and all of them.
func TestMailboxPerPutterOrder(t *testing.T) {
	const putters, each = 8, 5000
	for _, capacity := range []int{3, 0} {
		mb := NewChanMailbox(capacity)
		for p := 0; p < putters; p++ {
			go func(p int32) {
				for i := uint64(1); i <= each; i++ {
					mb.Put(&wire.Message{Src: p, Seq: i})
				}
			}(int32(p))
		}
		within(t, "taking everything", func() {
			var last [putters]uint64
			for n := 0; n < putters*each; n++ {
				m, ok := mb.Take()
				if !ok {
					t.Errorf("capacity %d: closed after %d messages", capacity, n)
					return
				}
				if m.Seq != last[m.Src]+1 {
					t.Errorf("capacity %d: putter %d's message %d taken after its %d", capacity, m.Src, m.Seq, last[m.Src])
					return
				}
				last[m.Src] = m.Seq
			}
		})
	}
}

// TestMailboxTakeTimeoutRacingPut aims a Put at the instant a TakeTimeout
// expires. Whichever wins, the message is not lost: it comes out of that
// TakeTimeout or, if that one timed out, of the next Take.
func TestMailboxTakeTimeoutRacingPut(t *testing.T) {
	const rounds, wait = 10000, 40 * time.Microsecond
	mb := NewChanMailbox(0)
	start := make(chan time.Time)
	go func() {
		rng := rand.New(rand.NewSource(1))
		seq := uint64(0)
		for t0 := range start {
			// Around the instant the taker's timer wakes it, which is a
			// little after the deadline: from just early to just late.
			at := t0.Add(wait + time.Duration(rng.Intn(40)-10)*time.Microsecond)
			for time.Now().Before(at) {
			}
			seq++
			mb.Put(&wire.Message{Seq: seq})
		}
	}()
	defer close(start)
	within(t, "rounds", func() {
		timeouts := 0
		for round := uint64(1); round <= rounds; round++ {
			start <- time.Now()
			m, ok, timedOut := mb.TakeTimeout(sim.Duration(wait))
			if timedOut {
				timeouts++
				m, ok = mb.Take()
			}
			if !ok || m.Seq != round {
				t.Errorf("round %d (timed out: %v): got %v %v", round, timedOut, m, ok)
				return
			}
		}
		t.Logf("%d of %d waits timed out before the put", timeouts, rounds)
	})
}

// BenchmarkMailbox times the two ways a message crosses a mailbox beside the
// same crossing of a bare buffered channel: put and take on one goroutine
// (a reply the requester served itself), and a ping-pong between two
// goroutines, where every put hands over to a parked taker.
func BenchmarkMailbox(b *testing.B) {
	m := &wire.Message{}
	b.Run("same/mailbox", func(b *testing.B) {
		mb := NewChanMailbox(0)
		for i := 0; i < b.N; i++ {
			mb.Put(m)
			mb.Take()
		}
	})
	b.Run("same/chan", func(b *testing.B) {
		ch := make(chan *wire.Message, 16)
		for i := 0; i < b.N; i++ {
			ch <- m
			<-ch
		}
	})
	b.Run("pingpong/mailbox", func(b *testing.B) {
		ping, pong := NewChanMailbox(0), NewChanMailbox(0)
		go func() {
			for {
				got, ok := ping.Take()
				if !ok {
					return
				}
				pong.Put(got)
			}
		}()
		for i := 0; i < b.N; i++ {
			ping.Put(m)
			pong.Take()
		}
		ping.Close()
	})
	b.Run("pingpong/chan", func(b *testing.B) {
		ping, pong := make(chan *wire.Message, 16), make(chan *wire.Message, 16)
		go func() {
			for got := range ping {
				pong <- got
			}
		}()
		for i := 0; i < b.N; i++ {
			ping <- m
			<-pong
		}
		close(ping)
	})
}
