package gmem

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubmitRingFIFO pushes a batch, drains it, and checks payloads come out
// in submission order with the slots reusable after Release.
func TestSubmitRingFIFO(t *testing.T) {
	r := NewSubmitRing(8)
	for round := 0; round < 5; round++ { // several laps: slots must recycle
		for i := 0; i < 6; i++ {
			w := RingWrite{Addr: uint64(round*10 + i), Val: int64(i), Seq: uint64(i + 1), Src: 3}
			if _, ok := r.Push(w); !ok {
				t.Fatalf("round %d: push %d rejected", round, i)
			}
		}
		if p := r.Pending(); p != 6 {
			t.Fatalf("round %d: Pending = %d, want 6", round, p)
		}
		buf := make([]RingWrite, 8)
		n := r.Drain(buf)
		if n != 6 {
			t.Fatalf("round %d: Drain = %d, want 6", round, n)
		}
		for i, w := range buf[:n] {
			want := RingWrite{Addr: uint64(round*10 + i), Val: int64(i), Seq: uint64(i + 1), Src: 3}
			if w != want {
				t.Fatalf("round %d: slot %d = %+v, want %+v", round, i, w, want)
			}
		}
		r.Release(n)
	}
}

// TestSubmitRingFullRejects fills the ring and checks the next push fails
// cleanly — no side effects, and the ring still drains intact.
func TestSubmitRingFullRejects(t *testing.T) {
	r := NewSubmitRing(4)
	for i := 0; i < 4; i++ {
		if _, ok := r.Push(RingWrite{Addr: uint64(i)}); !ok {
			t.Fatalf("push %d rejected before full", i)
		}
	}
	if _, ok := r.Push(RingWrite{Addr: 99}); ok {
		t.Fatal("push into a full ring succeeded")
	}
	buf := make([]RingWrite, 4)
	if n := r.Drain(buf); n != 4 {
		t.Fatalf("Drain = %d, want 4", n)
	}
	for i, w := range buf {
		if w.Addr != uint64(i) {
			t.Fatalf("slot %d addr = %d after rejected push, want %d", i, w.Addr, i)
		}
	}
	r.Release(4)
	// Space reclaimed: pushes succeed again.
	if _, ok := r.Push(RingWrite{Addr: 5}); !ok {
		t.Fatal("push rejected after Release")
	}
}

// TestSubmitRingWraparound starts the ring's positions just below the top of
// uint64 so tail, head and the slot state words all wrap mid-test: the
// modular comparisons must keep FIFO order, full detection and consumption
// tracking working across the wrap.
func TestSubmitRingWraparound(t *testing.T) {
	const size = 4
	r := newSubmitRingAt(size, math.MaxUint64-5) // wraps on the 7th push
	buf := make([]RingWrite, size)
	var next uint64
	for round := 0; round < 8; round++ { // 24 pushes: well past the wrap
		var positions []uint64
		for i := 0; i < 3; i++ {
			w := RingWrite{Addr: next, Val: int64(next), Seq: next + 1}
			pos, ok := r.Push(w)
			if !ok {
				t.Fatalf("push %d rejected", next)
			}
			if r.Consumed(pos) {
				t.Fatalf("position %d consumed before drain", pos)
			}
			positions = append(positions, pos)
			next++
		}
		n := r.Drain(buf)
		if n != 3 {
			t.Fatalf("round %d: Drain = %d, want 3", round, n)
		}
		for i, w := range buf[:n] {
			if want := next - 3 + uint64(i); w.Addr != want {
				t.Fatalf("round %d: drained addr %d, want %d (FIFO broke at wrap)", round, w.Addr, want)
			}
		}
		r.Release(n)
		for _, pos := range positions {
			if !r.Consumed(pos) {
				t.Fatalf("position %d not consumed after Release", pos)
			}
		}
	}
}

// TestSubmitRingConcurrentProducers hammers one ring from many producers with
// no consumer of its own: as the kernel's ring writers do, each producer
// publishes, then takes the owner's lock, drains whatever is published into a
// model map and releases — again, if a slot claimed before its own was not
// yet published and stopped the drain short — until its own write is
// consumed, by itself or by whoever held the lock in between. Every pushed
// write must be drained exactly once. Run under -race this is also the
// memory-model check on the publish edge.
func TestSubmitRingConcurrentProducers(t *testing.T) {
	const (
		producers = 8
		perProd   = 250
	)
	r := NewSubmitRing(64)
	var (
		short atomic.Int64 // drains that an unpublished earlier slot cut short
		wg    sync.WaitGroup
		mu    sync.Mutex              // the owning shard's lock
		seen  = make(map[uint64]int)  // seq -> count; guarded by mu
		buf   = make([]RingWrite, 64) // guarded by mu
	)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				tok := uint64(p*perProd + i + 1)
				w := RingWrite{Addr: tok, Val: int64(tok), Seq: tok, Src: int32(p)}
				pos, ok := r.Push(w)
				if !ok {
					// 8 producers, one slot each at a time, 64 slots.
					t.Errorf("producer %d: ring full", p)
					return
				}
				for passes := 0; !r.Consumed(pos); passes++ {
					if passes > 0 {
						short.Add(1)
						runtime.Gosched() // let the earlier claimant publish
					}
					mu.Lock()
					n := r.Drain(buf)
					for _, d := range buf[:n] {
						// Payload integrity: all fields carry the same token.
						if d.Addr != d.Seq || d.Val != int64(d.Seq) {
							t.Errorf("torn slot: %+v", d)
						}
						seen[d.Seq]++
					}
					r.Release(n)
					mu.Unlock()
				}
			}
		}(p)
	}
	wg.Wait()
	t.Logf("%d drains stopped short of the drainer's own write", short.Load())
	if r.Pending() != 0 {
		t.Fatalf("%d writes left in the ring with every producer done", r.Pending())
	}
	if len(seen) != producers*perProd {
		t.Fatalf("drained %d distinct writes, want %d", len(seen), producers*perProd)
	}
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("seq %d drained %d times", seq, n)
		}
	}
}

// TestSubmitRingConsumedOnlyAfterRelease pins the completion contract: a
// write counts as consumed only once the consumer has released its slot —
// after the apply — or a PE could read stale memory right after its own
// acknowledged write.
func TestSubmitRingConsumedOnlyAfterRelease(t *testing.T) {
	r := NewSubmitRing(4)
	pos, ok := r.Push(RingWrite{Addr: 1, Val: 2})
	if !ok {
		t.Fatal("push rejected")
	}
	if r.Consumed(pos) {
		t.Fatal("consumed before drain")
	}
	buf := make([]RingWrite, 4)
	if n := r.Drain(buf); n != 1 {
		t.Fatalf("Drain = %d, want 1", n)
	}
	if r.Consumed(pos) {
		t.Fatal("consumed after drain but before Release: producer could race the apply")
	}
	r.Release(1)
	if !r.Consumed(pos) {
		t.Fatal("not consumed after Release")
	}
}

// TestRingApplyWritesVisibleToDirectRead interleaves ring-applied and
// message-path writes with lock-free direct reads on one home: no read may
// ever observe a torn word or a value nobody wrote (out of thin air). This is
// the property the two write paths' shared stripe seqlock protocol owes the
// one-sided read window.
func TestRingApplyWritesVisibleToDirectRead(t *testing.T) {
	space := NewSpace(1, 32)
	seg := NewSegment(space, 0)
	const (
		addr   = 7
		rounds = 4000
	)
	// legal marks every value either writer will ever store.
	legal := make(map[int64]bool, 2*rounds+1)
	legal[0] = true
	for i := 1; i <= rounds; i++ {
		legal[int64(i)] = true       // ring writer's values
		legal[int64(i)|1<<40] = true // message writer's values
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(2)
	go func() { // ring path: batches through ApplyWrites
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			seg.ApplyWrites([]RingWrite{{Addr: addr, Val: int64(i)}})
		}
	}()
	go func() { // message path: Write under the same stripe
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			seg.Write(addr, []int64{int64(i) | 1<<40})
		}
	}()
	readerDone := make(chan int64, 1)
	go func() {
		for !stop.Load() {
			if v, ok := seg.DirectReadOwned(addr); !ok || !legal[v] {
				readerDone <- v | 1<<62
				return
			}
		}
		readerDone <- 0
	}()
	wg.Wait()
	stop.Store(true)
	if v := <-readerDone; v != 0 {
		t.Fatalf("DirectReadOwned disowned the word or observed a value nobody wrote: %d", v&^(1<<62))
	}
	if v := seg.ReadWord(addr); !legal[v] {
		t.Fatalf("final value %d was never written", v)
	}
}

// TestDirectReadFallbackUnderWriterStorm pins the anti-starvation bound on
// the seqlock: the reader's optimistic spin loses while a stripe's publish
// window is open, so with one held open almost continuously the reader must
// take the mutex fallback (observable via DirectReadFallbacks) and still
// return a word some writer stored, never reporting it disowned. Stores move
// no generation, so what drives the fallback is publish's own window, held
// open across a reschedule under the stripe mutex (holdPublish); a storm of
// block writes keeps storing into the polled block meanwhile, each critical
// section capped at writeWindowWords so the fallback cannot starve behind it.
func TestDirectReadFallbackUnderWriterStorm(t *testing.T) {
	space := NewSpace(1, 32)
	seg := NewSegment(space, 0)
	const writers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]int64, 32) // a full block per write: maximal critical section
			for i := int64(1); !stop.Load(); i++ {
				v := i<<8 | int64(w)
				for j := range buf {
					buf[j] = v
				}
				seg.Write(0, buf) // block 0: same stripe the reader polls
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		st := seg.stripeOf(0)
		for !stop.Load() {
			holdPublish(st)
		}
	}()
	// Read until the fallback path has demonstrably fired. Every writer
	// stores one value across the block, of the form i<<8|w with w < writers;
	// the assertions are liveness (the read returns despite the held windows)
	// and consistency (a stored word, never disowned).
	deadline := time.Now().Add(time.Minute)
	for seg.DirectReadFallbacks() == 0 {
		v, ok := seg.DirectReadOwned(5)
		if !ok || (v != 0 && int(v&0xff) >= writers) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("DirectReadOwned returned %d, %v: disowned, or writer id %d out of range", v, ok, v&0xff)
		}
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatal("a held publish window never forced the fallback")
		}
	}
	stop.Store(true)
	wg.Wait()
}

// holdPublish does what stripe.publish does — under the stripe mutex, the
// generation to odd and back to even — with the table left as it is and the
// window held open across a reschedule, so that a reader spinning on the
// generation runs while it is odd even on one processor.
func holdPublish(st *stripe) {
	st.mu.Lock()
	st.wseq.Add(1)
	for until := time.Now().Add(20 * time.Microsecond); time.Now().Before(until); {
		runtime.Gosched()
	}
	st.wseq.Add(1)
	st.mu.Unlock()
}
