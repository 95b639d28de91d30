package gmem

import (
	"fmt"
	"sync/atomic"
)

// RingWrite is one single-word write submitted through a SubmitRing: the
// payload of a slot. Seq comes from the requester kernel's request-id
// counter, so ring writes share the exactly-once sequence space with the
// message path — the home shard records (Src, Seq) in the same dedup window
// a retried OpWrite would hit, and the write is applied exactly once even if
// both paths race.
type RingWrite struct {
	Addr uint64
	Val  int64
	Seq  uint64
	Src  int32
}

// SubmitRing is a bounded multi-producer single-consumer ring of RingWrite
// slots: the one-sided write fast path between co-located PEs and the home
// kernel's service shard. Producers claim a slot with one CAS on tail,
// fill the payload, and publish it with a single atomic store of the slot's
// state word. The ring has no consumer of its own: the consumer side (Drain,
// Release, Pending) belongs to whoever holds the owning shard's lock, and
// each producer takes that lock and drains right after it publishes, again
// if need be until its own write is Consumed: Drain stops at a slot that is
// claimed but not yet published, leaving later slots for the next pass.
//
// The state word of slot i follows the bounded-MPMC sequence discipline,
// restricted here to one consumer at a time: it holds pos when the slot is
// free for the producer claiming position pos, pos+1 once that producer
// published, and pos+size once the consumer has applied the write and
// recycled the slot. All comparisons are modular (state - pos), so the ring
// keeps working when positions wrap around uint64.
type SubmitRing struct {
	slots []ringSlot
	mask  uint64
	size  uint64
	tail  atomic.Uint64 // next position a producer will claim
	head  uint64        // next position the consumer will inspect; consumer side only
}

type ringSlot struct {
	state atomic.Uint64
	// Payload: written by the claiming producer before the state publish,
	// read by the consumer after observing it. The state word's
	// release/acquire pair orders the plain accesses.
	addr uint64
	val  int64
	seq  uint64
	src  int32
}

// NewSubmitRing builds a ring with n slots; n must be a power of two.
func NewSubmitRing(n int) *SubmitRing {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("gmem: ring size %d is not a power of two", n))
	}
	return newSubmitRingAt(n, 0)
}

// newSubmitRingAt starts the ring's positions at start instead of 0 — a
// test hook so wraparound behaviour near the top of uint64 is reachable.
func newSubmitRingAt(n int, start uint64) *SubmitRing {
	r := &SubmitRing{slots: make([]ringSlot, n), mask: uint64(n) - 1, size: uint64(n)}
	// Slot (start+k)&mask is the one position start+k claims, so that is the
	// slot whose state must read start+k (indexing slots[k] directly is only
	// equivalent when start is a multiple of n).
	for k := 0; k < n; k++ {
		pos := start + uint64(k)
		r.slots[pos&r.mask].state.Store(pos)
	}
	r.tail.Store(start)
	r.head = start
	return r
}

// Push claims a slot, fills it with w, and publishes it. It returns the
// claimed position (for Consumed) and ok=false without side effects when the
// ring is full — the caller falls back to the message path with a fresh
// sequence, so a rejected push can never be half-applied.
func (r *SubmitRing) Push(w RingWrite) (pos uint64, ok bool) {
	for {
		pos = r.tail.Load()
		s := &r.slots[pos&r.mask]
		switch diff := int64(s.state.Load() - pos); {
		case diff == 0:
			if r.tail.CompareAndSwap(pos, pos+1) {
				s.addr, s.val, s.seq, s.src = w.Addr, w.Val, w.Seq, w.Src
				s.state.Store(pos + 1) // publish: the single atomic store
				return pos, true
			}
		case diff < 0:
			return 0, false // slot not yet recycled: ring full
		default:
			// Another producer claimed pos between our two loads; retry.
		}
	}
}

// Drain copies up to len(buf) published slots into buf, in submission
// order, WITHOUT recycling them: the slots stay claimed until Release, so
// Consumed turns true only once the consumer has actually applied the write.
// Consumer side only.
func (r *SubmitRing) Drain(buf []RingWrite) int {
	n := 0
	for n < len(buf) {
		pos := r.head + uint64(n)
		s := &r.slots[pos&r.mask]
		if s.state.Load() != pos+1 {
			break
		}
		buf[n] = RingWrite{Addr: s.addr, Val: s.val, Seq: s.seq, Src: s.src}
		n++
	}
	return n
}

// Release recycles the first n drained slots, advancing head. Call only after
// the drained writes have been applied (and their dedup entries completed).
// Consumer side only.
func (r *SubmitRing) Release(n int) {
	for i := 0; i < n; i++ {
		s := &r.slots[r.head&r.mask]
		s.state.Store(r.head + r.size)
		r.head++
	}
}

// Consumed reports whether the write published at pos has been applied and
// its slot recycled.
func (r *SubmitRing) Consumed(pos uint64) bool {
	return r.slots[pos&r.mask].state.Load()-pos >= r.size
}

// Pending reports how many published-but-unreleased slots the ring holds.
// Consumer side only (it reads head without synchronisation).
func (r *SubmitRing) Pending() int {
	n := 0
	for uint64(n) < r.size {
		pos := r.head + uint64(n)
		if r.slots[pos&r.mask].state.Load() != pos+1 {
			break
		}
		n++
	}
	return n
}

// ApplyWrites applies a drained batch to the segment: consecutive writes to
// the same block share one stripe mutex hold, and the hold is capped at a
// single block so a reader queued on the mutex never waits behind a long
// batch (the per-block bound writeRun applies to vectored runs). Each word
// is one atomic store and moves no seqlock generation, so concurrent
// DirectReads stay torn-free and never retry because of it.
func (g *Segment) ApplyWrites(ops []RingWrite) {
	bw := uint64(g.space.BlockWords)
	for i := 0; i < len(ops); {
		l := g.checkHome(ops[i].Addr, 1)
		base := l.Block * bw
		j := i + 1
		for j < len(ops) && ops[j].Addr-base < bw {
			j++
		}
		st := g.stripeAt(l)
		st.mu.Lock()
		blk := st.materialise(l.Block, g.space.BlockWords)
		for _, op := range ops[i:j] {
			atomic.StoreInt64(&blk[op.Addr-base], op.Val)
		}
		st.mu.Unlock()
		i = j
	}
}
