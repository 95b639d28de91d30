package gmem

import (
	"math/bits"
	"sync/atomic"
)

// blockTable is one stripe's set of materialised blocks: an open-addressed
// table from block index to the block's words, placed by a Fibonacci hash of
// the index and probed linearly, never more than half full. Its size follows
// the number of blocks it holds, not their indices: a block at index 2^50
// costs one slot like any other.
//
// Readers probe it without a lock. A slot is written once, under the stripe
// mutex: its words, then its key with an atomic store, so a reader that finds
// the key finds the words, and a reader racing the insert finds the slot free
// and the block absent, which reads as the zero block being published. Nothing
// is removed or replaced in place: to grow, and to remove or replace blocks,
// the stripe builds a new table and swaps it in inside a seqlock window
// (stripe.publish).
type blockTable struct {
	slots []tableSlot
	shift uint   // 64 - log2(len(slots)): the hash's top bits pick the slot
	free  uint64 // the key of a free slot (see newBlockTable)
	used  int    // occupied slots; written under the stripe mutex
}

type tableSlot struct {
	key   atomic.Uint64 // block index, or the table's free key
	words []int64       // written before key, never after
}

// fibonacci is 2^64 divided by the golden ratio: multiplied by it, consecutive
// block indices scatter over the top bits.
const fibonacci = 0x9e3779b97f4a7c15

// newBlockTable returns an empty table with room for n blocks. free marks a
// free slot and must be an index the table never holds: a stripe passes a
// block of another stripe (Segment.freeKey), so that every index up to
// 2^64-1 stays storable.
func newBlockTable(n int, free uint64) *blockTable {
	size := 2
	for size < 2*n {
		size *= 2
	}
	t := &blockTable{slots: make([]tableSlot, size), shift: uint(64 - bits.TrailingZeros(uint(size))), free: free}
	if free != 0 {
		for i := range t.slots {
			t.slots[i].key.Store(free)
		}
	}
	return t
}

// find returns block b's words, or nil while b is absent.
func (t *blockTable) find(b uint64) []int64 {
	mask := uint64(len(t.slots) - 1)
	for i := (b * fibonacci) >> t.shift; ; i = (i + 1) & mask {
		switch t.slots[i].key.Load() {
		case b:
			return t.slots[i].words
		case t.free:
			return nil
		}
	}
}

// place stores block b, which t does not hold, in the first free slot from
// its hash on. t has room (newBlockTable, add).
func (t *blockTable) place(b uint64, words []int64) {
	mask := uint64(len(t.slots) - 1)
	i := (b * fibonacci) >> t.shift
	for t.slots[i].key.Load() != t.free {
		i = (i + 1) & mask
	}
	t.slots[i].words = words
	t.slots[i].key.Store(b)
	t.used++
}

// add places block b, which t does not hold, and returns the table holding it:
// t itself, or a copy twice the size when t is half full, which the caller
// publishes in t's place.
func (t *blockTable) add(b uint64, words []int64) *blockTable {
	if 2*(t.used+1) > len(t.slots) {
		t = t.without(nil, 1)
	}
	t.place(b, words)
	return t
}

// each calls fn for every block of t, in slot order. Without the stripe mutex
// it sees every block placed before it passes the block's slot.
func (t *blockTable) each(fn func(b uint64, words []int64)) {
	for i := range t.slots {
		if b := t.slots[i].key.Load(); b != t.free {
			fn(b, t.slots[i].words)
		}
	}
}

// without returns a new table holding t's blocks but gone, with room for
// extra more. gone lists some of t's blocks in the order each visits them.
func (t *blockTable) without(gone []uint64, extra int) *blockTable {
	next := newBlockTable(t.used-len(gone)+extra, t.free)
	t.each(func(b uint64, words []int64) {
		if len(gone) > 0 && gone[0] == b {
			gone = gone[1:]
			return
		}
		next.place(b, words)
	})
	return next
}
