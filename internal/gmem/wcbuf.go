package gmem

import "slices"

// WCBuf is the per-PE write-combining buffer behind release consistency
// (ModeRelease): writes to release-mode allocations land here instead of
// travelling to the home, and a synchronisation edge drains the buffer into
// one coalesced flush per home. Same-word writes coalesce last-writer-wins;
// the drain order is sorted by address, so a flush is a deterministic
// function of the buffered set regardless of write order or map iteration.
//
// A WCBuf belongs to one PE goroutine and is not safe for concurrent use —
// the same single-writer contract as the PE's cache.
type WCBuf struct {
	words map[uint64]int64
	// order is the scratch reused by Drain between flushes.
	order []uint64
}

// NewWCBuf returns an empty buffer.
func NewWCBuf() *WCBuf {
	return &WCBuf{words: make(map[uint64]int64)}
}

// Put buffers a write of val to word addr, overwriting any buffered value
// (last writer wins per word).
func (b *WCBuf) Put(addr uint64, val int64) {
	b.words[addr] = val
}

// Lookup reports the buffered value for addr, if any — the read-your-writes
// overlay for release-mode reads between synchronisation edges.
func (b *WCBuf) Lookup(addr uint64) (int64, bool) {
	v, ok := b.words[addr]
	return v, ok
}

// Len reports how many distinct words are buffered.
func (b *WCBuf) Len() int { return len(b.words) }

// Drain calls fn for every buffered word in ascending address order and
// empties the buffer. Adjacent addresses arrive adjacently, so the caller
// can coalesce them into write runs with a single comparison per word.
func (b *WCBuf) Drain(fn func(addr uint64, val int64)) {
	if len(b.words) == 0 {
		return
	}
	b.order = b.order[:0]
	for a := range b.words {
		b.order = append(b.order, a)
	}
	slices.Sort(b.order)
	for _, a := range b.order {
		fn(a, b.words[a])
	}
	clear(b.words)
}

// Discard empties the buffer without draining it. Used when the buffered
// words' homes are gone for good (and by the TEST-ONLY skipped-flush fault).
func (b *WCBuf) Discard() {
	clear(b.words)
}
