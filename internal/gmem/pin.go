package gmem

import "sync/atomic"

// Pin is one block of a segment resolved for repeated word access: the
// block's storage, its stripe, and the stripe's seqlock generation when the
// storage was found (DESIGN.md §11). Storage is replaced only by a publish —
// table growth, Extract, Adopt, Import, DropRange — and every publish moves
// the generation, so while the generation equals the pinned one the pinned
// storage is still the block's. Each op compares the two and reports stale,
// changing nothing, once they differ; the caller pins the block again.
//
// The generation says nothing about who homes the block: a directory flips
// before Extract publishes (§13), so each op still checks ownership, inside
// the seqlock window or the stripe mutex, exactly where the unpinned forms
// did (§12). A Pin is a plain value of 64 bytes; copies share the block.
type Pin struct {
	seg *Segment
	blk []int64 // the block's storage; nil for a block absent when pinned
	gen uint64  // the stripe's generation blk was found under
	// The block's place, Loc without the offset, and the kernel whose
	// segment this is.
	block, seq uint64
	home, self int32
}

// PinAt pins the block of the word located at l, reporting false if this
// segment does not home it. With create set a block never written is
// materialised, as a store would; without, it is left absent and the pin does
// not hold it (Held): a read through it probes the stripe's table, reading
// zeros while the block is absent, and a store, fetch-add or CAS through it
// reports stale. A store adds a block to the table in place, which moves no
// generation, so such a pin never turns into a held one.
func (g *Segment) PinAt(l Loc, create bool) (Pin, bool) {
	st := g.stripeAt(l)
	p := Pin{seg: g, block: l.Block, seq: l.Seq, home: int32(l.Home), self: int32(g.self)}
	for spin := 0; spin < seqlockSpins; spin++ {
		s1 := st.wseq.Load()
		if s1&1 != 0 {
			continue
		}
		if !g.owns(l) {
			return Pin{}, false
		}
		blk := st.lookup(l.Block)
		if blk == nil && create {
			break // materialising takes the mutex
		}
		if st.wseq.Load() == s1 {
			p.blk, p.gen = blk, s1
			return p, true
		}
	}
	if !create {
		g.fallbacks.Add(1)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !g.owns(l) {
		return Pin{}, false
	}
	if create {
		p.blk = st.materialise(l.Block, g.space.BlockWords)
	} else {
		p.blk = st.lookup(l.Block)
	}
	p.gen = st.wseq.Load() // even: publish holds the mutex
	return p, true
}

// Held reports whether p holds the block's storage, and so stays good across
// accesses until it goes stale.
func (p *Pin) Held() bool { return p.blk != nil }

// Loc returns the pinned block's place, its first word's.
func (p *Pin) Loc() Loc { return Loc{Block: p.block, Seq: p.seq, Home: int(p.home)} }

// stripe returns the pinned block's stripe.
func (p *Pin) stripe() *stripe { return &p.seg.stripes[p.seq%SegStripes] }

// Home returns the kernel whose segment p pins.
func (p *Pin) Home() int { return int(p.self) }

// Read returns the word at offset off of the pinned block, lock-free: one
// atomic load inside a seqlock window, which opens on the pinned generation
// and closes on the same, so it never returns a word from replaced storage or
// a block this segment has stopped homing. ok=false means stale.
func (p *Pin) Read(off int) (v int64, ok bool) {
	st := p.stripe()
	s1 := st.wseq.Load()
	if s1 != p.gen {
		return 0, false
	}
	// Segment.owns, written out: the call would cost as much as the read.
	if d := p.seg.dir; d != nil && !d.static.Load() {
		if d.HomeOfBlock(p.block) != int(p.self) {
			return 0, false
		}
	} else if p.home != p.self {
		return 0, false
	}
	blk := p.blk
	if blk == nil {
		if blk = st.lookup(p.block); blk == nil {
			return 0, st.wseq.Load() == s1
		}
	}
	v = atomic.LoadInt64(&blk[off])
	return v, st.wseq.Load() == s1
}

// lock takes the stripe mutex and returns the stripe if p is still current
// under it: held, at the pinned generation, and its block homed here. It
// returns nil, the mutex released, when p is not.
func (p *Pin) lock() *stripe {
	st := p.stripe()
	st.mu.Lock()
	if p.blk == nil || st.wseq.Load() != p.gen || !p.seg.owns(p.Loc()) {
		st.mu.Unlock()
		return nil
	}
	return st
}

// Store stores v at offset off of the pinned block: one atomic word store
// under the stripe mutex, which orders it against Extract (§12). false means
// stale, and nothing was stored.
func (p *Pin) Store(off int, v int64) bool {
	st := p.lock()
	if st == nil {
		return false
	}
	atomic.StoreInt64(&p.blk[off], v)
	st.mu.Unlock()
	return true
}

// FetchAdd adds delta to the word at offset off of the pinned block and
// returns its previous value, as Store does. ok=false means stale.
func (p *Pin) FetchAdd(off int, delta int64) (old int64, ok bool) {
	st := p.lock()
	if st == nil {
		return 0, false
	}
	old = p.blk[off]
	atomic.StoreInt64(&p.blk[off], old+delta)
	st.mu.Unlock()
	return old, true
}

// CAS swaps the word at offset off of the pinned block for new if it holds
// old, as Store does, returning its previous value and whether it swapped.
// ok=false means stale.
func (p *Pin) CAS(off int, old, new int64) (prev int64, swapped, ok bool) {
	st := p.lock()
	if st == nil {
		return 0, false, false
	}
	prev = p.blk[off]
	if swapped = prev == old; swapped {
		atomic.StoreInt64(&p.blk[off], new)
	}
	st.mu.Unlock()
	return prev, swapped, true
}
