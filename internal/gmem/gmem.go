// Package gmem implements the DSE global memory management module: a
// global address space of 64-bit words distributed block-cyclically over
// the DSE kernels (paper Fig. 1 — each PE contributes a Global Memory
// slice; the union forms the Distributed Shared Memory).
//
// Each kernel owns a Segment holding the blocks homed at it, serves
// read/write/atomic requests against it, and keeps a per-block directory of
// the remote readers whose cached-mode reads hold a copy, to invalidate on
// writes. Address-space layout (Space) and allocation (Allocator) are pure
// and deterministic so every PE in an SPMD program computes identical
// addresses without coordination.
package gmem

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Space describes the distributed global address space.
type Space struct {
	N          int // kernels sharing the space
	BlockWords int // words per block (home-placement and caching granularity)
}

// DefaultBlockWords is the default block size: 32 words = 256 bytes.
const DefaultBlockWords = 32

// NewSpace validates and returns a Space.
func NewSpace(n, blockWords int) Space {
	if n <= 0 {
		panic("gmem: space needs at least one kernel")
	}
	if blockWords <= 0 {
		blockWords = DefaultBlockWords
	}
	return Space{N: n, BlockWords: blockWords}
}

// BlockOf returns the block index containing word address addr.
func (s Space) BlockOf(addr uint64) uint64 { return addr / uint64(s.BlockWords) }

// HomeOf returns the kernel that homes word address addr.
func (s Space) HomeOf(addr uint64) int { return int(s.BlockOf(addr) % uint64(s.N)) }

// ShardOf returns the home-side service shard responsible for addr when the
// home kernel runs nshards shards. The mapping hashes the kernel-local block
// sequence number (BlockOf/N), so blocks homed at one kernel spread evenly
// over its shards and every address of one block lands on one shard.
// nshards <= 1 collapses to shard 0.
func (s Space) ShardOf(addr uint64, nshards int) int {
	if nshards <= 1 {
		return 0
	}
	return int((s.BlockOf(addr) / uint64(s.N)) % uint64(nshards))
}

// HomeRuns splits the word range [addr, addr+n) into maximal sub-ranges
// with a single home each, calling fn(home, start, count) for every run in
// ascending address order.
func (s Space) HomeRuns(addr uint64, n int, fn func(home int, start uint64, count int)) {
	for n > 0 {
		home := s.HomeOf(addr)
		blockEnd := (s.BlockOf(addr) + 1) * uint64(s.BlockWords)
		count := int(blockEnd - addr)
		if count > n {
			count = n
		}
		fn(home, addr, count)
		addr += uint64(count)
		n -= count
	}
}

// Allocator hands out global addresses deterministically. Every PE of an
// SPMD program runs the same allocation sequence and therefore computes the
// same addresses with no messages exchanged.
type Allocator struct {
	space Space
	next  uint64
	// bound, when Limit != 0, confines the allocator to a job namespace
	// (see ns.go): allocations past bound.Limit panic with *QuotaError.
	bound Region
}

// NewAllocator starts allocating at address 0.
func NewAllocator(space Space) *Allocator { return &Allocator{space: space} }

// Alloc reserves n words and returns the base address of the region.
func (a *Allocator) Alloc(n int) uint64 {
	if n <= 0 {
		panic("gmem: Alloc of non-positive size")
	}
	a.checkBound(n)
	base := a.next
	a.next += uint64(n)
	return base
}

// AllocBlocks reserves n words aligned to a block boundary, so the region
// starts at a fresh home. Useful to spread independent structures evenly.
func (a *Allocator) AllocBlocks(n int) uint64 {
	bw := uint64(a.space.BlockWords)
	if rem := a.next % bw; rem != 0 {
		a.next += bw - rem
	}
	return a.Alloc(n)
}

// Used reports the number of words allocated so far.
func (a *Allocator) Used() uint64 { return a.next }

// SegStripes is the number of lock stripes per Segment. Stripe choice hashes
// the kernel-local block sequence number, the same quantity Space.ShardOf
// hashes, so for any power-of-two shard count up to SegStripes each service
// shard owns a disjoint set of stripes and services under different shard
// locks never contend on a stripe mutex.
const SegStripes = 16

// stripe is one lock stripe of a Segment: a slice of the homed blocks with
// its own mutex, a seqlock write generation, and a copy-on-write block map
// so lock-free direct readers can traverse it while writers publish.
type stripe struct {
	mu sync.Mutex
	// wseq is the stripe's seqlock generation: incremented to odd before a
	// writer mutates any stored word and back to even after. Direct readers
	// retry while it is odd or has moved between their two loads.
	wseq atomic.Uint64
	// blocks is the published block map. The map pointed to is immutable:
	// adding a block clones the map and swaps the pointer (word slices are
	// shared between generations and mutated in place via atomic stores).
	blocks atomic.Pointer[map[uint64][]int64]
	// copyset maps a homed block to the kernels caching it (directory for
	// the invalidation protocol; empty while no cached-mode read has reached
	// this stripe). Guarded by mu.
	copyset map[uint64]map[int]struct{}
}

// Segment is the slice of global memory homed at one kernel, plus the
// caching directory. It is striped SegStripes ways so independent service
// shards of one kernel mutate disjoint stripes, and it supports a lock-free
// single-word DirectReadOwned for co-located readers (the one-sided read
// fast path). Methods are safe for concurrent use.
type Segment struct {
	space   Space
	self    int
	stripes [SegStripes]stripe
	// dir, when set, replaces the static block-cyclic ownership rule with
	// the elastic membership directory: checkHome and Import validate
	// against it, and Extract/Adopt move blocks between segments as homes
	// migrate. Nil keeps the static Space.HomeOf rule.
	dir *Directory
	// fallbacks counts direct reads that exhausted their seqlock spins and
	// took the stripe mutex instead (writer livelock). Observable so tests
	// can assert the fallback path is actually exercised.
	fallbacks atomic.Uint64
}

// SetDirectory installs the elastic membership directory ownership rule.
// Call before the segment serves traffic.
func (g *Segment) SetDirectory(d *Directory) { g.dir = d }

// owns reports whether this segment currently homes block b.
func (g *Segment) owns(b uint64) bool {
	if g.dir != nil {
		return g.dir.Owns(g.self, b)
	}
	return g.space.HomeOf(b*uint64(g.space.BlockWords)) == g.self
}

// NewSegment creates kernel self's (initially zero-filled) segment.
func NewSegment(space Space, self int) *Segment {
	if self < 0 || self >= space.N {
		panic(fmt.Sprintf("gmem: kernel %d outside space of %d", self, space.N))
	}
	g := &Segment{space: space, self: self}
	for i := range g.stripes {
		m := make(map[uint64][]int64)
		g.stripes[i].blocks.Store(&m)
		g.stripes[i].copyset = make(map[uint64]map[int]struct{})
	}
	return g
}

// stripeOf returns the stripe owning block b. The divide by N converts the
// global block index into this kernel's local block sequence number so that
// consecutive homed blocks round-robin over stripes (and over shards, which
// use the same mapping).
func (g *Segment) stripeOf(b uint64) *stripe {
	return &g.stripes[(b/uint64(g.space.N))%SegStripes]
}

// lookup returns block b's storage or nil without materialising it. Safe
// with or without the stripe mutex: the published map is immutable.
func (st *stripe) lookup(b uint64) []int64 { return (*st.blocks.Load())[b] }

// materialise returns block b's storage, publishing a fresh zero block via
// map copy-on-write if absent. Caller holds st.mu. Publishing needs no
// seqlock window: a direct reader sees either the old map (word reads as 0)
// or the new one (zero block, reads as 0).
func (st *stripe) materialise(b uint64, blockWords int) []int64 {
	old := *st.blocks.Load()
	if blk := old[b]; blk != nil {
		return blk
	}
	blk := make([]int64, blockWords)
	next := make(map[uint64][]int64, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[b] = blk
	st.blocks.Store(&next)
	return blk
}

// checkHome panics if [addr, addr+n) is not entirely homed here.
func (g *Segment) checkHome(addr uint64, n int) {
	b0 := g.space.BlockOf(addr)
	b1 := g.space.BlockOf(addr + uint64(n) - 1)
	if b0 != b1 {
		panic(fmt.Sprintf("gmem: range [%d,+%d) spans blocks; split by HomeRuns first", addr, n))
	}
	if !g.owns(b0) {
		panic(fmt.Sprintf("gmem: address %d not homed at %d", addr, g.self))
	}
}

// Read copies n words starting at addr (all homed here, single block).
func (g *Segment) Read(addr uint64, n int) []int64 {
	out := make([]int64, n)
	g.ReadInto(out, addr)
	return out
}

// ReadWord returns the single word at addr without allocating.
func (g *Segment) ReadWord(addr uint64) int64 {
	var w [1]int64
	g.ReadInto(w[:], addr)
	return w[0]
}

// seqlockSpins is how often a lock-free read retries against writers before
// it takes the stripe mutex instead.
const seqlockSpins = 64

// seqlockWords is the longest run ReadRun reads lock-free. Under the seqlock
// every word is an atomic load, under the mutex the run is one memmove: the
// lock-free form wins up to a couple of dozen words (12 against 20 ns for one
// word, 18 against 26 ns for 16, level at 32 and 84 against 35 ns for 64 on the
// reference host), and a gather's runs are single words while a block
// transfer's are whole blocks.
const seqlockWords = 16

// ReadRun copies the len(dst) words at offset off of block b into dst — a run
// the caller has located inside one block and checked this segment homes (the
// checked forms below, and the shard serving a located request). It is the one
// way a word is read at its home. A short run is read under the stripe's
// seqlock, retrying while a writer's window is open or the generation moved
// between the two loads, so it takes no lock and still returns the run as some
// writer left it; under writer livelock (counted in DirectReadFallbacks), and
// for a long run, the stripe mutex orders it against the writers instead. A
// block never written reads as zeros.
func (g *Segment) ReadRun(dst []int64, b uint64, off int) {
	st := g.stripeOf(b)
	if len(dst) <= seqlockWords {
		for spin := 0; spin < seqlockSpins; spin++ {
			s1 := st.wseq.Load()
			if s1&1 != 0 {
				continue
			}
			if blk := st.lookup(b); blk != nil {
				src := blk[off : off+len(dst)]
				for i := range dst {
					dst[i] = atomic.LoadInt64(&src[i])
				}
			} else {
				clear(dst)
			}
			if st.wseq.Load() == s1 {
				return
			}
		}
		g.fallbacks.Add(1)
	}
	st.mu.Lock()
	if blk := st.lookup(b); blk != nil {
		copy(dst, blk[off:off+len(dst)])
	} else {
		clear(dst)
	}
	st.mu.Unlock()
}

// DirectReadFallbacks reports how many lock-free reads (ReadRun,
// DirectReadOwned) fell back to the stripe mutex after exhausting their
// seqlock spins.
func (g *Segment) DirectReadFallbacks() uint64 { return g.fallbacks.Load() }

// DirectReadOwned returns the single word at addr without taking the stripe
// mutex: the one-sided read fast path for co-located PEs. It is seqlock
// validated — the read retries while a writer's mutation window is open or
// the stripe generation moved between its two loads — so it never returns a
// torn value that a served OpRead could not also have returned, and falls
// back to the stripe mutex under writer livelock. On an address this segment
// does not own it reports ok=false, telling the caller to fall back to the
// message path (which the current owner will serve, or NACK with a fresh
// hint). Ownership is validated inside the seqlock window: Extract bumps the
// stripe generation when it removes migrated blocks, so a reader racing a
// migration either returns the pre-migration value while it is still
// globally current, or fails validation, rechecks ownership and falls back —
// it can never return a stale zero from a dropped block.
func (g *Segment) DirectReadOwned(addr uint64) (int64, bool) {
	b := g.space.BlockOf(addr)
	st := g.stripeOf(b)
	off := int(addr % uint64(g.space.BlockWords))
	for spin := 0; spin < seqlockSpins; spin++ {
		s1 := st.wseq.Load()
		if s1&1 != 0 {
			continue
		}
		if !g.owns(b) {
			return 0, false
		}
		var v int64
		if blk := st.lookup(b); blk != nil {
			v = atomic.LoadInt64(&blk[off])
		}
		if st.wseq.Load() == s1 {
			return v, true
		}
	}
	g.fallbacks.Add(1)
	st.mu.Lock()
	defer st.mu.Unlock()
	if !g.owns(b) {
		return 0, false
	}
	var v int64
	if blk := st.lookup(b); blk != nil {
		v = blk[off]
	}
	return v, true
}

// Extract atomically snapshots and removes every materialised block for
// which flips returns true — the holder's side of a home migration. Each
// stripe is mutated under its mutex with a seqlock generation bump, so
// one-sided readers racing the removal retry instead of reading a dropped
// block. The caller must already have repointed ownership (directory
// update) and fenced in-flight service before extracting, so no writer can
// materialise a removed block afterwards.
func (g *Segment) Extract(flips func(b uint64) bool) []BlockSnapshot {
	var out []BlockSnapshot
	for i := range g.stripes {
		st := &g.stripes[i]
		st.mu.Lock()
		old := *st.blocks.Load()
		var victims []uint64
		for idx := range old {
			if flips(idx) {
				victims = append(victims, idx)
			}
		}
		if len(victims) > 0 {
			next := make(map[uint64][]int64, len(old))
			for k, v := range old {
				next[k] = v
			}
			for _, idx := range victims {
				blk := next[idx]
				bs := BlockSnapshot{Index: idx, Words: make([]int64, len(blk)), Copyset: holders(st.copyset[idx])}
				copy(bs.Words, blk)
				out = append(out, bs)
				delete(next, idx)
				delete(st.copyset, idx)
			}
			st.wseq.Add(1)
			st.blocks.Store(&next)
			st.wseq.Add(1)
		}
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Has reports whether block b is materialised in this segment. Used by the
// migration installer to skip blocks already adopted (a late escrow re-offer
// must not clobber writes applied since the first install).
func (g *Segment) Has(b uint64) bool { return g.stripeOf(b).lookup(b) != nil }

// Adopt installs migrated blocks into this segment, overwriting any prior
// storage for them — the new home's side of a migration. It deliberately
// does not validate ownership: the adopter installs the data BEFORE
// flipping its directory (so no redirected write can land on a zero block
// and then be clobbered by the adopted payload), at which point its
// directory still names the old home.
func (g *Segment) Adopt(blocks []BlockSnapshot) error {
	for _, b := range blocks {
		if len(b.Words) != g.space.BlockWords {
			return fmt.Errorf("gmem: adopt: block %d has %d words, segment block size is %d",
				b.Index, len(b.Words), g.space.BlockWords)
		}
	}
	for _, b := range blocks {
		st := g.stripeOf(b.Index)
		words := make([]int64, len(b.Words))
		copy(words, b.Words)
		st.mu.Lock()
		old := *st.blocks.Load()
		next := make(map[uint64][]int64, len(old)+1)
		for k, v := range old {
			next[k] = v
		}
		next[b.Index] = words
		if len(b.Copyset) > 0 {
			st.copyset[b.Index] = copysetOf(b.Copyset)
		} else {
			delete(st.copyset, b.Index)
		}
		st.wseq.Add(1)
		st.blocks.Store(&next)
		st.wseq.Add(1)
		st.mu.Unlock()
	}
	return nil
}

// WriteWord stores a single word at addr without allocating (after the
// block's first write).
func (g *Segment) WriteWord(addr uint64, v int64) {
	g.checkHome(addr, 1)
	b := g.space.BlockOf(addr)
	st := g.stripeOf(b)
	st.mu.Lock()
	blk := st.materialise(b, g.space.BlockWords)
	st.wseq.Add(1)
	atomic.StoreInt64(&blk[addr%uint64(g.space.BlockWords)], v)
	st.wseq.Add(1)
	st.mu.Unlock()
}

// ReadInto copies len(dst) words starting at addr into dst (all homed here,
// single block), avoiding the allocation in Read.
func (g *Segment) ReadInto(dst []int64, addr uint64) {
	g.checkHome(addr, len(dst))
	bw := uint64(g.space.BlockWords)
	g.ReadRun(dst, addr/bw, int(addr%bw))
}

// ReadAppend appends n words starting at addr to dst and returns the
// extended slice (all homed here, single block).
func (g *Segment) ReadAppend(dst []int64, addr uint64, n int) []int64 {
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	g.ReadInto(dst[at:], addr)
	return dst
}

// writeWindowWords caps the words stored under one stripe mutex hold and
// one seqlock window. A vectored write used to apply each run under a
// single odd window; with large block sizes that held the stripe long
// enough to starve a DirectRead that had already burned its seqlock spins
// and was queued on the mutex. Chunking bounds every critical section —
// per-word visibility is the consistency unit (runs span homes anyway), so
// a reader observing a half-applied run between chunks is no new behaviour.
const writeWindowWords = 32

// Copy names one cached copy a mutation made stale: kernel Holder's copy of
// the block containing Addr.
type Copy struct {
	Addr   uint64
	Holder int
}

// takeCopies empties block b's copyset into *stale, one Copy at addr per
// holder in ascending order, leaving out writer (a PE drops its own copy
// itself). A nil stale leaves the directory alone. Caller holds st.mu. Until
// a cached-mode read reaches the stripe a block costs the len test, which
// is kept apart so that it inlines into the mutators.
func (st *stripe) takeCopies(b, addr uint64, writer int, stale *[]Copy) {
	if stale != nil && len(st.copyset) != 0 {
		st.takeHolders(b, addr, writer, stale)
	}
}

func (st *stripe) takeHolders(b, addr uint64, writer int, stale *[]Copy) {
	for _, k := range holders(st.copyset[b]) {
		if k != writer {
			*stale = append(*stale, Copy{Addr: addr, Holder: k})
		}
	}
	delete(st.copyset, b)
}

// Write stores words starting at addr (all homed here, single block) and
// leaves the copyset alone: the form for callers not serving a request.
func (g *Segment) Write(addr uint64, words []int64) { g.WriteShared(addr, words, 0, nil) }

// WriteShared is Write as the home serves it for kernel writer: the critical
// section of the last store also takes the block's copyset into *stale
// (takeCopies), so a copy registered earlier is invalidated and a later one
// holds the new words.
func (g *Segment) WriteShared(addr uint64, words []int64, writer int, stale *[]Copy) {
	g.checkHome(addr, len(words))
	bw := uint64(g.space.BlockWords)
	g.WriteRun(addr/bw, int(addr%bw), words, writer, stale)
}

// WriteRun is WriteShared for a run the caller has located and checked, like
// ReadRun's: words go to offset off of block b. The stripe is locked and the
// seqlock window held for at most writeWindowWords stores at a time.
func (g *Segment) WriteRun(b uint64, off int, words []int64, writer int, stale *[]Copy) {
	st := g.stripeOf(b)
	for start := 0; start == 0 || start < len(words); start += writeWindowWords {
		chunk := words[start:]
		if len(chunk) > writeWindowWords {
			chunk = chunk[:writeWindowWords]
		}
		st.mu.Lock()
		blk := st.materialise(b, g.space.BlockWords)
		st.wseq.Add(1)
		for i, v := range chunk {
			atomic.StoreInt64(&blk[off+start+i], v)
		}
		st.wseq.Add(1)
		if start+writeWindowWords >= len(words) {
			st.takeCopies(b, b*uint64(g.space.BlockWords)+uint64(off), writer, stale)
		}
		st.mu.Unlock()
	}
}

// FetchAdd atomically adds delta to the word at addr, returning the
// previous value. Like Write it leaves the copyset alone.
func (g *Segment) FetchAdd(addr uint64, delta int64) int64 {
	return g.FetchAddShared(addr, delta, 0, nil)
}

// FetchAddShared is FetchAdd as the home serves it: see WriteShared.
func (g *Segment) FetchAddShared(addr uint64, delta int64, writer int, stale *[]Copy) int64 {
	g.checkHome(addr, 1)
	b := g.space.BlockOf(addr)
	st := g.stripeOf(b)
	st.mu.Lock()
	blk := st.materialise(b, g.space.BlockWords)
	off := int(addr % uint64(g.space.BlockWords))
	old := blk[off]
	st.wseq.Add(1)
	atomic.StoreInt64(&blk[off], old+delta)
	st.wseq.Add(1)
	st.takeCopies(b, addr, writer, stale)
	st.mu.Unlock()
	return old
}

// CAS atomically compares-and-swaps the word at addr, returning the previous
// value and whether the swap happened. Like Write it leaves the copyset alone.
func (g *Segment) CAS(addr uint64, old, new int64) (prev int64, swapped bool) {
	return g.CASShared(addr, old, new, 0, nil)
}

// CASShared is CAS as the home serves it: see WriteShared. A swap that did
// not happen changed nothing and takes no copyset.
func (g *Segment) CASShared(addr uint64, old, new int64, writer int, stale *[]Copy) (prev int64, swapped bool) {
	g.checkHome(addr, 1)
	b := g.space.BlockOf(addr)
	st := g.stripeOf(b)
	st.mu.Lock()
	defer st.mu.Unlock()
	blk := st.materialise(b, g.space.BlockWords)
	off := int(addr % uint64(g.space.BlockWords))
	prev = blk[off]
	if prev != old {
		return prev, false
	}
	st.wseq.Add(1)
	atomic.StoreInt64(&blk[off], new)
	st.wseq.Add(1)
	st.takeCopies(b, addr, writer, stale)
	return prev, true
}

// ReadBlockFor appends the whole block containing addr to dst and records
// reader in the block's copyset (the caching protocol's read miss). The block
// is materialised so the directory entry survives Export.
func (g *Segment) ReadBlockFor(dst []int64, addr uint64, reader int) []int64 {
	g.checkHome(addr, 1)
	b := g.space.BlockOf(addr)
	st := g.stripeOf(b)
	st.mu.Lock()
	dst = append(dst, st.materialise(b, g.space.BlockWords)...)
	if reader != g.self {
		cs := st.copyset[b]
		if cs == nil {
			cs = make(map[int]struct{})
			st.copyset[b] = cs
		}
		cs[reader] = struct{}{}
	}
	st.mu.Unlock()
	return dst
}

// holders lists one copyset's kernels in ascending order.
func holders(cs map[int]struct{}) []int {
	var out []int
	for k := range cs {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// copysetOf is holders' inverse.
func copysetOf(ks []int) map[int]struct{} {
	cs := make(map[int]struct{}, len(ks))
	for _, k := range ks {
		cs[k] = struct{}{}
	}
	return cs
}

// Copyset reports the kernels currently caching block b (for tests).
func (g *Segment) Copyset(b uint64) []int {
	st := g.stripeOf(b)
	st.mu.Lock()
	defer st.mu.Unlock()
	return holders(st.copyset[b])
}

// BlockSnapshot is one homed block's state for checkpointing: the stored
// words plus the coherence directory entry (which kernels cache the block).
type BlockSnapshot struct {
	Index   uint64  // block index (addr / BlockWords)
	Words   []int64 // BlockWords values
	Copyset []int   // caching kernels, sorted
}

// Export snapshots every materialised block of this segment, sorted by block
// index — the kernel's slice of the coordinated checkpoint. The returned
// words are copies; the segment may keep mutating afterwards. Each stripe is
// snapshotted under its own mutex; cross-stripe atomicity is the caller's
// concern (the kernel fences all service shards before exporting).
func (g *Segment) Export() []BlockSnapshot {
	var out []BlockSnapshot
	for i := range g.stripes {
		st := &g.stripes[i]
		st.mu.Lock()
		for idx, blk := range *st.blocks.Load() {
			bs := BlockSnapshot{Index: idx, Words: make([]int64, len(blk)), Copyset: holders(st.copyset[idx])}
			copy(bs.Words, blk)
			out = append(out, bs)
		}
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Import replaces this segment's contents with a snapshot taken by Export —
// restart-time restore. Blocks not homed here, or whose word count does not
// match the block size, are rejected so a snapshot from a different cluster
// geometry cannot be silently misapplied.
func (g *Segment) Import(blocks []BlockSnapshot) error {
	for _, b := range blocks {
		if len(b.Words) != g.space.BlockWords {
			return fmt.Errorf("gmem: import: block %d has %d words, segment block size is %d",
				b.Index, len(b.Words), g.space.BlockWords)
		}
		if !g.owns(b.Index) {
			return fmt.Errorf("gmem: import: block %d not homed at %d", b.Index, g.self)
		}
	}
	// Build each stripe's replacement maps fully before publishing, so a
	// concurrent direct reader only ever sees a complete generation.
	maps := make([]map[uint64][]int64, SegStripes)
	csets := make([]map[uint64]map[int]struct{}, SegStripes)
	for i := range maps {
		maps[i] = make(map[uint64][]int64)
		csets[i] = make(map[uint64]map[int]struct{})
	}
	for _, b := range blocks {
		si := (b.Index / uint64(g.space.N)) % SegStripes
		words := make([]int64, len(b.Words))
		copy(words, b.Words)
		maps[si][b.Index] = words
		if len(b.Copyset) > 0 {
			csets[si][b.Index] = copysetOf(b.Copyset)
		}
	}
	for i := range g.stripes {
		st := &g.stripes[i]
		st.mu.Lock()
		// The odd/even bump gives every stripe a fresh generation: a
		// one-sided window reader (rebound to this segment after a recovery
		// restart) that raced the swap fails its seqlock validation and
		// retries against the imported state instead of returning a word
		// from the discarded generation.
		st.wseq.Add(1)
		st.blocks.Store(&maps[i])
		st.copyset = csets[i]
		st.wseq.Add(1)
		st.mu.Unlock()
	}
	return nil
}

// F2W and W2F convert float64 values to and from their word representation;
// the numeric applications store floating-point data in global memory.
func F2W(f float64) int64 { return int64(math.Float64bits(f)) }

// W2F is the inverse of F2W.
func W2F(w int64) float64 { return math.Float64frombits(uint64(w)) }

// Cache is a PE-local block cache for the invalidation protocol: the blocks
// the PE's cached-mode reads fetched, each registered in its home's copyset.
type Cache struct {
	space Space
	mu    sync.Mutex
	data  map[uint64][]int64
	hits  uint64
	miss  uint64
	inval uint64
	// held mirrors len(data): Invalidate, which every message-path mutation
	// ends in, costs a PE that holds no copies one load and no lock.
	held atomic.Int64
}

// NewCache creates an empty cache over the space.
func NewCache(space Space) *Cache {
	return &Cache{space: space, data: make(map[uint64][]int64)}
}

// Lookup returns the cached word at addr.
func (c *Cache) Lookup(addr uint64) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	blk, ok := c.data[c.space.BlockOf(addr)]
	if !ok {
		c.miss++
		return 0, false
	}
	c.hits++
	return blk[addr%uint64(c.space.BlockWords)], true
}

// Insert installs a whole block fetched from its home.
func (c *Cache) Insert(addr uint64, block []int64) {
	if len(block) != c.space.BlockWords {
		panic("gmem: cache insert of wrong-sized block")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := make([]int64, len(block))
	copy(cp, block)
	c.data[c.space.BlockOf(addr)] = cp
	c.held.Store(int64(len(c.data)))
}

// Invalidate drops the block containing addr.
func (c *Cache) Invalidate(addr uint64) {
	if c.held.Load() != 0 {
		c.drop(addr)
	}
}

func (c *Cache) drop(addr uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.data, c.space.BlockOf(addr))
	c.inval++
	c.held.Store(int64(len(c.data)))
}

// Stats reports hits, misses and invalidations so far.
func (c *Cache) Stats() (hits, misses, invalidations uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.miss, c.inval
}
