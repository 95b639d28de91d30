// Package gmem implements the DSE global memory management module: a
// global address space of 64-bit words distributed block-cyclically over
// the DSE kernels (paper Fig. 1 — each PE contributes a Global Memory
// slice; the union forms the Distributed Shared Memory).
//
// Each kernel owns a Segment holding the blocks homed at it and serves
// read/write/atomic requests against it; a co-located PE reaches it in place
// through a Pin. Address-space layout (Space) and allocation (Allocator) are
// pure and deterministic so every PE in an SPMD program computes identical
// addresses without coordination.
package gmem

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Space describes the distributed global address space.
type Space struct {
	N          int // kernels sharing the space
	BlockWords int // words per block (home-placement granularity)
	// shift is log2(BlockWords)+1 when BlockWords is a power of two, else 0:
	// NewSpace sets it so that BlockOf shifts instead of dividing.
	shift uint8
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
	s := Space{N: n, BlockWords: blockWords}
	if blockWords&(blockWords-1) == 0 {
		s.shift = uint8(bits.TrailingZeros(uint(blockWords))) + 1
	}
	return s
}

// BlockOf returns the block index containing word address addr.
func (s Space) BlockOf(addr uint64) uint64 {
	if s.shift != 0 {
		return addr >> (s.shift - 1)
	}
	return addr / uint64(s.BlockWords)
}

// HomeOf returns the kernel that homes word address addr.
func (s Space) HomeOf(addr uint64) int { return int(s.BlockOf(addr) % uint64(s.N)) }

// Loc is a word's place in the space as Locate computes it: its block and
// its offset in the block, and the quotient and remainder of the block by the
// kernel count — the block's sequence number among the blocks of its static
// home, which picks the segment stripe, and that home.
// An access locates its word once and hands the Loc down; a scalar access
// whose block a PE has pinned needs only the block index (core's resolution
// table, DESIGN.md §11).
type Loc struct {
	Block uint64 // addr / BlockWords
	Off   int    // addr % BlockWords
	Seq   uint64 // Block / N
	Home  int    // Block % N: the block-cyclic home
}

// Locate returns addr's place. Each of its two divisions yields both its
// quotient and its remainder; with a power-of-two block size the first is a
// shift.
func (s Space) Locate(addr uint64) Loc {
	b := s.BlockOf(addr)
	l := s.LocateBlock(b)
	l.Off = int(addr - b*uint64(s.BlockWords))
	return l
}

// LocateBlock is Locate for the first word of block b.
func (s Space) LocateBlock(b uint64) Loc {
	n := uint64(s.N)
	q := b / n
	return Loc{Block: b, Seq: q, Home: int(b - q*n)}
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
// the kernel-local block sequence number (Loc.Seq), so consecutive blocks of
// one home fall into different stripes.
const SegStripes = 16

// stripe is one lock stripe of a Segment: a slice of the homed blocks with
// its own mutex, a seqlock generation over its block table, and the table
// that lock-free direct readers probe while writers publish.
type stripe struct {
	mu sync.Mutex
	// wseq is the stripe's seqlock generation over its block storage: publish,
	// and nothing else, takes it to odd before it swaps the table and back to
	// even after, so it moves when a block's storage or owner changes (growth,
	// Extract, Adopt, Import, DropRange), never because a word was stored. A
	// store is one atomic word store under mu. Lock-free readers retry while
	// the generation is odd or has moved between their two loads.
	wseq atomic.Uint64
	// table is the published block table (blockTable): blocks are added to it
	// in place, and it is replaced whole by publish. Word slices are shared
	// between generations and mutated in place via atomic stores.
	table atomic.Pointer[blockTable]
}

// Segment is the slice of global memory homed at one kernel. It is striped
// SegStripes ways so accesses to different blocks rarely contend on one
// mutex, and it hands co-located PEs pinned blocks (PinAt) that they read
// lock-free and store to in place. Methods are safe for concurrent use.
type Segment struct {
	space Space
	self  int
	// dir, when set, replaces the static block-cyclic ownership rule with
	// the elastic membership directory: checkHome and Import validate
	// against it, and Extract/Adopt move blocks between segments as homes
	// migrate. Nil keeps the static Space.HomeOf rule. It shares a cache line
	// with self, which every ownership check reads with it.
	dir     *Directory
	stripes [SegStripes]stripe
	// fallbacks counts direct reads that exhausted their seqlock spins against
	// table swaps and took the stripe mutex instead. Observable so tests can
	// assert the fallback path is actually exercised.
	fallbacks atomic.Uint64
}

// SetDirectory installs the elastic membership directory ownership rule.
// Call before the segment serves traffic.
func (g *Segment) SetDirectory(d *Directory) { g.dir = d }

// owns reports whether this segment currently homes the located block: the
// static remainder compare, or the live directory's answer.
func (g *Segment) owns(l Loc) bool {
	if g.dir != nil {
		return g.dir.HomeAt(l) == g.self
	}
	return l.Home == g.self
}

// NewSegment creates kernel self's (initially zero-filled) segment.
func NewSegment(space Space, self int) *Segment {
	if self < 0 || self >= space.N {
		panic(fmt.Sprintf("gmem: kernel %d outside space of %d", self, space.N))
	}
	g := &Segment{space: space, self: self}
	for i := range g.stripes {
		g.stripes[i].table.Store(newBlockTable(0, g.freeKey(i)))
	}
	return g
}

// freeKey is the free-slot key of stripe i's block tables: the first block
// of stripe i+1, which stripe i never holds.
func (g *Segment) freeKey(i int) uint64 {
	return uint64((i+1)%SegStripes) * uint64(g.space.N)
}

// stripeAt returns the stripe owning the located block. Striping by the
// block's sequence number at its home, not by its index, makes consecutive
// homed blocks round-robin over stripes.
func (g *Segment) stripeAt(l Loc) *stripe { return &g.stripes[l.Seq%SegStripes] }

// stripeOf returns the stripe owning block b.
func (g *Segment) stripeOf(b uint64) *stripe { return &g.stripes[g.stripeIndex(b)] }

// stripeIndex is stripeOf's index into g.stripes.
func (g *Segment) stripeIndex(b uint64) int { return int(g.space.LocateBlock(b).Seq % SegStripes) }

// lookup returns block b's storage or nil without materialising it. Safe
// with or without the stripe mutex (blockTable).
func (st *stripe) lookup(b uint64) []int64 { return st.table.Load().find(b) }

// materialise returns block b's storage, adding a fresh zero block if absent.
// Caller holds st.mu. The block is published in place; only a table that had
// to grow is swapped in.
func (st *stripe) materialise(b uint64, blockWords int) []int64 {
	t := st.table.Load()
	if blk := t.find(b); blk != nil {
		return blk
	}
	blk := make([]int64, blockWords)
	if next := t.add(b, blk); next != t {
		st.publish(next)
	}
	return blk
}

// publish swaps in next as the stripe's block table inside a seqlock window,
// so that a reader that probed the old table retries against the new one. It
// is the only writer of wseq. Caller holds st.mu.
func (st *stripe) publish(next *blockTable) {
	st.wseq.Add(1)
	st.table.Store(next)
	st.wseq.Add(1)
}

// checkHome returns the place of the n-word run at addr, panicking unless the
// run lies inside one block homed here.
func (g *Segment) checkHome(addr uint64, n int) Loc {
	l := g.space.Locate(addr)
	if n > g.space.BlockWords-l.Off {
		panic(fmt.Sprintf("gmem: range [%d,+%d) spans blocks; split it at block boundaries first", addr, n))
	}
	g.mustOwn(l, g.owns(l))
	return l
}

// mustOwn panics unless owned, the answer to whether this segment homes the
// located word.
func (g *Segment) mustOwn(l Loc, owned bool) {
	if !owned {
		panic(fmt.Sprintf("gmem: address %d not homed at %d", g.addrOf(l), g.self))
	}
}

// addrOf is Locate's inverse.
func (g *Segment) addrOf(l Loc) uint64 { return l.Block*uint64(g.space.BlockWords) + uint64(l.Off) }

// Read copies n words starting at addr (all homed here, single block).
func (g *Segment) Read(addr uint64, n int) []int64 {
	out := make([]int64, n)
	g.ReadInto(out, addr)
	return out
}

// ReadWord returns the single word at addr without allocating.
func (g *Segment) ReadWord(addr uint64) int64 {
	l := g.space.Locate(addr)
	g.mustOwn(l, g.owns(l))
	var w [1]int64
	g.readRun(g.stripeAt(l), w[:], l, false)
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
// seqlock, one atomic load a word, retrying only while a block table is being
// swapped (publish) or was swapped between the two loads, so it takes no lock
// and returns every word as some store left it; it is not a snapshot of the
// run, which stores change word by word. When publishes keep winning (counted
// in DirectReadFallbacks), and for a long run, the stripe mutex orders it
// against the writers instead. A block never written reads as zeros.
func (g *Segment) ReadRun(dst []int64, b uint64, off int) {
	g.readRun(g.stripeOf(b), dst, Loc{Block: b, Off: off}, false)
}

// ReadRunAt is ReadRun for a run located at l that nobody has checked this
// segment homes: like Pin.Read it checks ownership inside the seqlock window,
// or under the stripe mutex, and reports it, reading nothing of a block it
// does not own.
func (g *Segment) ReadRunAt(dst []int64, l Loc) bool { return g.readRun(g.stripeAt(l), dst, l, true) }

// readRun is ReadRun on the stripe st of the run at l, checking ownership
// first if check is set.
func (g *Segment) readRun(st *stripe, dst []int64, l Loc, check bool) bool {
	if len(dst) <= seqlockWords {
		for spin := 0; spin < seqlockSpins; spin++ {
			s1 := st.wseq.Load()
			if s1&1 != 0 {
				continue
			}
			if check && !g.owns(l) {
				return false
			}
			if blk := st.lookup(l.Block); blk != nil {
				src := blk[l.Off : l.Off+len(dst)]
				for i := range dst {
					dst[i] = atomic.LoadInt64(&src[i])
				}
			} else {
				clear(dst)
			}
			if st.wseq.Load() == s1 {
				return true
			}
		}
		g.fallbacks.Add(1)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if check && !g.owns(l) {
		return false
	}
	if blk := st.lookup(l.Block); blk != nil {
		copy(dst, blk[l.Off:l.Off+len(dst)])
	} else {
		clear(dst)
	}
	return true
}

// DirectReadFallbacks reports how many lock-free reads (ReadRun,
// DirectReadOwned) fell back to the stripe mutex after exhausting their
// seqlock spins.
func (g *Segment) DirectReadFallbacks() uint64 { return g.fallbacks.Load() }

// DirectReadOwned returns the single word at addr without taking the stripe
// mutex unless publishes keep winning: ReadRunAt for one word, which checks
// ownership inside the seqlock window. On an address this segment does not
// own it reports ok=false, telling the caller to fall back to the message
// path (which the current owner will serve, or NACK with a fresh hint). The
// runtime's scalar path reads through a Pin instead; this form stays for the
// benchmark module's gmem.direct_read_ns row.
func (g *Segment) DirectReadOwned(addr uint64) (int64, bool) {
	var w [1]int64
	ok := g.ReadRunAt(w[:], g.space.Locate(addr))
	return w[0], ok
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
		t := st.table.Load()
		var gone []uint64
		t.each(func(b uint64, words []int64) {
			if flips(b) {
				out = append(out, BlockSnapshot{Index: b, Words: slices.Clone(words)})
				gone = append(gone, b)
			}
		})
		if len(gone) > 0 {
			st.publish(t.without(gone, 0))
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

// CheckBlock refuses a block snapshot this space cannot hold: one of the
// wrong size, whose words a later access would index past.
func (s Space) CheckBlock(b BlockSnapshot) error {
	if len(b.Words) != s.BlockWords {
		return fmt.Errorf("block %d has %d words, block size is %d", b.Index, len(b.Words), s.BlockWords)
	}
	return nil
}

// stage copies snapshot blocks into new block tables, one per stripe they
// fall in and nil for the others, refusing a block CheckBlock refuses or one
// listed twice; op names the caller in the error. Nothing is published.
func (g *Segment) stage(op string, blocks []BlockSnapshot) (tabs [SegStripes]*blockTable, err error) {
	for _, b := range blocks {
		if err := g.space.CheckBlock(b); err != nil {
			return tabs, fmt.Errorf("gmem: %s: %w", op, err)
		}
		i := g.stripeIndex(b.Index)
		if tabs[i] == nil {
			tabs[i] = newBlockTable(0, g.freeKey(i))
		}
		if tabs[i].find(b.Index) != nil {
			return tabs, fmt.Errorf("gmem: %s: block %d appears twice", op, b.Index)
		}
		tabs[i] = tabs[i].add(b.Index, slices.Clone(b.Words))
	}
	return tabs, nil
}

// Adopt installs migrated blocks into this segment, overwriting any prior
// storage for them — the new home's side of a migration. A list that names a
// block twice, or holds a block CheckBlock refuses, is refused whole. It
// deliberately does not validate ownership: the adopter installs the data
// BEFORE flipping its directory (so no redirected write can land on a zero
// block and then be clobbered by the adopted payload), at which point its
// directory still names the old home.
func (g *Segment) Adopt(blocks []BlockSnapshot) error {
	tabs, err := g.stage("adopt", blocks)
	if err != nil {
		return err
	}
	for i, next := range tabs {
		if next == nil {
			continue
		}
		st := &g.stripes[i]
		st.mu.Lock()
		st.table.Load().each(func(b uint64, words []int64) {
			if next.find(b) == nil {
				next = next.add(b, words)
			}
		})
		st.publish(next)
		st.mu.Unlock()
	}
	return nil
}

// WriteWord stores a single word at addr without allocating (after the
// block's first write).
func (g *Segment) WriteWord(addr uint64, v int64) {
	l := g.space.Locate(addr)
	for {
		if p := g.mustPin(l); p.Store(l.Off, v) {
			return
		}
	}
}

// mustPin pins the block of the word at l, materialising it, and panics
// unless this segment homes it. The checked word forms re-pin until their op
// finds the pin current: only a publish between the two makes it stale.
func (g *Segment) mustPin(l Loc) Pin {
	p, owned := g.PinAt(l, true)
	g.mustOwn(l, owned)
	return p
}

// ReadInto copies len(dst) words starting at addr into dst (all homed here,
// single block), avoiding the allocation in Read.
func (g *Segment) ReadInto(dst []int64, addr uint64) {
	l := g.checkHome(addr, len(dst))
	g.readRun(g.stripeAt(l), dst, l, false)
}

// ReadAppend appends n words starting at addr to dst and returns the
// extended slice (all homed here, single block).
func (g *Segment) ReadAppend(dst []int64, addr uint64, n int) []int64 {
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	g.ReadInto(dst[at:], addr)
	return dst
}

// writeWindowWords caps the words stored under one stripe mutex hold. A long
// run held under one hold would keep every reader queued on the mutex (a
// long ReadRun, or a short one whose seqlock spins ran out) waiting for the
// whole run; chunking bounds every critical section. Per-word visibility is
// the consistency unit (runs span homes anyway, and a store opens no seqlock
// window), so a reader observing a half-applied run is no new behaviour.
const writeWindowWords = 32

// Write stores words starting at addr (all homed here, single block).
func (g *Segment) Write(addr uint64, words []int64) {
	l := g.checkHome(addr, len(words))
	g.writeRun(g.stripeAt(l), l, words, false)
}

// WriteRun is Write for a run the caller has located and checked, like
// ReadRun's: words go to offset off of block b. The stripe is locked for at
// most writeWindowWords stores at a time, each one atomic word store.
func (g *Segment) WriteRun(b uint64, off int, words []int64) {
	g.writeRun(g.stripeOf(b), Loc{Block: b, Off: off}, words, false)
}

// WriteRunAt is Write for a run located at l that nobody has checked this
// segment homes: each chunk checks ownership inside the stripe's critical
// section, as Pin.Store does, and the run stops at the first chunk refused.
// It returns how many words it stored, a prefix of words — the rest is the
// caller's to send to the block's new home.
func (g *Segment) WriteRunAt(l Loc, words []int64) int {
	return g.writeRun(g.stripeAt(l), l, words, true)
}

// writeRun is WriteRun on the stripe st of the run at l, checking ownership
// in every chunk if check is set; it returns the words stored.
func (g *Segment) writeRun(st *stripe, l Loc, words []int64, check bool) int {
	for start := 0; start == 0 || start < len(words); start += writeWindowWords {
		chunk := words[start:]
		if len(chunk) > writeWindowWords {
			chunk = chunk[:writeWindowWords]
		}
		st.mu.Lock()
		if check && !g.owns(l) {
			st.mu.Unlock()
			return start
		}
		blk := st.materialise(l.Block, g.space.BlockWords)
		for i, v := range chunk {
			atomic.StoreInt64(&blk[l.Off+start+i], v)
		}
		st.mu.Unlock()
	}
	return len(words)
}

// FetchAdd atomically adds delta to the word at addr, returning the
// previous value.
func (g *Segment) FetchAdd(addr uint64, delta int64) int64 {
	l := g.space.Locate(addr)
	for {
		p := g.mustPin(l)
		if old, ok := p.FetchAdd(l.Off, delta); ok {
			return old
		}
	}
}

// CAS atomically compares-and-swaps the word at addr, returning the previous
// value and whether the swap happened.
func (g *Segment) CAS(addr uint64, old, new int64) (prev int64, swapped bool) {
	l := g.space.Locate(addr)
	for {
		p := g.mustPin(l)
		if prev, swapped, ok := p.CAS(l.Off, old, new); ok {
			return prev, swapped
		}
	}
}

// BlockSnapshot is one homed block's state for checkpointing and migration:
// its index and its stored words.
type BlockSnapshot struct {
	Index uint64  // block index (addr / BlockWords)
	Words []int64 // BlockWords values
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
		st.table.Load().each(func(b uint64, words []int64) {
			out = append(out, BlockSnapshot{Index: b, Words: slices.Clone(words)})
		})
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Import replaces this segment's contents with a snapshot taken by Export —
// restart-time restore. Blocks not homed here, blocks CheckBlock refuses,
// and a block listed twice are refused, the whole snapshot with them, so a snapshot from a different cluster geometry or a
// damaged one cannot be silently misapplied.
func (g *Segment) Import(blocks []BlockSnapshot) error {
	for _, b := range blocks {
		if !g.owns(g.space.LocateBlock(b.Index)) {
			return fmt.Errorf("gmem: import: block %d not homed at %d", b.Index, g.self)
		}
	}
	// Every stripe's replacement is built before any is published, so a
	// refused snapshot changes nothing.
	tabs, err := g.stage("import", blocks)
	if err != nil {
		return err
	}
	for i := range tabs {
		if tabs[i] == nil {
			tabs[i] = newBlockTable(0, g.freeKey(i))
		}
	}
	for i := range g.stripes {
		st := &g.stripes[i]
		st.mu.Lock()
		// The swap gives every stripe a fresh generation: a one-sided window
		// reader (rebound to this segment after a recovery restart) that raced
		// it fails its seqlock validation and retries against the imported
		// state instead of returning a word from the discarded generation.
		st.publish(tabs[i])
		st.mu.Unlock()
	}
	return nil
}

// Cache is a block cache keyed by block: the whole blocks inserted, and a
// word looked up in them. Nothing in the runtime uses it; it stays for the
// benchmark module's gmem.cache_lookup_ns row (DESIGN.md §12).
type Cache struct {
	space Space
	mu    sync.Mutex
	data  map[uint64][]int64
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
		return 0, false
	}
	return blk[addr%uint64(c.space.BlockWords)], true
}

// Insert installs a copy of the whole block containing addr.
func (c *Cache) Insert(addr uint64, block []int64) {
	if len(block) != c.space.BlockWords {
		panic("gmem: cache insert of wrong-sized block")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.data[c.space.BlockOf(addr)] = slices.Clone(block)
}
