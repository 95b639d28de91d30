// Namespaces: per-job partitions of the global address space for the
// dsesched multi-job scheduler (DESIGN.md §15).
//
// A namespace is a word region [Base, Limit) carved from the global space
// at block granularity. The scheduler carves one region per job from a
// RegionAllocator and opens the job at every kernel, which binds the region
// for every member PE (NSRegistry, consulted by the kernel service path);
// each member allocates inside the region through a bounded Allocator. Enforcement is kernel-side: a
// bound requester whose GM request touches memory outside its region is
// rejected with the typed OpNsNack, so two jobs can never read or write
// each other's blocks even if one forges addresses.
package gmem

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Region is a job's namespace: the word range [Base, Limit).
type Region struct {
	Base  uint64 // first word of the namespace
	Limit uint64 // one past the last word
}

// Contains reports whether the word range [addr, addr+n) lies entirely
// inside the region. n <= 0 degenerates to a single-word check, matching
// how per-op address scans clamp their counts.
func (r Region) Contains(addr uint64, n int) bool {
	if n < 1 {
		n = 1
	}
	return addr >= r.Base && addr+uint64(n) <= r.Limit && addr+uint64(n) >= addr
}

// Words returns the region's size in words.
func (r Region) Words() uint64 { return r.Limit - r.Base }

// QuotaError is the typed failure of a bounded allocation: the job asked
// for more global memory than its admission-time quota. It is delivered by
// panic from Alloc (matching the unbounded allocator's misuse panics) and
// recovered into a typed error by the PE runner.
type QuotaError struct {
	Region Region // the namespace the allocation ran against
	Need   uint64 // words requested
	Free   uint64 // words left in the region
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("gmem: allocation of %d words exceeds namespace quota [%d,%d) (%d words free)",
		e.Need, e.Region.Base, e.Region.Limit, e.Free)
}

// NewBoundedAllocator returns an allocator confined to region r: it starts
// at r.Base and panics with *QuotaError when an allocation would cross
// r.Limit. Every member of a job runs the same bounded sequence, so the
// SPMD no-coordination property holds inside the namespace too.
func NewBoundedAllocator(space Space, r Region) *Allocator {
	return &Allocator{space: space, next: r.Base, bound: r}
}

// checkBound panics with *QuotaError if the pending allocation [a.next,
// a.next+n) escapes the bound. No-op for unbounded allocators.
func (a *Allocator) checkBound(n int) {
	if a.bound.Limit == 0 {
		return
	}
	if a.next+uint64(n) > a.bound.Limit {
		free := uint64(0)
		if a.bound.Limit > a.next {
			free = a.bound.Limit - a.next
		}
		panic(&QuotaError{Region: a.bound, Need: uint64(n), Free: free})
	}
}

// NSRegistry is one kernel's view of the namespace bindings: the Region of
// each requester PE, zero for one that is not bound. The serial serve loop
// installs them as it opens a job (OpJobOpen, one frame binding every
// member) and removes them as it closes one (OpJobClose); GM handlers look
// them up on every GM request, on whichever context serves, and PEs on every
// access in place, so the table is published copy-on-write behind an atomic
// pointer (nil until the first binding) and a lookup takes no lock and makes
// no call.
type NSRegistry struct {
	mu       sync.Mutex // serialises writers
	n        int        // PEs of the cluster: the table's length
	bindings atomic.Pointer[[]Region]
}

// NewNSRegistry returns an empty registry for a cluster of n PEs (no PE is
// bound; unbound PEs see the whole space, preserving single-job behaviour).
func NewNSRegistry(n int) *NSRegistry { return &NSRegistry{n: n} }

// Bind installs (or replaces) pe's namespace. A PE outside the cluster makes
// no request, so binding one changes nothing.
func (nr *NSRegistry) Bind(pe int, region Region) {
	if uint(pe) >= uint(nr.n) {
		return
	}
	nr.mu.Lock()
	defer nr.mu.Unlock()
	next := make([]Region, nr.n)
	copy(next, nr.table())
	next[pe] = region
	nr.bindings.Store(&next)
}

// Unbind removes pe's namespace, returning it to whole-space access.
func (nr *NSRegistry) Unbind(pe int) { nr.Bind(pe, Region{}) }

// table returns the published bindings, nil before the first.
func (nr *NSRegistry) table() []Region {
	if t := nr.bindings.Load(); t != nil {
		return *t
	}
	return nil
}

// Lookup returns pe's binding. ok=false means unbound: the PE may touch
// the whole space (kernels, and clusters not running the scheduler).
func (nr *NSRegistry) Lookup(pe int) (Region, bool) {
	if t := nr.table(); uint(pe) < uint(len(t)) && t[pe].Limit != 0 {
		return t[pe], true
	}
	return Region{}, false
}

// Admits reports whether pe may touch the n words at addr: it is unbound, or
// its region contains them.
func (nr *NSRegistry) Admits(pe int, addr uint64, n int) bool {
	t := nr.bindings.Load()
	return t == nil || uint(pe) >= uint(len(*t)) || (*t)[pe].Limit == 0 || (*t)[pe].Contains(addr, n)
}

// Len reports how many PEs are currently bound — a teardown leak gauge.
func (nr *NSRegistry) Len() (bound int) {
	for _, r := range nr.table() {
		if r.Limit != 0 {
			bound++
		}
	}
	return bound
}

// RegionAllocator carves job namespaces out of the global space at block
// granularity: a first-fit free list over [0, CapacityBlocks). It is the
// scheduler's single-threaded bookkeeping (guarded by its own mutex so the
// HTTP handlers can read usage gauges concurrently).
type RegionAllocator struct {
	mu       sync.Mutex
	space    Space
	capacity uint64     // total blocks
	free     []blockRun // sorted, coalesced free runs
	used     uint64     // blocks handed out
}

type blockRun struct {
	start uint64 // first block
	n     uint64 // run length in blocks
}

// NewRegionAllocator manages capacityBlocks blocks of the space.
func NewRegionAllocator(space Space, capacityBlocks uint64) *RegionAllocator {
	if capacityBlocks == 0 {
		panic("gmem: region allocator over empty space")
	}
	return &RegionAllocator{
		space:    space,
		capacity: capacityBlocks,
		free:     []blockRun{{start: 0, n: capacityBlocks}},
	}
}

// UsedBlocks reports the blocks currently carved out.
func (ra *RegionAllocator) UsedBlocks() uint64 {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	return ra.used
}

// Carve reserves nBlocks contiguous blocks first-fit and returns the word
// region covering them. ok=false when no free run is large enough — the
// admission-control signal, never a panic, since job specs are user input.
func (ra *RegionAllocator) Carve(nBlocks uint64) (Region, bool) {
	if nBlocks == 0 || nBlocks > ra.capacity {
		return Region{}, false
	}
	ra.mu.Lock()
	defer ra.mu.Unlock()
	for i, run := range ra.free {
		if run.n < nBlocks {
			continue
		}
		start := run.start
		if run.n == nBlocks {
			ra.free = append(ra.free[:i], ra.free[i+1:]...)
		} else {
			ra.free[i] = blockRun{start: run.start + nBlocks, n: run.n - nBlocks}
		}
		ra.used += nBlocks
		bw := uint64(ra.space.BlockWords)
		return Region{Base: start * bw, Limit: (start + nBlocks) * bw}, true
	}
	return Region{}, false
}

// Release returns a carved region to the free list, coalescing with its
// neighbours. Releasing a region that was never carved (or twice) panics:
// that is scheduler state corruption, not user input.
func (ra *RegionAllocator) Release(r Region) {
	bw := uint64(ra.space.BlockWords)
	if r.Base%bw != 0 || r.Limit%bw != 0 || r.Limit <= r.Base {
		panic(fmt.Sprintf("gmem: release of non-block region [%d,%d)", r.Base, r.Limit))
	}
	start, n := r.Base/bw, (r.Limit-r.Base)/bw
	ra.mu.Lock()
	defer ra.mu.Unlock()
	if start+n > ra.capacity || n > ra.used {
		panic(fmt.Sprintf("gmem: release of region [%d,%d) outside capacity", r.Base, r.Limit))
	}
	for _, run := range ra.free {
		if start < run.start+run.n && run.start < start+n {
			panic(fmt.Sprintf("gmem: double release of region [%d,%d)", r.Base, r.Limit))
		}
	}
	ra.free = append(ra.free, blockRun{start: start, n: n})
	sort.Slice(ra.free, func(i, j int) bool { return ra.free[i].start < ra.free[j].start })
	merged := ra.free[:1]
	for _, run := range ra.free[1:] {
		last := &merged[len(merged)-1]
		if last.start+last.n == run.start {
			last.n += run.n
		} else {
			merged = append(merged, run)
		}
	}
	ra.free = merged
	ra.used -= n
}

// DropRange removes every materialised block of this segment whose index
// lies in [firstBlock, firstBlock+nBlocks) — namespace teardown, so a
// finished job's data does not leak to the next job carved into the same
// region. Each stripe is mutated under its mutex
// with a seqlock generation bump (a one-sided reader racing the drop
// retries, exactly like a migration extract). Returns the blocks dropped.
func (g *Segment) DropRange(firstBlock, nBlocks uint64) int {
	dropped := 0
	end := firstBlock + nBlocks
	for i := range g.stripes {
		st := &g.stripes[i]
		st.mu.Lock()
		t := st.table.Load()
		var gone []uint64
		t.each(func(b uint64, _ []int64) {
			if b >= firstBlock && b < end {
				gone = append(gone, b)
			}
		})
		if len(gone) > 0 {
			st.publish(t.without(gone, 0))
			dropped += len(gone)
		}
		st.mu.Unlock()
	}
	return dropped
}

// CountRange reports how many blocks of [firstBlock, firstBlock+nBlocks)
// are materialised in this segment — the teardown leak gauge: after a job's
// namespace is freed the count over its region must be zero.
func (g *Segment) CountRange(firstBlock, nBlocks uint64) int {
	count := 0
	end := firstBlock + nBlocks
	for i := range g.stripes {
		g.stripes[i].table.Load().each(func(b uint64, _ []int64) {
			if b >= firstBlock && b < end {
				count++
			}
		})
	}
	return count
}
