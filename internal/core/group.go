package core

// JobPE: the per-job view of a PE a scheduled program runs against
// (dsesched, DESIGN.md §15). It renumbers the job's gang to ranks
// [0, len(Members)), carves allocation out of the job's namespace through a
// bounded allocator, offsets every tag and synchronisation id into the
// job's private window, runs group-sized barriers through the central
// manager, and aborts the program with a typed panic when the scheduler
// cancels the job or its deadline passes.

import (
	"fmt"
	"sync/atomic"

	"repro/internal/gmem"
	"repro/internal/sim"
)

// Job tag-window layout. Each resident job owns the window
// [TagBase, TagBase+JobTagSpan) of the int32 tag/sync-id space: user tags
// and sync ids are offsets into it, the top reservedJobTags ids belong to
// the group collectives. Windows start above every whole-cluster tag in use
// (applications and the mp library stay below 1<<25) and stay below the
// SSI registry's reserved ids near 1<<30.
const (
	// JobTagSpan is the width of one job's tag window.
	JobTagSpan int32 = 1 << 25
	// JobSlots is how many disjoint windows fit under the reserved SSI ids —
	// the hard ceiling on concurrently resident jobs.
	JobSlots = 30

	reservedJobTags int32 = 2 // group reduce up/down
)

// JobSlotBase returns the tag window base of resident-job slot s in
// [0, JobSlots).
func JobSlotBase(s int) int32 {
	if s < 0 || s >= JobSlots {
		panic(fmt.Sprintf("core: job slot %d out of range [0,%d)", s, JobSlots))
	}
	return int32(s+1) * JobTagSpan
}

// JobGroup describes one scheduled job's slice of the cluster.
type JobGroup struct {
	Name     string       // job name (diagnostics)
	Members  []int        // Members[rank] = global kernel id; Members[0] is job rank 0
	TagBase  int32        // base of the job's private tag/sync-id window
	Region   gmem.Region  // the job's GM namespace
	Mode     gmem.Mode    // consistency tier of the job's allocations
	Deadline sim.Time     // abort boundary (0 = none)
	Cancel   *atomic.Bool // scheduler-side cancellation flag (nil = never)
}

// JobAbortError aborts a scheduled job's program: the scheduler cancelled
// it, or its deadline passed. JobPE raises it by panic at the next blocking
// or global-memory call; the worker loop recovers it and reports the job
// cancelled/expired instead of crashing the PE.
type JobAbortError struct {
	Job      string
	Rank     int
	Deadline bool // true: the deadline expired; false: cancelled
}

func (e *JobAbortError) Error() string {
	why := "cancelled"
	if e.Deadline {
		why = "deadline expired"
	}
	return fmt.Sprintf("core: job %q rank %d aborted: %s", e.Job, e.Rank, why)
}

// JobPE is the Proc a scheduled job's program runs against. One JobPE wraps
// one worker PE for the duration of one job and is used, like the PE, by
// exactly one goroutine.
type JobPE struct {
	pe     *PE
	g      JobGroup
	rank   int
	alloc  *gmem.Allocator
	rankOf map[int]int // global kernel id -> job rank
}

// NewJobPE wraps pe as the given group's member. pe must appear in
// g.Members, its namespace must already be bound (BindNamespace), and
// g.Region must be block-aligned (RegionAllocator carves are).
func NewJobPE(pe *PE, g JobGroup) *JobPE {
	jp := &JobPE{pe: pe, g: g, rank: -1, rankOf: make(map[int]int, len(g.Members))}
	for r, id := range g.Members {
		if id == pe.ID() {
			jp.rank = r
		}
		jp.rankOf[id] = r
	}
	if jp.rank < 0 {
		panic(fmt.Sprintf("core: PE %d is not a member of job %q", pe.ID(), g.Name))
	}
	jp.alloc = gmem.NewBoundedAllocator(pe.k.space, g.Region)
	return jp
}

// Rank returns this member's job rank (same as ID; exported separately so
// non-Proc callers don't confuse it with the global kernel id).
func (jp *JobPE) Rank() int { return jp.rank }

// QuotaUsed reports how many words of the job's namespace this member's
// allocator has handed out — the job's GM-quota gauge (every member runs
// the same deterministic allocation sequence, so any member's number is
// the job's).
func (jp *JobPE) QuotaUsed() uint64 { return jp.alloc.Used() - jp.g.Region.Base }

// PE returns the underlying worker PE.
func (jp *JobPE) PE() *PE { return jp.pe }

// gate aborts the program with a typed panic when the job was cancelled or
// ran past its deadline. Called on every blocking and global-memory entry
// point, so a cancelled job stops within one operation.
func (jp *JobPE) gate() {
	if jp.g.Cancel != nil && jp.g.Cancel.Load() {
		panic(&JobAbortError{Job: jp.g.Name, Rank: jp.rank})
	}
	if jp.g.Deadline != 0 && jp.pe.Now() > jp.g.Deadline {
		panic(&JobAbortError{Job: jp.g.Name, Rank: jp.rank, Deadline: true})
	}
}

// windowID maps a job-local message tag or synchronisation id (barrier, lock
// or semaphore) into the job's private window.
func (jp *JobPE) windowID(id int32) int32 {
	if id < 0 || id >= JobTagSpan-reservedJobTags {
		panic(fmt.Sprintf("core: job %q: tag or sync id %d outside [0,%d)", jp.g.Name, id, JobTagSpan-reservedJobTags))
	}
	return jp.g.TagBase + id
}

// --- Identity / environment ---

// ID returns this member's job rank in [0, N()).
func (jp *JobPE) ID() int { return jp.rank }

// N returns the job's gang size.
func (jp *JobPE) N() int { return len(jp.g.Members) }

// Hostname reports the underlying node's hostname.
func (jp *JobPE) Hostname() string { return jp.pe.Hostname() }

// GPID reports the underlying DSE process's cluster-global process id.
func (jp *JobPE) GPID() int64 { return jp.pe.GPID() }

// Now reports the PE's current time.
func (jp *JobPE) Now() sim.Time { return jp.pe.Now() }

// Compute models local computation.
func (jp *JobPE) Compute(ops float64) { jp.pe.Compute(ops) }

// Space exposes the global address-space geometry.
func (jp *JobPE) Space() gmem.Space { return jp.pe.Space() }

// --- Allocation (quota-bounded, job consistency mode) ---

// Alloc reserves n words inside the job's namespace; exceeding the quota
// panics with *gmem.QuotaError. Allocations take the job's consistency mode.
func (jp *JobPE) Alloc(n int) uint64 {
	jp.gate()
	return jp.tagMode(jp.alloc.Alloc(n), n, jp.g.Mode)
}

// AllocBlocks is Alloc aligned to a block boundary.
func (jp *JobPE) AllocBlocks(n int) uint64 {
	jp.gate()
	return jp.tagMode(jp.alloc.AllocBlocks(n), n, jp.g.Mode)
}

// AllocMode is Alloc with an explicit consistency mode for this allocation.
func (jp *JobPE) AllocMode(n int, m gmem.Mode) uint64 {
	jp.gate()
	return jp.tagMode(jp.alloc.Alloc(n), n, m)
}

// AllocBlocksMode is AllocBlocks with an explicit consistency mode.
func (jp *JobPE) AllocBlocksMode(n int, m gmem.Mode) uint64 {
	jp.gate()
	return jp.tagMode(jp.alloc.AllocBlocks(n), n, m)
}

func (jp *JobPE) tagMode(addr uint64, n int, m gmem.Mode) uint64 {
	jp.pe.modes.Set(addr, n, m)
	return addr
}

// --- Global memory (namespace-guarded by the underlying PE) ---

// GMRead reads the word at addr.
func (jp *JobPE) GMRead(addr uint64) int64 { jp.gate(); return jp.pe.GMRead(addr) }

// GMWrite stores v at addr.
func (jp *JobPE) GMWrite(addr uint64, v int64) { jp.gate(); jp.pe.GMWrite(addr, v) }

// GMReadF reads the float64 at addr.
func (jp *JobPE) GMReadF(addr uint64) float64 { jp.gate(); return jp.pe.GMReadF(addr) }

// GMWriteF stores float64 v at addr.
func (jp *JobPE) GMWriteF(addr uint64, v float64) { jp.gate(); jp.pe.GMWriteF(addr, v) }

// GMReadBlock reads n words starting at addr.
func (jp *JobPE) GMReadBlock(addr uint64, n int) []int64 {
	jp.gate()
	return jp.pe.GMReadBlock(addr, n)
}

// GMWriteBlock stores words starting at addr.
func (jp *JobPE) GMWriteBlock(addr uint64, words []int64) {
	jp.gate()
	jp.pe.GMWriteBlock(addr, words)
}

// GMReadBlockF reads n float64s starting at addr.
func (jp *JobPE) GMReadBlockF(addr uint64, n int) []float64 {
	jp.gate()
	return jp.pe.GMReadBlockF(addr, n)
}

// GMWriteBlockF stores float64s starting at addr.
func (jp *JobPE) GMWriteBlockF(addr uint64, vs []float64) {
	jp.gate()
	jp.pe.GMWriteBlockF(addr, vs)
}

// GMGather reads one word per address.
func (jp *JobPE) GMGather(addrs []uint64) []int64 { jp.gate(); return jp.pe.GMGather(addrs) }

// GMScatter stores one word per address.
func (jp *JobPE) GMScatter(addrs []uint64, vals []int64) { jp.gate(); jp.pe.GMScatter(addrs, vals) }

// FetchAdd atomically adds delta at addr, returning the previous value.
func (jp *JobPE) FetchAdd(addr uint64, delta int64) int64 {
	jp.gate()
	return jp.pe.FetchAdd(addr, delta)
}

// CAS atomically compares-and-swaps the word at addr.
func (jp *JobPE) CAS(addr uint64, old, new int64) (int64, bool) {
	jp.gate()
	return jp.pe.CAS(addr, old, new)
}

// --- Synchronisation (group-scoped) ---

// Barrier blocks until every member of the job's gang has reached it.
func (jp *JobPE) Barrier() { jp.BarrierID(0) }

// BarrierID blocks on the job-local barrier id; distinct ids are
// independent barriers, private to this job. The barrier is sized to the gang.
func (jp *JobPE) BarrierID(id int32) {
	jp.gate()
	jp.pe.syncWait(verbBarrier, jp.windowID(id), len(jp.g.Members))
}

// Lock acquires the job-local lock id (FIFO, central manager).
func (jp *JobPE) Lock(id int32) { jp.gate(); jp.pe.Lock(jp.windowID(id)) }

// Unlock releases the job-local lock id.
func (jp *JobPE) Unlock(id int32) { jp.pe.Unlock(jp.windowID(id)) }

// SemWait downs the job-local semaphore id.
func (jp *JobPE) SemWait(id int32) { jp.gate(); jp.pe.SemWait(jp.windowID(id)) }

// SemPost ups the job-local semaphore id.
func (jp *JobPE) SemPost(id int32) { jp.pe.SemPost(jp.windowID(id)) }

// AllReduceF reduces one float64 contribution per gang member with op and
// returns the result on every member. Job rank 0 is the root.
func (jp *JobPE) AllReduceF(x float64, op func(a, b float64) float64) float64 {
	jp.gate()
	return jp.pe.allReduce(reduceView{
		members: jp.g.Members, rank: jp.rank,
		up: jp.g.TagBase + JobTagSpan - 1, down: jp.g.TagBase + JobTagSpan - 2,
	}, x, op)
}

// AllReduceSum sums one float64 contribution per gang member.
func (jp *JobPE) AllReduceSum(x float64) float64 { return jp.AllReduceF(x, sumF) }

// AllReduceMax takes the maximum over one float64 contribution per member.
func (jp *JobPE) AllReduceMax(x float64) float64 { return jp.AllReduceF(x, maxF) }

// --- Messages (rank-addressed, job-private tags) ---

// SendMsg delivers payload to gang member dst (a job rank) under tag.
func (jp *JobPE) SendMsg(dst int, tag int32, payload []byte) {
	jp.gate()
	if dst < 0 || dst >= len(jp.g.Members) {
		panic(fmt.Sprintf("core: job %q: SendMsg to rank %d of %d", jp.g.Name, dst, len(jp.g.Members)))
	}
	jp.pe.SendMsg(jp.g.Members[dst], jp.windowID(tag), payload)
}

// RecvMsg blocks until a message with tag arrives, returning the sender's
// job rank and the payload.
func (jp *JobPE) RecvMsg(tag int32) (src int, payload []byte) {
	jp.gate()
	gsrc, payload := jp.pe.RecvMsg(jp.windowID(tag))
	rank, ok := jp.rankOf[gsrc]
	if !ok {
		rank = -1 // not a gang member: tags are job-private, so only misuse lands here
	}
	return rank, payload
}
