package core

// The job scope: a scheduled job's view of the worker PE it runs on
// (dsesched, DESIGN.md §15). BeginJob installs it and EndJob drops it; in
// between, the PE's own Parallel API answers for the job: ID and N are the
// job rank and the gang size, allocation is carved out of the job's
// namespace by a bounded allocator under the job's default mode, every tag
// and synchronisation id maps into the job's private window, barriers are
// sized to the gang, the all-reduce runs over the gang and messages are
// addressed by rank. A cancelled job aborts with a typed panic at its next
// global-memory access or wait.

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/gmem"
	"repro/internal/wire"
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
	Name    string       // job name (diagnostics)
	Members []int        // Members[rank] = global kernel id; Members[0] is job rank 0
	TagBase int32        // base of the job's private tag/sync-id window: a JobSlotBase
	Region  gmem.Region  // the job's GM namespace, block-aligned
	Mode    gmem.Mode    // consistency tier of the job's allocations
	Cancel  *atomic.Bool // scheduler-side cancellation flag (nil = never)
}

// JobAbortError aborts a scheduled job's program the scheduler cancelled:
// raised by panic at the job's next global-memory access or wait, and
// recovered by the worker loop, which reports the job cancelled instead of
// crashing the PE.
type JobAbortError struct {
	Job  string
	Rank int
}

func (e *JobAbortError) Error() string {
	return fmt.Sprintf("core: job %q rank %d aborted: cancelled", e.Job, e.Rank)
}

// jobScope is the state BeginJob installs: the job, the gang as the
// all-reduce sees it, and what EndJob restores.
type jobScope struct {
	JobGroup
	gang         reduceView // Members, this PE's rank, the window's top two tags
	clusterAlloc *gmem.Allocator
	clusterModes *gmem.ModeTable
}

// fault reports why g cannot be a job of a cluster of n PEs whose blocks are
// bw words — an empty or unaligned region, a tag base that is not a slot
// base, a member outside [0, n) — and "" when it can. OpenJob, CloseJob and
// BeginJob check a job with it, and a kernel the frame of one (handleJob).
func (g *JobGroup) fault(n int, bw uint64) string {
	r := g.Region
	switch {
	case r.Limit <= r.Base:
		return fmt.Sprintf("empty region [%d,%d)", r.Base, r.Limit)
	case r.Base%bw != 0 || r.Limit%bw != 0:
		return fmt.Sprintf("region [%d,%d) not aligned to %d-word blocks", r.Base, r.Limit, bw)
	case g.TagBase%JobTagSpan != 0 || g.TagBase < JobSlotBase(0) || g.TagBase > JobSlotBase(JobSlots-1):
		return fmt.Sprintf("tag base %d is not a slot base", g.TagBase)
	}
	for _, m := range g.Members {
		if m < 0 || m >= n {
			return fmt.Sprintf("member %d outside [0,%d)", m, n)
		}
	}
	return ""
}

// frame writes job g into m as an op request (OpJobOpen or OpJobClose): the
// region in Addr and Arg2, the tag base in Tag, the members as little-endian
// uint32 ids in Data. jobOf reads a frame back; ok is false for a payload
// that is not a whole number of ids.
func (g *JobGroup) frame(m *wire.Message, op wire.Op) {
	m.Op, m.Addr, m.Arg2, m.Tag = op, g.Region.Base, int64(g.Region.Limit), g.TagBase
	for _, id := range g.Members {
		m.Data = binary.LittleEndian.AppendUint32(m.Data, uint32(id))
	}
}

func jobOf(m *wire.Message) (g JobGroup, ok bool) {
	g = JobGroup{TagBase: m.Tag, Region: gmem.Region{Base: m.Addr, Limit: uint64(m.Arg2)}}
	for b := m.Data; len(b) >= 4; b = b[4:] {
		g.Members = append(g.Members, int(binary.LittleEndian.Uint32(b)))
	}
	return g, len(m.Data)%4 == 0
}

// BeginJob makes this PE the given job's member until EndJob. It refuses,
// with an error and the PE left unscoped, a PE already in a job, a job that
// fails the check OpenJob makes, and a PE that is not one of g.Members.
func (pe *PE) BeginJob(g JobGroup) error {
	rank := slices.Index(g.Members, pe.k.id)
	why := g.fault(pe.k.n, uint64(pe.k.space.BlockWords))
	switch {
	case pe.job != nil:
		why = fmt.Sprintf("already in job %q", pe.job.Name)
	case why == "" && rank < 0:
		why = fmt.Sprintf("not a member of %v", g.Members)
	}
	if why != "" {
		return fmt.Errorf("core: PE %d cannot begin job %q: %s", pe.k.id, g.Name, why)
	}
	pe.job = &jobScope{
		JobGroup: g,
		gang: reduceView{
			members: g.Members, rank: rank,
			up: g.TagBase + JobTagSpan - 1, down: g.TagBase + JobTagSpan - 2,
		},
		clusterAlloc: pe.alloc,
		clusterModes: pe.modes,
	}
	pe.BindNamespace(g.Region.Base, g.Region.Limit)
	pe.alloc = gmem.NewBoundedAllocator(pe.k.space, g.Region)
	pe.modes = gmem.NewModeTable(g.Mode)
	return nil
}

// EndJob drops the job scope and this PE's local residue of the finished (or
// aborted) job — its recorded consistency modes, buffered release-mode writes
// into its region, which would otherwise flush into a freed one, and cached
// leases — and restores the cluster scope. It reports how many words of the
// namespace the job's allocator handed out: the job's GM-quota gauge (every
// member runs the same deterministic allocation sequence, so any member's
// number is the job's). The worker calls it after the job's program
// returns, before the scheduler closes the job (CloseJob).
func (pe *PE) EndJob() (quotaUsed uint64) {
	j := pe.job
	if j == nil {
		return 0
	}
	base, limit := j.Region.Base, j.Region.Limit
	if pe.wc.Len() > 0 {
		pe.fl = pe.fl[:0]
		pe.flv = pe.flv[:0]
		pe.wc.Drain(func(a uint64, v int64) {
			if a < base || a >= limit {
				pe.fl = append(pe.fl, a)
				pe.flv = append(pe.flv, v)
			}
		})
		for i, a := range pe.fl {
			pe.wc.Put(a, pe.flv[i])
		}
	}
	pe.clearLeases()
	quotaUsed = pe.alloc.Used() - base
	pe.alloc, pe.modes = j.clusterAlloc, j.clusterModes
	pe.ClearNamespace()
	pe.job = nil
	return quotaUsed
}

// aborted returns the *JobAbortError of a cancelled job scope: nil outside
// jobs and for a job still running.
func (j *jobScope) aborted() error {
	if j == nil || j.Cancel == nil || !j.Cancel.Load() {
		return nil
	}
	return &JobAbortError{Job: j.Name, Rank: j.gang.rank}
}

// scoped maps a message tag or synchronisation id (barrier, lock or
// semaphore) into the job's private window; outside jobs it is id itself.
func (pe *PE) scoped(id int32) int32 {
	j := pe.job
	if j == nil {
		return id
	}
	if id < 0 || id >= JobTagSpan-reservedJobTags {
		panic(fmt.Sprintf("core: job %q: tag or sync id %d outside [0,%d)", j.Name, id, JobTagSpan-reservedJobTags))
	}
	return j.TagBase + id
}

// rankOf returns the job rank of kernel id inside a job (-1 for a kernel
// outside the gang); outside jobs it is id itself.
func (pe *PE) rankOf(id int) int {
	if pe.job == nil {
		return id
	}
	return slices.Index(pe.job.Members, id)
}
