package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gmem"
)

// panicOf runs fn and returns what it panicked with (nil if it returned).
func panicOf(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestJobScope runs the 2-of-4 gang {1, 3} in a job scope on inproc, with PE
// 0 as the scheduler: it installs the kernel-side bindings before the job
// and tears the job down after it. Inside the scope the PE answers for the
// job — ranks, rank-addressed messages in the window, the gang's all-reduce
// and sized barrier, the quota and the job's mode — a cancelled job aborts
// its next GM access and barrier, and after EndJob the PE is the cluster's
// again and the job left nothing behind in the residue census.
func TestJobScope(t *testing.T) {
	var (
		cancel  [4]atomic.Bool // per member: each aborts on its own schedule
		used    [4]uint64
		residue Residue
	)
	members := []int{1, 3}
	cfg := simCfg(4)
	cfg.Transport = TransportInproc
	cfg.Inspect = func(r Residue) { residue = r }
	var freed gmem.Region // the job's region, as PE 0 freed it
	prog := func(pe *PE) error {
		bw := uint64(pe.k.space.BlockWords)
		region := gmem.Region{Base: 64 * bw, Limit: 66 * bw}
		before := pe.Alloc(1)
		if pe.k.id == 0 {
			freed = region
			for _, m := range members {
				must(pe.NamespaceBind(m, region.Base, region.Limit))
			}
		}
		pe.Barrier()
		var err error
		if pe.k.id%2 == 1 {
			err = jobScopeMember(pe, region, &cancel[pe.k.id], &used[pe.k.id])
			switch {
			case err != nil:
			case pe.ID() != pe.k.id || pe.N() != 4:
				err = fmt.Errorf("PE %d after EndJob: ID %d, N %d", pe.k.id, pe.ID(), pe.N())
			case pe.wc.Len() != 0:
				err = fmt.Errorf("PE %d after EndJob: %d release-mode writes still buffered", pe.k.id, pe.wc.Len())
			case pe.Alloc(1) != before+1:
				err = fmt.Errorf("PE %d after EndJob: Alloc is not the cluster's", pe.k.id)
			case pe.scoped(5) != 5 || pe.ns != (gmem.Region{}):
				err = fmt.Errorf("PE %d after EndJob: tag 5 maps to %d, namespace %v", pe.k.id, pe.scoped(5), pe.ns)
			}
		}
		pe.Barrier() // whole cluster, after the gang's scopes ended
		if pe.k.id == 0 {
			for _, m := range members {
				must(pe.NamespaceBind(m, 0, 0))
			}
			_, err := pe.NamespaceFree(region.Base, int((region.Limit-region.Base)/bw))
			must(err)
			must(pe.JobPurge(JobSlotBase(0), JobTagSpan))
		}
		return err
	}
	runWithin(t, 20*time.Second, cfg, prog)
	for _, m := range members {
		if want := (freed.Limit - freed.Base) / 2; used[m] != want {
			t.Errorf("PE %d: EndJob reports %d quota words used, want %d", m, used[m], want)
		}
	}
	// A message or barrier the scope left outside the window would survive
	// the job's purge.
	if r := residue; r.UserQueues != 0 || r.NsBindings != 0 || r.BarrierPend != 0 ||
		r.LockResidue != 0 || r.SemWaiters != 0 || r.BlocksIn(freed.Base, 2) != 0 {
		t.Errorf("residue after the job: %+v, %d blocks in its region", r, r.BlocksIn(freed.Base, 2))
	}
}

// jobScopeMember is one gang member's part of TestJobScope: begin the job,
// check what the scope changes, cancel, and end the job.
func jobScopeMember(pe *PE, region gmem.Region, cancel *atomic.Bool, used *uint64) error {
	if err := pe.BeginJob(JobGroup{
		Name: "scope", Members: []int{1, 3}, TagBase: JobSlotBase(0),
		Region: region, Mode: gmem.ModeRelease, Cancel: cancel,
	}); err != nil {
		return err
	}
	defer func() { *used = pe.EndJob() }()
	rank, bw := pe.k.id/2, int(pe.k.space.BlockWords)
	if pe.ID() != rank || pe.N() != 2 {
		return fmt.Errorf("PE %d in job: ID %d, N %d; want %d, 2", pe.k.id, pe.ID(), pe.N(), rank)
	}

	pe.SendMsg(1-rank, 5, []byte{byte(rank)})
	if src, data := pe.RecvMsg(5); src != 1-rank || len(data) != 1 || data[0] != byte(1-rank) {
		return fmt.Errorf("rank %d received %v from rank %d", rank, data, src)
	}
	if sum := pe.AllReduceSum(float64(pe.k.id)); sum != 4 {
		return fmt.Errorf("rank %d: gang sum = %v, want 4", rank, sum)
	}

	a := pe.AllocBlocks(bw)
	if !region.Contains(a, bw) {
		return fmt.Errorf("rank %d: AllocBlocks = %d outside the job's region %v", rank, a, region)
	}
	if m := pe.modes.Lookup(a); m != gmem.ModeRelease {
		return fmt.Errorf("rank %d: the job's allocation has mode %v, want release", rank, m)
	}
	var quota *gmem.QuotaError
	if err, _ := panicOf(func() { pe.Alloc(2 * bw) }).(error); !errors.As(err, &quota) {
		return fmt.Errorf("rank %d: quota overrun raised %v, want *gmem.QuotaError", rank, err)
	}
	if rank == 0 {
		mustWrite(pe, a, 42) // release mode: buffered until the barrier publishes it
		if pe.wc.Len() != 1 {
			return fmt.Errorf("rank 0: a release-mode write left %d words buffered, want 1", pe.wc.Len())
		}
	}
	pe.BarrierID(1) // sized to the gang: PEs 0 and 2 never arrive
	if v := mustRead(pe, a); v != 42 {
		return fmt.Errorf("rank %d: read %d after the barrier, want 42", rank, v)
	}
	pe.BarrierID(2)
	if rank == 0 {
		mustWrite(pe, a, 43) // buffered into the job's region: EndJob drops it
	}

	cancel.Store(true)
	var abort *JobAbortError
	if err, _ := panicOf(func() { mustRead(pe, a) }).(error); !errors.As(err, &abort) || abort.Rank != rank {
		return fmt.Errorf("rank %d: a read after Cancel raised %v, want *JobAbortError", rank, err)
	}
	if err, _ := panicOf(func() { pe.Barrier() }).(error); !errors.As(err, &abort) {
		return fmt.Errorf("rank %d: Barrier after Cancel raised %v, want *JobAbortError", rank, err)
	}
	return nil
}

// TestBeginJobRejects: an assignment BeginJob cannot honour is an error, and
// the PE stays in the cluster's scope.
func TestBeginJobRejects(t *testing.T) {
	runWithin(t, 10*time.Second, simCfg(2), func(pe *PE) error {
		if pe.k.id != 1 {
			return nil
		}
		bw := uint64(pe.k.space.BlockWords)
		ok := JobGroup{Name: "ok", Members: []int{1}, TagBase: JobSlotBase(3), Region: gmem.Region{Base: 4 * bw, Limit: 6 * bw}}
		for _, tc := range []struct {
			name string
			edit func(g *JobGroup)
		}{
			{"empty region", func(g *JobGroup) { g.Region = gmem.Region{} }},
			{"inverted region", func(g *JobGroup) { g.Region.Limit = g.Region.Base }},
			{"unaligned region", func(g *JobGroup) { g.Region.Base++ }},
			{"not a member", func(g *JobGroup) { g.Members = []int{0} }},
			{"tag base off a slot", func(g *JobGroup) { g.TagBase++ }},
			{"tag base below the slots", func(g *JobGroup) { g.TagBase = 0 }},
		} {
			g := ok
			tc.edit(&g)
			if err := pe.BeginJob(g); err == nil {
				return fmt.Errorf("%s: BeginJob accepted %+v", tc.name, g)
			}
			if pe.job != nil || pe.ns != (gmem.Region{}) || pe.ID() != 1 || pe.N() != 2 {
				return fmt.Errorf("%s: the refused job left the PE scoped", tc.name)
			}
		}
		must(pe.BeginJob(ok))
		if err := pe.BeginJob(ok); err == nil {
			return errors.New("BeginJob inside a job succeeded")
		}
		if used := pe.EndJob(); used != 0 || pe.job != nil {
			return fmt.Errorf("EndJob: used %d, scoped %v", used, pe.job != nil)
		}
		return nil
	})
}
