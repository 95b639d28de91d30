package core

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gmem"
	"repro/internal/wire"
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
	cfg := simCfg(4)
	cfg.Transport = TransportInproc
	cfg.Inspect = func(r Residue) { residue = r }
	const bw = 32 // the default block size
	job := JobGroup{
		Name: "scope", Members: []int{1, 3}, TagBase: JobSlotBase(0),
		Region: gmem.Region{Base: 64 * bw, Limit: 66 * bw}, Mode: gmem.ModeRelease,
	}
	prog := func(pe *PE) error {
		before := pe.Alloc(1)
		if pe.k.id == 0 {
			must(pe.OpenJob(job))
		}
		pe.Barrier()
		var err error
		if pe.k.id%2 == 1 {
			g := job
			g.Cancel = &cancel[pe.k.id]
			err = jobScopeMember(pe, g, &used[pe.k.id])
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
			_, err = pe.CloseJob(job)
		}
		return err
	}
	runWithin(t, 20*time.Second, cfg, prog)
	freed := job.Region
	for _, m := range job.Members {
		if want := freed.Words() / 2; used[m] != want {
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
func jobScopeMember(pe *PE, g JobGroup, used *uint64) error {
	if err := pe.BeginJob(g); err != nil {
		return err
	}
	region, cancel := g.Region, g.Cancel
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
// the PE stays in the cluster's scope. OpenJob and CloseJob refuse every such
// job but the one that merely leaves this PE out.
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
			{"member outside the cluster", func(g *JobGroup) { g.Members = []int{1, 2} }},
			{"negative member", func(g *JobGroup) { g.Members = []int{1, -1} }},
			{"tag base off a slot", func(g *JobGroup) { g.TagBase++ }},
			{"tag base below the slots", func(g *JobGroup) { g.TagBase = 0 }},
		} {
			g := ok
			tc.edit(&g)
			if err := pe.BeginJob(g); err == nil {
				return fmt.Errorf("%s: BeginJob accepted %+v", tc.name, g)
			}
			if tc.name != "not a member" {
				_, cerr := pe.CloseJob(g)
				if oerr := pe.OpenJob(g); oerr == nil || cerr == nil {
					return fmt.Errorf("%s: OpenJob, CloseJob = %v, %v; want both refused", tc.name, oerr, cerr)
				}
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

// TestJobControlTraffic opens and closes one job on a 5-PE inproc cluster for
// gangs of 1, 2 and 4: PE 0 sends one OpJobOpen and one OpJobClose to each
// kernel whatever the gang's size (a bind per member and kernel plus a free
// and a purge per kernel used to cost 2gN+2N requests: 20, 30 and 50). After
// the open exactly the members are bound at every kernel; the close frees
// every block the job wrote and leaves nothing in the residue census, though
// the job left messages nobody received and a lock nobody released in its
// window.
func TestJobControlTraffic(t *testing.T) {
	const n, bw = 5, 32
	for _, gang := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("gang%d", gang), func(t *testing.T) {
			job := JobGroup{
				Name: "ctl", TagBase: JobSlotBase(1),
				Region: gmem.Region{Base: 20 * bw, Limit: 28 * bw},
			}
			for m := 1; m <= gang; m++ {
				job.Members = append(job.Members, m)
			}
			var (
				residue Residue
				freed   int
			)
			cfg := Config{NumPE: n, Transport: TransportInproc, Inspect: func(r Residue) { residue = r }}
			res := runWithin(t, 20*time.Second, cfg, func(pe *PE) error {
				if pe.k.id == 0 {
					must(pe.OpenJob(job))
					for i := 0; i < n; i++ {
						ns := pe.k.ns
						if i != 0 {
							ns = pe.k.peers[i].ns // inproc binds co-located kernels' registries
						}
						for p := 0; p < n; p++ {
							r, bound := ns.Lookup(p)
							if member := slices.Contains(job.Members, p); bound != member || (bound && r != job.Region) {
								return fmt.Errorf("kernel %d after the open: PE %d bound %v to %v", i, p, bound, r)
							}
						}
					}
				}
				pe.Barrier()
				if slices.Contains(job.Members, pe.k.id) {
					must(pe.BeginJob(job))
					mustWrite(pe, job.Region.Base+uint64(pe.ID())*bw, 1) // one block per rank
					pe.SendMsg(0, 3, []byte("unread"))
					if pe.ID() == 0 {
						pe.Lock(1) // and never unlocked
					}
					pe.EndJob()
				}
				pe.Barrier()
				if pe.k.id == 0 {
					var err error
					freed, err = pe.CloseJob(job)
					return err
				}
				return nil
			})
			sent := &res.PerPE[0].ByOp
			if opens, closes := sent[wire.OpJobOpen].Msgs, sent[wire.OpJobClose].Msgs; opens != n || closes != n {
				t.Errorf("PE 0 sent %d OpJobOpen and %d OpJobClose requests, want %d of each", opens, closes, n)
			}
			if freed != gang {
				t.Errorf("CloseJob freed %d blocks, want the %d the job wrote", freed, gang)
			}
			if r := residue; r.UserQueues != 0 || r.NsBindings != 0 || r.BarrierPend != 0 ||
				r.LockResidue != 0 || r.SemWaiters != 0 || r.BlocksIn(job.Region.Base, 8) != 0 {
				t.Errorf("residue after the job: %+v, %d blocks in its region", r, r.BlocksIn(job.Region.Base, 8))
			}
		})
	}
}
