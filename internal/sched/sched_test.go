package sched

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gmem"
	"repro/internal/ssi"
)

// waitState polls until the job reaches a terminal state (or the deadline).
func waitState(t *testing.T, s *Scheduler, id int, timeout time.Duration) ssi.JobRow {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j, err := s.Job(id)
		if err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
		switch j.State {
		case StateDone, StateFailed, StateCancelled:
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %q after %v", id, j.State, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSchedEndToEnd runs a mixed batch of jobs — more than the cluster can
// hold at once, forcing queueing — and asserts that every one completes,
// the gauges are sane and the cluster shuts down residue-free.
func TestSchedEndToEnd(t *testing.T) {
	var residue core.Residue
	inspected := false
	cfg := Config{
		Workers:        4,
		CapacityBlocks: 64,
		Inspect: func(r core.Residue) {
			residue = r
			inspected = true
		},
	}
	c, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Scheduler()

	specs := []JobSpec{
		{Name: "t1", PEs: 2, Workload: "touch", QuotaBlocks: 8},
		{Name: "g1", PEs: 2, Workload: "gauss", Size: 16, QuotaBlocks: 16},
		{Name: "t2", PEs: 4, Workload: "touch", QuotaBlocks: 8},
		{Name: "d1", PEs: 2, Workload: "dct", Size: 16, QuotaBlocks: 16},
		{Name: "t3", PEs: 1, Workload: "touch", QuotaBlocks: 4},
		{Name: "t4", PEs: 3, Workload: "touch", QuotaBlocks: 8},
	}
	ids := make([]int, len(specs))
	for i, spec := range specs {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %q: %v", spec.Name, err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		j := waitState(t, s, id, 30*time.Second)
		if j.State != StateDone {
			t.Errorf("job %q: state %q err %q", specs[i].Name, j.State, j.Error)
		}
		if j.UsedWords == 0 {
			t.Errorf("job %q: no namespace words recorded", specs[i].Name)
		}
	}

	st := s.Stats()
	if st.Done != uint64(len(specs)) {
		t.Errorf("done = %d, want %d", st.Done, len(specs))
	}
	if st.Utilization <= 0 {
		t.Errorf("utilization = %v, want > 0", st.Utilization)
	}
	if st.WaitUS.Count != uint64(len(specs)) {
		t.Errorf("wait samples = %d, want %d", st.WaitUS.Count, len(specs))
	}
	if st.UsedBlocks != 0 {
		t.Errorf("used blocks after drain = %d, want 0", st.UsedBlocks)
	}
	rows := s.JobRows()
	if len(rows) != len(specs) {
		t.Errorf("job rows = %d, want %d", len(rows), len(specs))
	}
	for _, r := range rows {
		if r.State != StateDone {
			t.Errorf("row %d (%s): state %q", r.ID, r.Name, r.State)
		}
	}

	res, err := c.Stop()
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	if res.Total.NsViolations != 0 {
		t.Errorf("kernel namespace violations = %d, want 0", res.Total.NsViolations)
	}

	// Teardown leak oracle: nothing a job held may survive the last job.
	if !inspected {
		t.Fatal("Inspect never ran")
	}
	if residue.NsBindings != 0 {
		t.Errorf("leaked namespace bindings: %d", residue.NsBindings)
	}
	if residue.BarrierPend != 0 || residue.LockResidue != 0 {
		t.Errorf("leaked sync residue: barriers=%d locks=%d", residue.BarrierPend, residue.LockResidue)
	}
	// The control-plane mailboxes (ctl at each worker, done at the
	// scheduler) legitimately survive; job-window mailboxes must not.
	if max := cfg.Workers + 1; residue.UserQueues > max {
		t.Errorf("leaked user mailboxes: %d registered, want <= %d", residue.UserQueues, max)
	}
	if n := residue.BlocksIn(0, int(cfg.CapacityBlocks)); n != 0 {
		t.Errorf("leaked namespace blocks: %d still materialised", n)
	}
}

// TestAdmissionErrors covers every typed admission rejection.
func TestAdmissionErrors(t *testing.T) {
	s := NewScheduler(Config{Workers: 4, CapacityBlocks: 32})
	cases := []struct {
		name string
		spec JobSpec
		want error
	}{
		{"zero PEs", JobSpec{PEs: 0, Workload: "touch"}, ErrZeroPEs},
		{"negative PEs", JobSpec{PEs: -3, Workload: "touch"}, ErrZeroPEs},
		{"too many PEs", JobSpec{PEs: 5, Workload: "touch"}, ErrTooManyPEs},
		{"quota too large", JobSpec{PEs: 1, Workload: "touch", QuotaBlocks: 33}, ErrQuotaTooLarge},
		{"deadline passed", JobSpec{PEs: 1, Workload: "touch", DeadlineMS: -1}, ErrDeadlinePassed},
		{"unknown workload", JobSpec{PEs: 1, Workload: "nope"}, ErrUnknownWorkload},
	}
	for _, tc := range cases {
		if _, err := s.Submit(tc.spec); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	for _, mode := range []string{"weird", "cached"} {
		if _, err := s.Submit(JobSpec{PEs: 1, Workload: "touch", Mode: mode}); err == nil {
			t.Errorf("unknown consistency mode %q admitted", mode)
		}
	}
	s.Close()
	if _, err := s.Submit(JobSpec{PEs: 1, Workload: "touch"}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: got %v, want ErrClosed", err)
	}
	if _, err := s.Job(99); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup of unknown job: got %v, want ErrNotFound", err)
	}
	if err := s.Cancel(99); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel of unknown job: got %v, want ErrNotFound", err)
	}
}

// TestDeadlineExpiresQueuedJob: a job whose deadline passes while it waits
// in the queue fails without ever running.
func TestDeadlineExpiresQueuedJob(t *testing.T) {
	s := NewScheduler(Config{Workers: 2, CapacityBlocks: 32})
	id, err := s.Submit(JobSpec{Name: "late", PEs: 1, Workload: "touch", DeadlineMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	s.expireDeadlines()
	j, _ := s.Job(id)
	if j.State != StateFailed {
		t.Fatalf("state = %q, want failed", j.State)
	}
	if j.Error == "" {
		t.Error("expired job has no error")
	}
	if s.Stats().QueueDepth != 0 {
		t.Error("expired job still queued")
	}
}

// TestAgingPromotesStarvedJob: with aging, a long-waiting low-priority job
// outranks a fresh high-priority one.
func TestAgingPromotesStarvedJob(t *testing.T) {
	s := NewScheduler(Config{Workers: 2, CapacityBlocks: 32, AgingInterval: time.Millisecond})
	s.ra = gmem.NewRegionAllocator(gmem.Space{BlockWords: 32}, 32)
	oldID, err := s.Submit(JobSpec{Name: "starved", PEs: 1, Workload: "touch", Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Backdate the first submission: one second waited at 1ms/point is
	// +1000 effective priority.
	s.mu.Lock()
	s.jobs[oldID].Submit = time.Now().Add(-time.Second)
	s.mu.Unlock()
	if _, err := s.Submit(JobSpec{Name: "fresh", PEs: 1, Workload: "touch", Priority: 500}); err != nil {
		t.Fatal(err)
	}
	j := s.pickNext()
	if j == nil || j.ID != oldID {
		t.Fatalf("picked %+v, want starved job %d", j, oldID)
	}
	// Without aging pressure, plain priority order holds.
	j2 := s.pickNext()
	if j2 == nil || j2.Spec.Name != "fresh" {
		t.Fatalf("second pick = %+v, want fresh job", j2)
	}
}

// TestHeadOfLineBlocking: a too-big job at the head is not overtaken by a
// small one behind it (no backfill starvation), and the head runs once
// capacity frees up.
func TestHeadOfLineBlocking(t *testing.T) {
	s := NewScheduler(Config{Workers: 2, CapacityBlocks: 32})
	s.ra = gmem.NewRegionAllocator(gmem.Space{BlockWords: 32}, 32)
	bigID, err := s.Submit(JobSpec{Name: "big", PEs: 2, Workload: "touch", Priority: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Name: "small", PEs: 1, Workload: "touch"}); err != nil {
		t.Fatal(err)
	}
	// Take one PE away so the head (2 PEs) cannot fit.
	s.mu.Lock()
	s.freePEs = s.freePEs[:1]
	s.mu.Unlock()
	if j := s.pickNext(); j != nil {
		t.Fatalf("picked %q with head blocked, want nothing", j.Spec.Name)
	}
	s.mu.Lock()
	s.freePEs = []int{1, 2}
	s.mu.Unlock()
	if j := s.pickNext(); j == nil || j.ID != bigID {
		t.Fatalf("picked %+v after capacity freed, want big job", j)
	}
}

// TestCancelRunningJob registers a workload that spins until cancelled and
// checks that Cancel aborts it via the gang's cancel gate.
func TestCancelRunningJob(t *testing.T) {
	workloads["spin-test"] = func(p *core.PE, size int) error {
		word := core.AllocArray[int64](p, 1)
		for {
			// Each read checks the job's cancel flag; cancel aborts here.
			if _, err := word.Load(0); err != nil {
				return err
			}
		}
	}
	defer delete(workloads, "spin-test")

	c, err := Start(Config{Workers: 2, CapacityBlocks: 32})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Scheduler()
	id, err := s.Submit(JobSpec{Name: "spin", PEs: 2, Workload: "spin-test"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually running, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, _ := s.Job(id)
		if j.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	j := waitState(t, s, id, 30*time.Second)
	if j.State != StateCancelled && j.State != StateFailed {
		t.Fatalf("state = %q, want cancelled or failed", j.State)
	}
	if _, err := c.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

// TestCancelQueuedJob: cancelling a queued job is immediate and frees no
// resources (it held none).
func TestCancelQueuedJob(t *testing.T) {
	s := NewScheduler(Config{Workers: 2, CapacityBlocks: 32})
	id, err := s.Submit(JobSpec{Name: "q", PEs: 1, Workload: "touch"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	j, _ := s.Job(id)
	if j.State != StateCancelled {
		t.Fatalf("state = %q, want cancelled", j.State)
	}
	if st := s.Stats(); st.QueueDepth != 0 || st.Cancelled != 1 {
		t.Errorf("stats after cancel: %+v", st)
	}
}

// TestConcurrentSubmitCancel hammers submit/cancel/status from many
// goroutines while the cluster runs — the -race exercise for the scheduler
// surface.
func TestConcurrentSubmitCancel(t *testing.T) {
	c, err := Start(Config{Workers: 3, CapacityBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Scheduler()
	const (
		goroutines = 4
		perG       = 15
	)
	var wg sync.WaitGroup
	ids := make(chan int, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				id, err := s.Submit(JobSpec{
					Name:        fmt.Sprintf("g%d-%d", g, i),
					PEs:         1 + rng.Intn(3),
					Workload:    "touch",
					QuotaBlocks: uint64(4 + rng.Intn(8)),
					Priority:    rng.Intn(5),
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids <- id
				if rng.Intn(3) == 0 {
					s.Cancel(id)
				}
				if rng.Intn(4) == 0 {
					s.Job(id)
					s.Stats()
					s.JobRows()
				}
			}
		}(g)
	}
	wg.Wait()
	close(ids)
	for id := range ids {
		j := waitState(t, s, id, 60*time.Second)
		if j.State == StateFailed {
			t.Errorf("job %d failed: %s", id, j.Error)
		}
	}
	st := s.Stats()
	if got := st.Done + st.Cancelled + st.Failed; got != goroutines*perG {
		t.Errorf("terminal jobs = %d, want %d", got, goroutines*perG)
	}
	if _, err := c.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

// TestQuotaExceededFailsJob: a workload allocating past its namespace quota
// fails with the typed quota error, and the cluster survives.
func TestQuotaExceededFailsJob(t *testing.T) {
	c, err := Start(Config{Workers: 2, CapacityBlocks: 32})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Scheduler()
	// touch with size 16 wants 128 words/blocks well past a 1-block quota.
	id, err := s.Submit(JobSpec{Name: "hog", PEs: 1, Workload: "touch", Size: 16, QuotaBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	j := waitState(t, s, id, 30*time.Second)
	if j.State != StateFailed {
		t.Fatalf("state = %q, want failed", j.State)
	}
	if j.Error == "" || !contains(j.Error, "quota") {
		t.Errorf("error %q does not mention the quota", j.Error)
	}
	// The cluster still schedules after the failure.
	id2, err := s.Submit(JobSpec{Name: "after", PEs: 2, Workload: "touch"})
	if err != nil {
		t.Fatal(err)
	}
	if j2 := waitState(t, s, id2, 30*time.Second); j2.State != StateDone {
		t.Fatalf("follow-up job: state %q err %q", j2.State, j2.Error)
	}
	if _, err := c.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

// TestBadAssignmentFailsJob: a job record BeginJob refuses is reported as
// that job's failure, and the worker PE goes on to run the next one. (The
// tag base comes from the scheduler's own slot pool, so no record can carry
// one off a slot; core's TestBeginJobRejects covers that refusal.)
func TestBadAssignmentFailsJob(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, CapacityBlocks: 8})
	edits := []func(j *Job){
		func(j *Job) { j.Region.Limit = 0 },
		func(j *Job) { j.Region.Base = 1 },
		func(j *Job) { j.Members = []int{0} },
		func(j *Job) {}, // the last one runs
	}
	for i, edit := range edits {
		j := &Job{
			ID: i + 1, Spec: JobSpec{Name: fmt.Sprintf("job%d", i+1), Workload: "touch"},
			State: StateRunning, Members: []int{1}, Region: gmem.Region{Limit: 4 * blockWords},
			pending: 1,
		}
		edit(j)
		s.jobs[j.ID] = j
	}
	res, err := core.Run(s.CoreConfig(), func(pe *core.PE) error {
		if pe.ID() == 1 {
			for id := 1; id <= len(edits); id++ {
				s.mu.Lock()
				j := s.jobs[id]
				s.mu.Unlock()
				s.runJob(pe, j)
			}
			return nil
		}
		for range edits {
			_, data := pe.RecvMsg(doneTag)
			id := jobID(data)
			s.mu.Lock()
			msg := s.jobs[id].Err
			s.mu.Unlock()
			if failed := msg != ""; failed != (id < len(edits)) {
				return fmt.Errorf("job %d: error %q", id, msg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenFailureFailsJob: a job record OpenJob refuses — here an unaligned
// region — fails that job with the error instead of taking PE 0 down, its PE
// and slot go back to the pools, and the next job runs on the same cluster.
// CloseJob refuses the record too, so its region stays carved.
func TestOpenFailureFailsJob(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, CapacityBlocks: 8})
	bad, err := s.Submit(JobSpec{Name: "bad", PEs: 1, Workload: "touch", QuotaBlocks: 2, Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Submit(JobSpec{Name: "good", PEs: 1, Workload: "touch", QuotaBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *core.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := core.Run(s.CoreConfig(), func(pe *core.PE) error {
			if pe.ID() != 0 {
				return s.worker(pe)
			}
			s.mu.Lock()
			s.ra = gmem.NewRegionAllocator(pe.Space(), s.cfg.CapacityBlocks)
			s.mu.Unlock()
			j := s.pickNext()
			if j == nil || j.ID != bad {
				return fmt.Errorf("admitted %v first, want job %d", j, bad)
			}
			s.mu.Lock()
			j.Region.Base++
			s.mu.Unlock()
			s.dispatch(pe, j)
			return s.run(pe)
		})
		done <- outcome{res, err}
	}()
	g := waitState(t, s, good, 30*time.Second)
	b := waitState(t, s, bad, time.Second)
	st := s.Stats()
	s.Close()
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if err := o.res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if b.State != StateFailed || !contains(b.Error, "open: ") || !contains(b.Error, "not aligned") {
		t.Errorf("bad job: state %q, error %q; want failed by the open", b.State, b.Error)
	}
	if g.State != StateDone {
		t.Errorf("next job: state %q, error %q; want done", g.State, g.Error)
	}
	if st.FreePEs != 1 || st.Failed != 1 || st.Done != 1 || st.UsedBlocks != 2 {
		t.Errorf("stats: %d free PEs, %d failed, %d done, %d blocks carved; want 1, 1, 1 and the bad job's 2",
			st.FreePEs, st.Failed, st.Done, st.UsedBlocks)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestForgedControlMessagesDropped injects the control messages no scheduler
// sends into a resident cluster: to the control loop, a done with a torn id,
// one naming no job, one past int's range and a second done for a job
// already torn down; to a worker, the same three ids and a run for a job it
// is no member of. Each used to panic a PE — reading past the payload, dereferencing
// a nil job, freeing slot -1 — and each is dropped: the jobs around them
// complete and the cluster stops cleanly.
func TestForgedControlMessagesDropped(t *testing.T) {
	s := NewScheduler(Config{Workers: 2, CapacityBlocks: 16})
	first, err := s.Submit(JobSpec{Name: "first", PEs: 1, Workload: "touch", QuotaBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	torn, unknown, past := []byte{1, 2, 3}, idMsg(999), binary.LittleEndian.AppendUint64(nil, math.MaxUint64)
	firstDone := make(chan struct{})
	injected := make(chan struct{})
	c := &Cluster{sched: s, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		c.res, c.err = core.Run(s.CoreConfig(), func(pe *core.PE) error {
			if pe.ID() == 2 {
				// The first job runs on worker 1 meanwhile.
				for _, m := range [][]byte{torn, unknown, past} {
					pe.SendMsg(0, doneTag, m)
					pe.SendMsg(2, ctlTag, m)
				}
				pe.SendMsg(2, ctlTag, idMsg(first)) // worker 2 is no member of it
				<-firstDone
				pe.SendMsg(0, doneTag, idMsg(first))
				close(injected)
			}
			return s.Program(pe)
		})
	}()
	if j := waitState(t, s, first, 30*time.Second); j.State != StateDone {
		t.Fatalf("first job: state %q, error %q", j.State, j.Error)
	}
	close(firstDone)
	<-injected
	second, err := s.Submit(JobSpec{Name: "second", PEs: 2, Workload: "touch", QuotaBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if j := waitState(t, s, second, 30*time.Second); j.State != StateDone {
		t.Fatalf("second job: state %q, error %q", j.State, j.Error)
	}
	if st := s.Stats(); st.Done != 2 || st.FreePEs != 2 || st.Running != 0 {
		t.Errorf("stats: %d done, %d free PEs, %d running; want 2, 2 and 0", st.Done, st.FreePEs, st.Running)
	}
	if _, err := c.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}
