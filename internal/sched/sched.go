// Package sched is the cluster-as-a-service layer on top of the DSE
// runtime: one resident SSI cluster runs many jobs concurrently, Slurm-
// style. Jobs are submitted (over HTTP or the Go API) as a spec — gang
// size, workload, GM quota, consistency mode, priority, optional deadline —
// pass admission control against the cluster's PE and GM capacity, wait in
// a fair-share queue with priority aging, and are gang-placed onto a subset
// of worker PEs. Every job runs inside an isolated GM namespace carved from
// the global address space: a quota-bounded allocation region enforced both
// PE-side and at the home kernels (typed OpNsNack rejection), so two jobs
// can never read or write each other's blocks. A job opens and closes with
// one request per kernel: teardown unbinds the members, releases the
// namespace, purges the job's message/sync residue and returns the PEs to
// the pool. See DESIGN.md §15.
package sched

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gmem"
	"repro/internal/sim"
	"repro/internal/ssi"
	"repro/internal/trace"
)

// Control-plane tags (whole-cluster tag space, far below the job windows
// at core.JobSlotBase, so no job can send on them). Each carries a job id,
// 8 bytes: the job itself is the record in Scheduler.jobs.
const (
	ctlTag  int32 = 101 // scheduler -> worker: run this job; id 0 stops the worker
	doneTag int32 = 102 // last member -> scheduler: tear this job down
)

// The cluster settings every scheduler runs with: the default block size,
// and a request timeout, which is also what unblocks a cancelled member
// parked at a job barrier.
const (
	blockWords     = 32
	requestTimeout = 5 * sim.Second
)

// Admission and lookup errors. Submit wraps the admission reasons so HTTP
// can map them to 4xx while transport problems stay 5xx.
var (
	ErrZeroPEs         = errors.New("sched: job needs at least one PE")
	ErrTooManyPEs      = errors.New("sched: PE count exceeds cluster workers")
	ErrQuotaTooLarge   = errors.New("sched: GM quota exceeds cluster capacity")
	ErrDeadlinePassed  = errors.New("sched: deadline already passed at submit")
	ErrUnknownWorkload = errors.New("sched: unknown workload")
	ErrClosed          = errors.New("sched: scheduler is shut down")
	ErrNotFound        = errors.New("sched: no such job")
)

// JobSpec is one job submission.
type JobSpec struct {
	// Name labels the job (diagnostics; not unique).
	Name string `json:"name"`
	// PEs is the gang size: how many worker PEs run the job concurrently.
	PEs int `json:"pes"`
	// Workload names the program from the registry (see Workloads()).
	Workload string `json:"workload"`
	// Size is the workload's scale knob (per-workload meaning; 0 = default).
	Size int `json:"size,omitempty"`
	// QuotaBlocks is the job's GM namespace quota in blocks (0 = 16).
	QuotaBlocks uint64 `json:"quota_blocks,omitempty"`
	// Mode is the consistency tier of the job's allocations: "", "strong",
	// "release" or "lease" (gmem.ParseMode).
	Mode string `json:"mode,omitempty"`
	// Priority orders the queue (higher runs first; aging promotes waiters).
	Priority int `json:"priority,omitempty"`
	// DeadlineMS is the wall-clock budget from submission; a job still
	// queued or running past it is aborted. <0 is rejected at submit
	// (already passed), 0 means none.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Job is one tracked submission.
type Job struct {
	ID   int
	Spec JobSpec

	// Everything below is owned by the scheduler mutex.
	State    string
	Members  []int // worker kernel ids while running
	Slot     int   // tag-window slot while running (-1 otherwise)
	Region   gmem.Region
	Mode     gmem.Mode
	Err      string
	Submit   time.Time
	Start    time.Time // zero until running
	Finish   time.Time // zero until terminal
	Deadline time.Time // zero when none
	Used     uint64    // namespace words allocated (folded in as members finish)

	cancel  atomic.Bool
	pending int // members still running
	failed  bool
}

// Config assembles the resident cluster and its scheduler.
type Config struct {
	// Workers is the worker-PE count; the cluster runs Workers+1 PEs (PE 0
	// is the scheduler).
	Workers int
	// CapacityBlocks is the GM heap carveable into job namespaces, in
	// blocks (0 = 4096).
	CapacityBlocks uint64
	// Tick is how long PE 0 waits for a finished job before it looks at
	// the queue again (0 = 2ms).
	Tick time.Duration
	// AgingInterval is the fair-share aging rate: a queued job gains one
	// effective priority point per interval waited (0 = 100ms).
	AgingInterval time.Duration
	// Inspect passes through to core.Config: it receives the cluster's
	// shutdown residue gauges, which must all be zero after every job tore
	// down cleanly. Tests use it as the leak oracle.
	Inspect func(core.Residue)
}

func (c Config) withDefaults() Config {
	if c.CapacityBlocks == 0 {
		c.CapacityBlocks = 4096
	}
	if c.Tick == 0 {
		c.Tick = 2 * time.Millisecond
	}
	if c.AgingInterval == 0 {
		c.AgingInterval = 100 * time.Millisecond
	}
	return c
}

// Scheduler keeps the queue, the job table and the PE/quota/slot pools. It
// is shared between the HTTP handlers (any goroutine) and the control loop
// on PE 0; the mutex covers all mutable state, and no PE call is ever made
// under it.
type Scheduler struct {
	cfg Config

	mu      sync.Mutex
	jobs    map[int]*Job
	queue   []*Job // queued jobs, submit order (fair-share sorts at pick)
	nextID  int
	freePEs []int
	slots   []bool // tag-window slots, true = taken
	ra      *gmem.RegionAllocator
	closing bool

	// Gauges and counters (under mu unless noted).
	submitted, started, done, failed, cancelled, rejected uint64
	maxQueued, maxResident                                int
	resident                                              int
	busyNS                                                float64 // integral of busy PEs over time, ns
	lastBusyAt                                            time.Time
	startedAt                                             time.Time

	waitHist trace.Histogram // queue waits (safe for concurrent Observe/read)
	runHist  trace.Histogram // job runtimes
}

// NewScheduler builds the scheduler state for a cluster of cfg.Workers
// worker PEs. Drive it with Cluster (which runs the cluster and the control
// loops) or, in tests, by running Program on a core cluster directly.
func NewScheduler(cfg Config) *Scheduler {
	c := cfg.withDefaults()
	nslots := core.JobSlots
	s := &Scheduler{
		cfg:   c,
		jobs:  make(map[int]*Job),
		slots: make([]bool, nslots),
	}
	for w := 1; w <= c.Workers; w++ {
		s.freePEs = append(s.freePEs, w)
	}
	now := time.Now()
	s.startedAt = now
	s.lastBusyAt = now
	return s
}

// Submit runs admission control and, if the spec is admitted, queues the
// job and returns its id.
func (s *Scheduler) Submit(spec JobSpec) (int, error) {
	if spec.PEs <= 0 {
		return 0, ErrZeroPEs
	}
	if spec.PEs > s.cfg.Workers {
		return 0, fmt.Errorf("%w: %d > %d", ErrTooManyPEs, spec.PEs, s.cfg.Workers)
	}
	if spec.QuotaBlocks == 0 {
		spec.QuotaBlocks = 16
	}
	if spec.QuotaBlocks > s.cfg.CapacityBlocks {
		return 0, fmt.Errorf("%w: %d > %d blocks", ErrQuotaTooLarge, spec.QuotaBlocks, s.cfg.CapacityBlocks)
	}
	if spec.DeadlineMS < 0 {
		return 0, ErrDeadlinePassed
	}
	mode, err := gmem.ParseMode(spec.Mode)
	if err != nil {
		return 0, fmt.Errorf("sched: %w", err)
	}
	if _, ok := lookupWorkload(spec.Workload); !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownWorkload, spec.Workload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		s.rejected++
		return 0, ErrClosed
	}
	s.nextID++
	j := &Job{
		ID: s.nextID, Spec: spec, State: StateQueued, Slot: -1,
		Mode: mode, Submit: time.Now(),
	}
	if spec.DeadlineMS > 0 {
		j.Deadline = j.Submit.Add(time.Duration(spec.DeadlineMS) * time.Millisecond)
	}
	s.jobs[j.ID] = j
	s.queue = append(s.queue, j)
	s.submitted++
	if len(s.queue) > s.maxQueued {
		s.maxQueued = len(s.queue)
	}
	return j.ID, nil
}

// Cancel cancels a job: a queued job leaves the queue immediately, a
// running one has its cancel flag raised and aborts at its next operation
// (or request timeout). Terminal jobs are left untouched.
func (s *Scheduler) Cancel(id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrNotFound
	}
	switch j.State {
	case StateQueued:
		s.dequeueLocked(j)
		j.State = StateCancelled
		j.Finish = time.Now()
		s.cancelled++
	case StateRunning:
		j.cancel.Store(true)
	}
	return nil
}

// Job returns the job's row: the same one JobRows lists.
func (s *Scheduler) Job(id int) (ssi.JobRow, error) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ssi.JobRow{}, ErrNotFound
	}
	return rowLocked(j, now), nil
}

func (s *Scheduler) dequeueLocked(j *Job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// effPriority is the fair-share key: base priority plus one point per
// AgingInterval waited, so a starved low-priority job eventually outranks
// fresh high-priority arrivals.
func (s *Scheduler) effPriority(j *Job, now time.Time) int {
	return j.Spec.Priority + int(now.Sub(j.Submit)/s.cfg.AgingInterval)
}

// Close stops accepting jobs, cancels the queue and (once running jobs have
// drained) shuts the control loops down. The cluster's Run returns after
// every worker has taken its poison pill.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return
	}
	s.closing = true
	now := time.Now()
	for _, j := range s.queue {
		j.State = StateCancelled
		j.Finish = now
		s.cancelled++
	}
	s.queue = nil
}

// idMsg and jobID encode and decode a control message: one job id. A
// control message is input from another PE, so jobID decodes a payload that
// is not one 8-byte id, or an id past int's range (which a 32-bit build would
// narrow onto another job), as -1, which names no job.
func idMsg(id int) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(id)) }

func jobID(data []byte) int {
	if len(data) != 8 || binary.LittleEndian.Uint64(data) > math.MaxInt {
		return -1
	}
	return int(binary.LittleEndian.Uint64(data))
}

// running returns job id if it is running and in the state a control message
// about it implies (want), and nil for anything else, which is dropped.
func (s *Scheduler) running(id int, want func(j *Job) bool) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil && j.State == StateRunning && want(j) {
		return j
	}
	return nil
}

func noneLeft(j *Job) bool { return j.pending == 0 }

// Program is the SPMD body the resident cluster runs: PE 0 drives the
// scheduler control loop, every other PE is a worker. It returns when the
// scheduler is closed and all work has drained.
func (s *Scheduler) Program(pe *core.PE) error {
	if pe.ID() == 0 {
		return s.run(pe)
	}
	return s.worker(pe)
}

// CoreConfig is the core cluster configuration the scheduler expects to run
// on: in-process transport (co-located segments are what make one cluster
// resident), one more PE than workers, and a request timeout so cancelled
// members parked in a collective unblock.
func (s *Scheduler) CoreConfig() core.Config {
	return core.Config{
		NumPE:          s.cfg.Workers + 1,
		Transport:      core.TransportInproc,
		GMBlockWords:   blockWords,
		RequestTimeout: requestTimeout,
		Inspect:        s.cfg.Inspect,
	}
}

// tick converts the configured poll interval for RecvMsgTimeout.
func (s *Scheduler) tick() sim.Duration { return sim.Duration(s.cfg.Tick.Nanoseconds()) }

// run is the PE 0 control loop: tear finished jobs down, expire deadlines,
// admit and dispatch queued jobs, and — once closing and idle — stop the
// workers and return.
func (s *Scheduler) run(pe *core.PE) error {
	s.mu.Lock()
	if s.ra == nil {
		s.ra = gmem.NewRegionAllocator(pe.Space(), s.cfg.CapacityBlocks)
	}
	s.mu.Unlock()
	for {
		// After the first finished job, keep draining with a near-zero
		// wait: jobs often finish in bursts.
		for wait := s.tick(); ; wait = 50 * sim.Microsecond {
			_, data, ok := pe.RecvMsgTimeout(doneTag, wait)
			if !ok {
				break
			}
			// A done implies that no member is pending: a torn or unknown
			// id, or a second done for one job, is dropped.
			if j := s.running(jobID(data), noneLeft); j != nil {
				s.teardown(pe, j)
			}
		}
		s.expireDeadlines()
		for {
			j := s.pickNext()
			if j == nil {
				break
			}
			s.dispatch(pe, j)
		}
		s.mu.Lock()
		idle := s.closing && s.resident == 0 && len(s.queue) == 0
		s.mu.Unlock()
		if idle {
			stop := idMsg(0)
			for w := 1; w <= s.cfg.Workers; w++ {
				pe.SendMsg(w, ctlTag, stop)
			}
			return nil
		}
	}
}

// expireDeadlines fails queued jobs whose deadline passed before they ever
// ran and raises the cancel flag on running ones past theirs.
func (s *Scheduler) expireDeadlines() {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var expired []*Job
	for _, j := range s.queue {
		if !j.Deadline.IsZero() && now.After(j.Deadline) {
			expired = append(expired, j)
		}
	}
	for _, j := range expired {
		s.dequeueLocked(j)
		j.State = StateFailed
		j.Err = "deadline expired while queued"
		j.Finish = now
		s.failed++
	}
	for _, j := range s.jobs {
		if j.State == StateRunning && !j.Deadline.IsZero() && now.After(j.Deadline) {
			j.cancel.Store(true)
		}
	}
}

// pickNext picks the runnable job with the highest effective priority.
// Head-of-line semantics: if the top job does not fit (PEs, quota or tag
// slot), nothing is admitted this round — backfilling smaller jobs past it
// would starve exactly the jobs aging is promoting.
func (s *Scheduler) pickNext() *Job {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ra == nil || len(s.queue) == 0 {
		return nil
	}
	sort.SliceStable(s.queue, func(a, b int) bool {
		pa, pb := s.effPriority(s.queue[a], now), s.effPriority(s.queue[b], now)
		if pa != pb {
			return pa > pb
		}
		return s.queue[a].Submit.Before(s.queue[b].Submit)
	})
	j := s.queue[0]
	if j.Spec.PEs > len(s.freePEs) {
		return nil
	}
	slot := -1
	for i, taken := range s.slots {
		if !taken {
			slot = i
			break
		}
	}
	if slot == -1 {
		return nil
	}
	region, ok := s.ra.Carve(j.Spec.QuotaBlocks)
	if !ok {
		return nil
	}
	// Admit: gang-place onto the lowest free worker ids.
	s.queue = s.queue[1:]
	j.Members = append([]int(nil), s.freePEs[:j.Spec.PEs]...)
	s.freePEs = s.freePEs[j.Spec.PEs:]
	s.slots[slot] = true
	j.Slot = slot
	j.Region = region
	j.State = StateRunning
	j.Start = time.Now()
	j.pending = len(j.Members)
	s.started++
	s.accrueBusyLocked(j.Start)
	s.resident++
	if s.resident > s.maxResident {
		s.maxResident = s.resident
	}
	s.waitHist.Observe(sim.Duration(j.Start.Sub(j.Submit).Nanoseconds()))
	return j
}

// accrueBusyLocked folds the busy-PE integral forward to now. Call before
// any change to the busy-PE count.
func (s *Scheduler) accrueBusyLocked(now time.Time) {
	busy := s.cfg.Workers - len(s.freePEs)
	s.busyNS += float64(busy) * float64(now.Sub(s.lastBusyAt).Nanoseconds())
	s.lastBusyAt = now
}

// groupLocked is job j's slice of the cluster as core sees it: what the
// scheduler opens and closes and a worker begins. Call with s.mu held.
func groupLocked(j *Job) core.JobGroup {
	return core.JobGroup{
		Name: j.Spec.Name, Members: j.Members, TagBase: core.JobSlotBase(j.Slot),
		Region: j.Region, Mode: j.Mode, Cancel: &j.cancel,
	}
}

// dispatch opens the job at every kernel and sends every member the job's
// id, so the members' bindings are in before any of them can issue a job GM
// operation. A job that does not open fails with the error and is torn down
// at once; no member hears of it.
func (s *Scheduler) dispatch(pe *core.PE, j *Job) {
	s.mu.Lock()
	g := groupLocked(j)
	s.mu.Unlock()
	if err := pe.OpenJob(g); err != nil {
		s.mu.Lock()
		j.Err = fmt.Sprintf("open: %v", err)
		j.failed = true
		s.mu.Unlock()
		s.teardown(pe, j)
		return
	}
	id := idMsg(j.ID)
	for _, m := range g.Members {
		pe.SendMsg(m, ctlTag, id)
	}
}

// teardown closes job j at every kernel once its last member finished and
// returns its PEs and slot to the pools. Its region goes back too, unless the
// close failed: then some kernel may still hold the job's words, so the
// region stays carved, no later job can read them, and the job fails with
// the error. Runs on PE 0 with no lock held across the PE call.
func (s *Scheduler) teardown(pe *core.PE, j *Job) {
	s.mu.Lock()
	g := groupLocked(j)
	s.mu.Unlock()

	_, err := pe.CloseJob(g)

	now := time.Now()
	s.mu.Lock()
	s.accrueBusyLocked(now)
	s.freePEs = append(s.freePEs, g.Members...)
	sort.Ints(s.freePEs)
	s.slots[j.Slot] = false
	if err != nil {
		if j.Err != "" {
			j.Err += "; "
		}
		j.Err += "close: " + err.Error()
		j.failed = true
	} else {
		s.ra.Release(j.Region)
	}
	j.Members = nil
	j.Slot = -1
	j.Finish = now
	switch {
	case j.cancel.Load() && !j.failed:
		j.State = StateCancelled
		s.cancelled++
	case j.failed:
		j.State = StateFailed
		s.failed++
	default:
		j.State = StateDone
		s.done++
	}
	s.resident--
	s.runHist.Observe(sim.Duration(j.Finish.Sub(j.Start).Nanoseconds()))
	s.mu.Unlock()
}

// worker is the loop every PE other than 0 runs: wait for a job id, run
// that job, repeat — until id 0. A message that names no running job this
// worker is a member of is dropped. The wait has no bound: RecvMsg's would
// end at the cluster's request timeout, and a worker may idle far longer.
func (s *Scheduler) worker(pe *core.PE) error {
	member := func(j *Job) bool { return slices.Contains(j.Members, pe.ID()) }
	for {
		_, data, ok := pe.RecvMsgTimeout(ctlTag, math.MaxInt64)
		if !ok {
			return fmt.Errorf("sched: worker %d: cluster shut down before it was stopped", pe.ID())
		}
		id := jobID(data)
		if id == 0 {
			return nil
		}
		if j := s.running(id, member); j != nil {
			s.runJob(pe, j)
		}
	}
}

// runJob runs job j on this worker: begin the job's scope on the PE, run
// the workload (recovering panics — quota exhaustion, namespace violations,
// aborts — as job failure, like a group BeginJob refuses), drop the scope
// and its local residue and fold the outcome into the job's record. The
// last member to finish asks PE 0 for the teardown.
func (s *Scheduler) runJob(pe *core.PE, j *Job) {
	s.mu.Lock()
	g := groupLocked(j)
	workload, size := j.Spec.Workload, j.Spec.Size
	s.mu.Unlock()
	var errStr string
	var used uint64
	func() {
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); ok {
					errStr = err.Error()
				} else {
					errStr = fmt.Sprint(r)
				}
			}
		}()
		if err := pe.BeginJob(g); err != nil {
			errStr = err.Error()
			return
		}
		defer func() { used = pe.EndJob() }()
		if err := runWorkload(pe, workload, size); err != nil {
			errStr = err.Error()
		}
	}()
	s.mu.Lock()
	if errStr != "" {
		if j.Err == "" {
			j.Err = fmt.Sprintf("rank %d: %s", max(slices.Index(g.Members, pe.ID()), 0), errStr)
		}
		j.failed = true
		// Abort the surviving members: a gang with a dead rank can only
		// block at its next collective.
		j.cancel.Store(true)
	}
	j.Used = max(j.Used, used)
	j.pending--
	last := j.pending == 0
	s.mu.Unlock()
	if last {
		pe.SendMsg(0, doneTag, idMsg(j.ID))
	}
}

// --- Observability ---

// Stats is the scheduler gauge snapshot.
type Stats struct {
	Workers   int    `json:"workers"`
	Submitted uint64 `json:"submitted"`
	Started   uint64 `json:"started"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Rejected  uint64 `json:"rejected"`

	QueueDepth  int `json:"queue_depth"`
	Running     int `json:"running"`
	FreePEs     int `json:"free_pes"`
	MaxQueued   int `json:"max_queued"`
	MaxResident int `json:"max_resident"`

	// Utilization is busy-PE-time over workers*elapsed since start, in
	// [0, 1].
	Utilization float64 `json:"utilization"`
	// JobsPerSec is completed (done+failed+cancelled-after-run) jobs per
	// wall second since start.
	JobsPerSec float64 `json:"jobs_per_sec"`

	// Queue-wait distribution, microseconds.
	WaitUS trace.LatencySummary `json:"wait_us"`
	// Runtime distribution, microseconds.
	RunUS trace.LatencySummary `json:"run_us"`

	CapacityBlocks uint64 `json:"capacity_blocks"`
	UsedBlocks     uint64 `json:"used_blocks"` // blocks currently carved out
}

// Stats snapshots the scheduler gauges.
func (s *Scheduler) Stats() Stats {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Workers:   s.cfg.Workers,
		Submitted: s.submitted, Started: s.started,
		Done: s.done, Failed: s.failed, Cancelled: s.cancelled, Rejected: s.rejected,
		QueueDepth: len(s.queue), Running: s.resident, FreePEs: len(s.freePEs),
		MaxQueued: s.maxQueued, MaxResident: s.maxResident,
		WaitUS:         s.waitHist.Summarize(),
		RunUS:          s.runHist.Summarize(),
		CapacityBlocks: s.cfg.CapacityBlocks,
	}
	if s.ra != nil {
		st.UsedBlocks = s.ra.UsedBlocks()
	}
	elapsed := now.Sub(s.startedAt).Nanoseconds()
	if elapsed > 0 {
		busy := s.busyNS + float64(s.cfg.Workers-len(s.freePEs))*float64(now.Sub(s.lastBusyAt).Nanoseconds())
		st.Utilization = busy / (float64(s.cfg.Workers) * float64(elapsed))
		finished := s.done + s.failed + s.cancelled
		st.JobsPerSec = float64(finished) / (float64(elapsed) / 1e9)
	}
	return st
}

// JobRows lists every job's row, by id: the scheduler's part of the
// single-system image.
func (s *Scheduler) JobRows() []ssi.JobRow {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := make([]ssi.JobRow, 0, len(s.jobs))
	for _, j := range s.jobs {
		rows = append(rows, rowLocked(j, now))
	}
	slices.SortFunc(rows, func(a, b ssi.JobRow) int { return a.ID - b.ID })
	return rows
}

// rowLocked renders one job as its row, with wait and run times live at now
// while the job is queued or running. Call with s.mu held.
func rowLocked(j *Job, now time.Time) ssi.JobRow {
	row := ssi.JobRow{
		ID: j.ID, Name: j.Spec.Name, State: j.State,
		PEs: j.Spec.PEs, Members: slices.Clone(j.Members),
		Workload: j.Spec.Workload, Size: j.Spec.Size, Mode: j.Spec.Mode,
		QuotaBlocks: j.Spec.QuotaBlocks,
		UsedBlocks:  (j.Used + blockWords - 1) / blockWords, UsedWords: j.Used,
		Priority: j.Spec.Priority, DeadlineMS: j.Spec.DeadlineMS,
		Error: j.Err,
	}
	switch {
	case j.State == StateQueued:
		row.WaitMS = float64(now.Sub(j.Submit).Nanoseconds()) / 1e6
	case !j.Start.IsZero():
		row.WaitMS = float64(j.Start.Sub(j.Submit).Nanoseconds()) / 1e6
	}
	switch {
	case j.State == StateRunning:
		row.RunMS = float64(now.Sub(j.Start).Nanoseconds()) / 1e6
	case !j.Finish.IsZero() && !j.Start.IsZero():
		row.RunMS = float64(j.Finish.Sub(j.Start).Nanoseconds()) / 1e6
	}
	return row
}

// Cluster is the resident SSI cluster with the scheduler riding on PE 0.
type Cluster struct {
	sched *Scheduler
	done  chan struct{}
	res   *core.Result
	err   error
}

// Start builds the scheduler and brings the resident cluster up. The
// returned Cluster serves jobs until Stop.
func Start(cfg Config) (*Cluster, error) {
	if cfg.Workers < 1 {
		return nil, errors.New("sched: need at least one worker PE")
	}
	s := NewScheduler(cfg)
	c := &Cluster{sched: s, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		c.res, c.err = core.Run(s.CoreConfig(), s.Program)
	}()
	return c, nil
}

// Scheduler returns the job API.
func (c *Cluster) Scheduler() *Scheduler { return c.sched }

// Stop closes the scheduler (cancelling queued jobs, draining running
// ones) and waits for the cluster to shut down, returning the run result.
func (c *Cluster) Stop() (*core.Result, error) {
	c.sched.Close()
	<-c.done
	if c.err != nil {
		return c.res, c.err
	}
	if c.res != nil {
		if err := c.res.FirstErr(); err != nil {
			return c.res, err
		}
	}
	return c.res, nil
}
