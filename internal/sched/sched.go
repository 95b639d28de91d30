// Package sched is the cluster-as-a-service layer on top of the DSE
// runtime: one resident SSI cluster runs many jobs concurrently, Slurm-
// style. Jobs are submitted (over HTTP or the Go API) as a spec — gang
// size, workload, GM quota, consistency mode, priority, optional deadline —
// pass admission control against the cluster's PE and GM capacity, wait in
// a fair-share queue with priority aging, and are gang-placed onto a subset
// of worker PEs. Every job runs inside an isolated GM namespace carved from
// the global address space: a quota-bounded allocation region enforced both
// PE-side and at the home kernels (typed OpNsNack rejection), so two jobs
// can never read or write each other's blocks. Teardown releases the
// namespace, purges the job's message/sync residue and returns the PEs to
// the pool. See DESIGN.md §15.
package sched

import (
	"encoding/json"
	"errors"
	"fmt"
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
// at core.JobSlotBase).
const (
	ctlTag  int32 = 101 // scheduler -> worker: job assignment / poison
	doneTag int32 = 102 // worker -> scheduler: member completion
)

// Admission and lookup errors. Submit wraps the admission reasons so HTTP
// can map them to 4xx while transport problems stay 5xx.
var (
	ErrZeroPEs         = errors.New("sched: job needs at least one PE")
	ErrTooManyPEs      = errors.New("sched: PE count exceeds cluster workers")
	ErrQuotaTooLarge   = errors.New("sched: GM quota exceeds cluster capacity")
	ErrDeadlinePassed  = errors.New("sched: deadline already passed at submit")
	ErrUnknownWorkload = errors.New("sched: unknown workload")
	ErrCachedMode      = errors.New("sched: cached mode is not available to jobs (a namespace's teardown does not invalidate PE caches)")
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
	// "release" or "lease" ("cached" is refused, see parseMode).
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
	Used     uint64    // namespace words allocated (reported at completion)

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
	// GMBlockWords passes through to core.Config (0 = default 32).
	GMBlockWords int
	// Tick is the control-loop poll interval (0 = 2ms).
	Tick time.Duration
	// RequestTimeout bounds every remote request; it is also what unblocks
	// a cancelled member parked at a job barrier (0 = 5s).
	RequestTimeout time.Duration
	// AgingInterval is the fair-share aging rate: a queued job gains one
	// effective priority point per interval waited (0 = 100ms).
	AgingInterval time.Duration
	// Seed passes through to core.Config.
	Seed uint64
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
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
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
	mode, err := parseMode(spec.Mode)
	if err != nil {
		return 0, err
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

// JobStatus is a copyable snapshot of one job's state.
type JobStatus struct {
	ID      int
	Spec    JobSpec
	State   string
	Members []int
	Err     string
	Submit  time.Time
	Start   time.Time
	Finish  time.Time
	Used    uint64
}

// Job returns a snapshot of the job's current state.
func (s *Scheduler) Job(id int) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return JobStatus{
		ID: j.ID, Spec: j.Spec, State: j.State,
		Members: append([]int(nil), j.Members...),
		Err:     j.Err, Submit: j.Submit, Start: j.Start, Finish: j.Finish,
		Used: j.Used,
	}, nil
}

// parseMode maps a spec's consistency-mode string. Cached mode is refused:
// tearing a namespace down (Segment.DropRange) clears its blocks' copysets
// without invalidating the copies PEs hold, so the next job carved from the
// same region would read the previous job's data out of its workers' caches.
func parseMode(m string) (gmem.Mode, error) {
	mode, err := gmem.ParseMode(m)
	if err != nil {
		return mode, fmt.Errorf("sched: %w", err)
	}
	if mode == gmem.ModeCached {
		return mode, ErrCachedMode
	}
	return mode, nil
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

// --- Control-plane wire formats (JSON over user messages) ---

// assignment is the scheduler -> worker dispatch record. JobID -1 is the
// shutdown poison.
type assignment struct {
	JobID    int    `json:"job_id"`
	Name     string `json:"name"`
	Members  []int  `json:"members"`
	TagBase  int32  `json:"tag_base"`
	Base     uint64 `json:"base"`
	Limit    uint64 `json:"limit"`
	Mode     uint8  `json:"mode"`
	Workload string `json:"workload"`
	Size     int    `json:"size"`
}

// completion is the worker -> scheduler member report.
type completion struct {
	JobID int    `json:"job_id"`
	Rank  int    `json:"rank"`
	Err   string `json:"err,omitempty"`
	Used  uint64 `json:"used"` // namespace words allocated
}

func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("sched: encoding control message: %v", err))
	}
	return b
}

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
		GMBlockWords:   s.cfg.GMBlockWords,
		RequestTimeout: sim.Duration(s.cfg.RequestTimeout.Nanoseconds()),
		Seed:           s.cfg.Seed,
		Inspect:        s.cfg.Inspect,
	}
}

// tick converts the configured poll interval for RecvMsgTimeout.
func (s *Scheduler) tick() sim.Duration { return sim.Duration(s.cfg.Tick.Nanoseconds()) }

// run is the PE 0 control loop: collect member completions, expire
// deadlines, admit and dispatch queued jobs, and — once closing and idle —
// poison the workers and return.
func (s *Scheduler) run(pe *core.PE) error {
	s.mu.Lock()
	if s.ra == nil {
		s.ra = gmem.NewRegionAllocator(pe.Space(), s.cfg.CapacityBlocks)
	}
	s.mu.Unlock()
	for {
		if src, data, ok := pe.RecvMsgTimeout(doneTag, s.tick()); ok {
			s.handleCompletion(pe, src, data)
			// Keep draining with a near-zero wait: completions often
			// arrive in bursts when a gang finishes.
			for {
				src, data, ok = pe.RecvMsgTimeout(doneTag, 50*sim.Microsecond)
				if !ok {
					break
				}
				s.handleCompletion(pe, src, data)
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
			poison := mustJSON(assignment{JobID: -1})
			for w := 1; w <= s.cfg.Workers; w++ {
				pe.SendMsg(w, ctlTag, poison)
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

// dispatch installs the job's kernel-side namespace bindings and hands the
// assignment to every member. Bindings go in before any member can issue a
// job GM operation.
func (s *Scheduler) dispatch(pe *core.PE, j *Job) {
	s.mu.Lock()
	a := assignment{
		JobID: j.ID, Name: j.Spec.Name,
		Members: append([]int(nil), j.Members...),
		TagBase: core.JobSlotBase(j.Slot),
		Base:    j.Region.Base, Limit: j.Region.Limit,
		Mode: uint8(j.Mode), Workload: j.Spec.Workload, Size: j.Spec.Size,
	}
	s.mu.Unlock()
	for _, m := range a.Members {
		if err := pe.NamespaceBind(m, a.Base, a.Limit); err != nil {
			panic(fmt.Sprintf("sched: binding namespace of PE %d: %v", m, err))
		}
	}
	data := mustJSON(a)
	for _, m := range a.Members {
		pe.SendMsg(m, ctlTag, data)
	}
}

// handleCompletion folds one member report in; the last member triggers
// teardown.
func (s *Scheduler) handleCompletion(pe *core.PE, src int, data []byte) {
	var c completion
	if err := json.Unmarshal(data, &c); err != nil {
		panic(fmt.Sprintf("sched: corrupt completion from PE %d: %v", src, err))
	}
	s.mu.Lock()
	j, ok := s.jobs[c.JobID]
	if !ok || j.State != StateRunning {
		s.mu.Unlock()
		return
	}
	if c.Err != "" && j.Err == "" {
		j.Err = fmt.Sprintf("rank %d: %s", c.Rank, c.Err)
	}
	if c.Err != "" {
		j.failed = true
		// Abort the surviving members: a gang with a dead rank can only
		// block at its next collective.
		j.cancel.Store(true)
	}
	if c.Used > j.Used {
		j.Used = c.Used
	}
	j.pending--
	last := j.pending == 0
	s.mu.Unlock()
	if last {
		s.teardown(pe, j)
	}
}

// teardown releases everything the job held: kernel-side bindings, the
// namespace's materialised blocks, the tag window's message/sync residue,
// and finally the PEs, region and slot. Runs on PE 0 with no lock held
// across the PE calls.
func (s *Scheduler) teardown(pe *core.PE, j *Job) {
	s.mu.Lock()
	members := append([]int(nil), j.Members...)
	region := j.Region
	slot := j.Slot
	quota := j.Spec.QuotaBlocks
	s.mu.Unlock()

	for _, m := range members {
		if err := pe.NamespaceBind(m, 0, 0); err != nil {
			panic(fmt.Sprintf("sched: unbinding namespace of PE %d: %v", m, err))
		}
	}
	if _, err := pe.NamespaceFree(region.Base, int(quota)); err != nil {
		panic(fmt.Sprintf("sched: freeing namespace of job %d: %v", j.ID, err))
	}
	if err := pe.JobPurge(core.JobSlotBase(slot), core.JobTagSpan); err != nil {
		panic(fmt.Sprintf("sched: purging job %d: %v", j.ID, err))
	}

	now := time.Now()
	s.mu.Lock()
	s.accrueBusyLocked(now)
	s.freePEs = append(s.freePEs, members...)
	sort.Ints(s.freePEs)
	s.slots[slot] = false
	s.ra.Release(region)
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

// worker is the loop every PE other than 0 runs: wait for an assignment,
// run the job inside its namespace, report, repeat — until the poison pill.
func (s *Scheduler) worker(pe *core.PE) error {
	for {
		_, data, ok := pe.RecvMsgTimeout(ctlTag, s.tick())
		if !ok {
			continue
		}
		var a assignment
		if err := json.Unmarshal(data, &a); err != nil {
			return fmt.Errorf("sched: worker %d: corrupt assignment: %w", pe.ID(), err)
		}
		if a.JobID < 0 {
			return nil
		}
		s.runJob(pe, a)
	}
}

// runJob executes one assignment on this worker: bind the PE-side guard,
// build the job view, run the workload (recovering panics — quota
// exhaustion, namespace violations, aborts — as job failure), drop local
// residue and report to the scheduler.
func (s *Scheduler) runJob(pe *core.PE, a assignment) {
	s.mu.Lock()
	j := s.jobs[a.JobID]
	s.mu.Unlock()
	var cancel *atomic.Bool
	if j != nil {
		cancel = &j.cancel
	}
	pe.BindNamespace(a.Base, a.Limit)
	var jp *core.JobPE
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
			if jp != nil {
				used = jp.QuotaUsed()
			}
		}()
		jp = core.NewJobPE(pe, core.JobGroup{
			Name:    a.Name,
			Members: a.Members,
			TagBase: a.TagBase,
			Region:  gmem.Region{Base: a.Base, Limit: a.Limit},
			Mode:    gmem.Mode(a.Mode),
			Cancel:  cancel,
		})
		if err := runWorkload(jp, a.Workload, a.Size); err != nil {
			errStr = err.Error()
		}
	}()
	pe.EndJob(a.Base, a.Limit)
	pe.ClearNamespace()
	rank := 0
	for r, m := range a.Members {
		if m == pe.ID() {
			rank = r
		}
	}
	pe.SendMsg(0, doneTag, mustJSON(completion{
		JobID: a.JobID, Rank: rank, Err: errStr, Used: used,
	}))
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

// JobRows implements ssi.JobSource: the per-job status rows of the
// single-system image.
func (s *Scheduler) JobRows() []ssi.JobRow {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]int, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rows := make([]ssi.JobRow, 0, len(ids))
	bw := uint64(s.cfg.GMBlockWords)
	if bw == 0 {
		bw = 32
	}
	for _, id := range ids {
		j := s.jobs[id]
		row := ssi.JobRow{
			ID: j.ID, Name: j.Spec.Name, State: j.State,
			PEs: j.Spec.PEs, QuotaBlocks: j.Spec.QuotaBlocks,
			UsedBlocks: (j.Used + bw - 1) / bw,
			Priority:   j.Spec.Priority,
			Error:      j.Err,
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
		rows = append(rows, row)
	}
	return rows
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
