package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/trace"
)

// SchedPoint is one leg of the multi-job scheduler load test (dsebench
// -sched): a resident SSI cluster driven by a stream of job submissions,
// reported as throughput, queue-wait distribution and utilization, all of it
// wall-clock.
type SchedPoint struct {
	Leg     string // "burst" (all jobs queued up front) or "poisson"
	Workers int    // worker PE count
	Jobs    int    // jobs submitted

	// RatePerSec is the offered Poisson arrival rate (0 on the burst leg).
	RatePerSec float64

	JobsPerSec  float64
	WaitP50US   float64
	WaitP95US   float64
	WaitP99US   float64
	Utilization float64

	MaxQueued   int // deepest the queue got
	MaxResident int // most jobs running concurrently

	Failed     uint64
	Violations uint64 // cross-namespace rejections; must be 0
}

// schedSpecMix deterministically generates the i-th job spec of a load leg:
// mostly 1-PE touch micro-jobs with a tail of wider gangs, varied quotas
// and priorities — the "thousands of small jobs with a few big ones" shape
// a shared cluster sees.
func schedSpecMix(rng *rand.Rand, i int) sched.JobSpec {
	spec := sched.JobSpec{
		Name:        fmt.Sprintf("j%d", i),
		PEs:         1,
		Workload:    "touch",
		Size:        1,
		QuotaBlocks: 2,
		Priority:    rng.Intn(3),
	}
	switch rng.Intn(10) {
	case 0: // wider gang
		spec.PEs = 2
		spec.QuotaBlocks = 4
	case 1: // bigger footprint
		spec.Size = 2
		spec.QuotaBlocks = 4
	}
	return spec
}

// runSchedLeg drives one load leg against a fresh resident cluster.
// arrival <= 0 queues every job before the cluster starts (the burst leg,
// which is what pushes MaxQueued past the job count); arrival > 0 submits
// with exponential interarrival gaps at that rate while the cluster runs.
func runSchedLeg(leg string, workers, jobs int, arrival float64, seed uint64) (SchedPoint, error) {
	s := sched.NewScheduler(sched.Config{
		Workers:        workers,
		CapacityBlocks: 256,
		Tick:           time.Millisecond,
	})
	rng := rand.New(rand.NewSource(int64(seed) + 1))
	submit := func(i int) error {
		_, err := s.Submit(schedSpecMix(rng, i))
		return err
	}
	if arrival <= 0 {
		for i := 0; i < jobs; i++ {
			if err := submit(i); err != nil {
				return SchedPoint{}, fmt.Errorf("bench: sched %s submit %d: %w", leg, i, err)
			}
		}
	}

	type runOut struct {
		res *core.Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := core.Run(s.CoreConfig(), s.Program)
		done <- runOut{res, err}
	}()

	if arrival > 0 {
		for i := 0; i < jobs; i++ {
			if err := submit(i); err != nil {
				return SchedPoint{}, fmt.Errorf("bench: sched %s submit %d: %w", leg, i, err)
			}
			// Exponential interarrival gap at the offered rate.
			gap := time.Duration(rng.ExpFloat64() / arrival * float64(time.Second))
			if gap > 0 {
				time.Sleep(gap)
			}
		}
	}

	// Drain: every submitted job must reach a terminal state.
	deadline := time.Now().Add(5 * time.Minute)
	var st sched.Stats
	for {
		st = s.Stats()
		if st.Done+st.Failed+st.Cancelled >= uint64(jobs) {
			break
		}
		if time.Now().After(deadline) {
			s.Close()
			<-done
			return SchedPoint{}, fmt.Errorf("bench: sched %s: stalled with %d/%d jobs terminal",
				leg, st.Done+st.Failed+st.Cancelled, jobs)
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	out := <-done
	if out.err != nil {
		return SchedPoint{}, fmt.Errorf("bench: sched %s: %w", leg, out.err)
	}
	if err := out.res.FirstErr(); err != nil {
		return SchedPoint{}, fmt.Errorf("bench: sched %s: %w", leg, err)
	}

	p := SchedPoint{
		Leg: leg, Workers: workers, Jobs: jobs, RatePerSec: arrival,
		JobsPerSec:  st.JobsPerSec,
		WaitP50US:   st.WaitUS.P50,
		WaitP95US:   st.WaitUS.P95,
		WaitP99US:   st.WaitUS.P99,
		Utilization: st.Utilization,
		MaxQueued:   st.MaxQueued,
		MaxResident: st.MaxResident,
		Failed:      st.Failed,
		Violations:  out.res.Total.NsViolations,
	}
	if p.Violations != 0 {
		return p, fmt.Errorf("bench: sched %s: %d cross-namespace violations (namespace isolation broke)",
			leg, p.Violations)
	}
	if st.Failed != 0 {
		return p, fmt.Errorf("bench: sched %s: %d jobs failed", leg, st.Failed)
	}
	return p, nil
}

// SchedSweep is the dsebench -sched load test: a burst leg that floods the
// queue (thousands of jobs submitted before the cluster starts, verifying
// the scheduler sustains a deep backlog with gangs resident concurrently),
// then a Poisson-arrival leg at a fixed offered rate. Every leg must drain
// with zero failures and zero cross-namespace violations.
func SchedSweep(quick bool, seed uint64) ([]SchedPoint, error) {
	burstJobs, poissonJobs, rate := 4000, 2000, 1500.0
	if quick {
		burstJobs, poissonJobs, rate = 1200, 300, 1500.0
	}
	var pts []SchedPoint
	p, err := runSchedLeg("burst", 4, burstJobs, 0, seed)
	if err != nil {
		return nil, err
	}
	if p.MaxQueued < 1000 {
		return nil, fmt.Errorf("bench: sched burst: max queue depth %d never reached 1000", p.MaxQueued)
	}
	if p.MaxResident < 2 {
		return nil, fmt.Errorf("bench: sched burst: max resident %d, want >= 2 concurrent jobs", p.MaxResident)
	}
	pts = append(pts, p)
	p, err = runSchedLeg("poisson", 4, poissonJobs, rate, seed)
	if err != nil {
		return nil, err
	}
	pts = append(pts, p)
	return pts, nil
}

// SchedTable renders the load-test legs.
func SchedTable(pts []SchedPoint) *trace.Table {
	t := &trace.Table{
		Title: "multi-job scheduler load test (wall clock; dsesched resident cluster)",
		Header: []string{"leg", "workers", "jobs", "rate/s", "jobs/s",
			"wait p50", "wait p95", "wait p99", "util", "max queue", "max resident"},
	}
	us := func(v float64) string {
		if v >= 1000 {
			return fmt.Sprintf("%.1fms", v/1000)
		}
		return fmt.Sprintf("%.0fus", v)
	}
	for _, p := range pts {
		rate := "-"
		if p.RatePerSec > 0 {
			rate = fmt.Sprintf("%.0f", p.RatePerSec)
		}
		t.AddRow(p.Leg, fmt.Sprintf("%d", p.Workers), fmt.Sprintf("%d", p.Jobs), rate,
			fmt.Sprintf("%.0f", p.JobsPerSec),
			us(p.WaitP50US), us(p.WaitP95US), us(p.WaitP99US),
			fmt.Sprintf("%.0f%%", 100*p.Utilization),
			fmt.Sprintf("%d", p.MaxQueued), fmt.Sprintf("%d", p.MaxResident))
	}
	return t
}
