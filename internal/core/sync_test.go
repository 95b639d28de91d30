package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/gmem"
	"repro/internal/trace"
	"repro/internal/wire"
)

// beginGang begins the job scope of the 2-of-4 gang {1, 3} on its members
// and reports whether pe is one.
func beginGang(pe *PE) bool {
	if pe.k.id%2 == 0 {
		return false
	}
	must(pe.BeginJob(JobGroup{
		Name: "gang", Members: []int{1, 3}, TagBase: JobSlotBase(0),
		Region: gmem.Region{Limit: uint64(pe.k.space.BlockWords)},
	}))
	return true
}

// TestSyncPipelineRecords runs every verb of the synchronisation pipeline on
// four PEs with tracing and the history recorder on, and holds each against
// what one row of the verb table promises: its counter, a sample in its wait
// histogram, a span and — where the checker has a kind — a history event per
// call, none of them lost because a call site forgot it. The sized barrier of
// a job's gang used to leave neither span nor event and a semaphore wait
// nothing at all; the all-reduce, one body for the cluster and a job's
// gang, is held to its result and its 2(n-1) messages.
func TestSyncPipelineRecords(t *testing.T) {
	const gangID = 7
	for _, tc := range []struct {
		name    string
		run     Program
		calls   uint64 // waits the run makes
		counter func(s *trace.PEStats) uint64
		wait    func(s *trace.PEStats) *trace.Histogram
		span    trace.SpanKind
		id      int32
		events  map[check.Kind]int // history events about id
		msgs    map[wire.Op]uint64
	}{
		{
			name: "barrier", calls: 4, span: trace.SpanBarrier, id: 7,
			run:     func(pe *PE) error { pe.BarrierID(7); return nil },
			counter: func(s *trace.PEStats) uint64 { return s.Barriers },
			wait:    func(s *trace.PEStats) *trace.Histogram { return &s.BarrierWait },
			events:  map[check.Kind]int{check.KindBarrier: 4},
			msgs:    map[wire.Op]uint64{wire.OpBarrierArrive: 4, wire.OpBarrierRelease: 4},
		},
		{
			name: "sized barrier", calls: 2, span: trace.SpanBarrier, id: JobSlotBase(0) + gangID,
			run: func(pe *PE) error {
				if beginGang(pe) {
					pe.BarrierID(gangID)
					pe.EndJob()
				}
				return nil
			},
			counter: func(s *trace.PEStats) uint64 { return s.Barriers },
			wait:    func(s *trace.PEStats) *trace.Histogram { return &s.BarrierWait },
			events:  map[check.Kind]int{check.KindBarrier: 2},
			msgs:    map[wire.Op]uint64{wire.OpBarrierArrive: 2, wire.OpBarrierRelease: 2},
		},
		{
			name: "lock/unlock", calls: 4, span: trace.SpanLock, id: 2,
			run:     func(pe *PE) error { pe.Lock(2); pe.Unlock(2); return nil },
			counter: func(s *trace.PEStats) uint64 { return s.Locks },
			wait:    func(s *trace.PEStats) *trace.Histogram { return &s.LockWait },
			events:  map[check.Kind]int{check.KindLock: 4, check.KindUnlock: 4},
			msgs:    map[wire.Op]uint64{wire.OpLockAcquire: 4, wire.OpLockGrant: 4, wire.OpLockRelease: 4},
		},
		{
			name: "sem wait/post", calls: 3, span: trace.SpanSem, id: 5,
			run: func(pe *PE) error {
				if pe.ID() != 0 {
					pe.SemWait(5)
					return nil
				}
				for i := 1; i < pe.N(); i++ {
					pe.SemPost(5)
				}
				return nil
			},
			counter: func(s *trace.PEStats) uint64 { return s.Sems },
			wait:    func(s *trace.PEStats) *trace.Histogram { return &s.SemWait },
			msgs:    map[wire.Op]uint64{wire.OpSemWait: 3, wire.OpSemGrant: 3, wire.OpSemPost: 3},
		},
		{
			name: "all-reduce",
			run: func(pe *PE) error {
				if got := pe.AllReduceSum(float64(pe.ID() + 1)); got != 10 {
					return fmt.Errorf("PE %d: sum = %v, want 10", pe.ID(), got)
				}
				if got := pe.AllReduceMax(float64(pe.ID())); got != 3 {
					return fmt.Errorf("PE %d: max = %v, want 3", pe.ID(), got)
				}
				return nil
			},
			msgs: map[wire.Op]uint64{wire.OpUserMsg: 2 * 2 * 3},
		},
		{
			name: "gang all-reduce",
			run: func(pe *PE) error {
				if !beginGang(pe) {
					return nil
				}
				defer pe.EndJob()
				if got := pe.AllReduceSum(float64(pe.k.id)); got != 4 {
					return fmt.Errorf("rank %d: sum = %v, want 4", pe.ID(), got)
				}
				if got := pe.AllReduceMax(float64(pe.ID())); got != 1 {
					return fmt.Errorf("rank %d: max = %v, want 1", pe.ID(), got)
				}
				return nil
			},
			msgs: map[wire.Op]uint64{wire.OpUserMsg: 2 * 2 * 1},
		},
	} {
		for _, tr := range []TransportKind{TransportSim, TransportInproc} {
			t.Run(tc.name+"/"+string(tr), func(t *testing.T) {
				cfg := simCfg(4)
				cfg.Transport, cfg.RecordHistory = tr, true
				cfg.Tracing = trace.TracingConfig{Enabled: true}
				res, err := Run(cfg, tc.run)
				if err != nil || res.FirstErr() != nil {
					t.Fatal(err, res.FirstErr())
				}
				for op, want := range tc.msgs {
					if got := res.Total.ByOp[op].Msgs; got != want {
						t.Errorf("%v messages = %d, want %d", op, got, want)
					}
				}
				if rep := check.Check(res.History); !rep.OK() {
					t.Errorf("the checker rejects the history: %v", rep.Violations)
				}
				if tc.calls == 0 {
					return
				}
				if got := tc.counter(&res.Total); got != tc.calls {
					t.Errorf("counter = %d, want %d", got, tc.calls)
				}
				if got := tc.wait(&res.Total).Snapshot().Count; got != tc.calls {
					t.Errorf("wait histogram holds %d samples, want %d", got, tc.calls)
				}
				spans := uint64(0)
				for _, s := range res.Spans {
					if s.Kind == tc.span && s.Seq == uint64(uint32(tc.id)) {
						spans++
					}
				}
				if spans != tc.calls {
					t.Errorf("%d %v spans about id %d, want %d", spans, tc.span, tc.id, tc.calls)
				}
				events := map[check.Kind]int{}
				for _, e := range res.History.Events {
					if e.Kind >= check.KindLock && e.Addr == uint64(uint32(tc.id)) {
						events[e.Kind]++
					}
				}
				for _, kind := range []check.Kind{check.KindLock, check.KindUnlock, check.KindBarrier} {
					if events[kind] != tc.events[kind] {
						t.Errorf("%d %v events about id %d, want %d", events[kind], kind, tc.id, tc.events[kind])
					}
				}
			})
		}
	}
}

// TestStrayGrantDropped forges a lock grant to a PE that waits at a barrier.
// A PE awaits one sync at a time and a grant only answers a wait, so the
// forged one is counted in StrayDrops and dropped, and the barrier completes
// on its own release: a grant nobody awaits must not take the PE down.
func TestStrayGrantDropped(t *testing.T) {
	for _, tr := range []TransportKind{TransportSim, TransportInproc} {
		t.Run(string(tr), func(t *testing.T) {
			cfg := simCfg(2)
			cfg.Transport = tr
			res := runWithin(t, 10*time.Second, cfg, func(pe *PE) error {
				if pe.ID() == 0 {
					pe.app.Send(1, &wire.Message{Op: wire.OpLockGrant, Src: 0, Dst: 1, Tag: 3})
					pe.Compute(1e4) // the release follows the grant: PE 1 takes the grant first
				}
				pe.Barrier()
				pe.Barrier()
				return nil
			})
			for i, want := range []uint64{0, 1} {
				if s := &res.PerPE[i]; s.StrayDrops != want || s.Barriers != 2 {
					t.Errorf("PE %d: StrayDrops %d, barriers %d; want %d and 2", i, s.StrayDrops, s.Barriers, want)
				}
			}
		})
	}
}
