package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/gmem"
	"repro/internal/sim"
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
// a job's gang used to leave neither span nor event; the all-reduce, one body for the cluster and a job's
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
// A grant is a reply of the request engine like any other, matched by Seq, so
// the forged one answers no flight: it is counted in StaleReplies and dropped,
// and the barrier completes on its own release: a grant nobody awaits must
// not take the PE down.
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
				if s := &res.PerPE[i]; s.StaleReplies != want || s.Barriers != 2 {
					t.Errorf("PE %d: StaleReplies %d, barriers %d; want %d and 2", i, s.StaleReplies, s.Barriers, want)
				}
			}
		})
	}
}

// TestLossyBarriersRetry crosses barriers over a lossy simulated medium. A
// barrier wait is a flight of the request engine: an arrival the medium lost
// is sent again, and so is the arrival whose release was lost, which kernel 0
// answers from its record of the PE's wait instead of counting it again. Both
// losses must happen in the run and each epoch must still end in one release:
// every PE crosses every barrier once, and the checker finds no barrier that
// let a PE go before everybody had arrived.
func TestLossyBarriersRetry(t *testing.T) {
	const pes, rounds = 4, 30
	cfg := simCfg(pes)
	cfg.Seed, cfg.LossProbability, cfg.RecordHistory = 3, 0.1, true
	cfg.RequestTimeout, cfg.RequestRetries = 20*sim.Millisecond, 20
	res := runWithin(t, time.Minute, cfg, func(pe *PE) error {
		for i := 0; i < rounds; i++ {
			pe.Compute(float64(1e3 * (1 + (pe.ID()+i)%pes)))
			pe.BarrierID(int32(1 + i%2))
		}
		return nil
	})
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if rep := check.Check(res.History); !rep.OK() {
		t.Fatalf("the checker rejects the barriers: %v", rep.Violations)
	}
	for i := range res.PerPE {
		if s := &res.PerPE[i]; s.Barriers != rounds || s.BarrierWait.Snapshot().Count != rounds {
			t.Errorf("PE %d crossed %d barriers (%d waits), want %d", i, s.Barriers, s.BarrierWait.Snapshot().Count, rounds)
		}
	}
	// What the medium lost of each: arrivals sent but never served, releases
	// sent but never routed (on simnet every message goes through a serve loop).
	tot := &res.Total
	lostArrivals := tot.ByOp[wire.OpBarrierArrive].Msgs - tot.ServiceByOp[wire.OpBarrierArrive].Snapshot().Count
	lostReleases := tot.ByOp[wire.OpBarrierRelease].Msgs - tot.ServiceByOp[wire.OpBarrierRelease].Snapshot().Count
	t.Logf("lost %d arrivals and %d releases; Retries %d, DupRequests %d, StaleReplies %d",
		lostArrivals, lostReleases, tot.Retries, tot.DupRequests, tot.StaleReplies)
	if lostArrivals == 0 || lostReleases == 0 {
		t.Fatalf("the run lost %d arrivals and %d releases: it proves nothing about one of them", lostArrivals, lostReleases)
	}
	if tot.Retries == 0 || tot.DupRequests == 0 {
		t.Errorf("Retries %d, DupRequests %d: the retry path did not run", tot.Retries, tot.DupRequests)
	}
}

// TestStaleReleaseEndsNoWait puts a release that carries the Seq of a PE's
// earlier, answered arrival — a duplicate the network delivered late — into
// the PE's next barrier wait. It matches no flight in flight: it is counted
// in StaleReplies and the wait goes on until the barrier really completes.
func TestStaleReleaseEndsNoWait(t *testing.T) {
	for _, tr := range []TransportKind{TransportSim, TransportInproc} {
		t.Run(string(tr), func(t *testing.T) {
			cfg := simCfg(2)
			cfg.Transport, cfg.RecordHistory = tr, true
			res := runWithin(t, 10*time.Second, cfg, func(pe *PE) error {
				pe.Barrier()
				if pe.ID() == 1 {
					old := pe.k.seqCtr.Load() // the answered arrival's: the barrier was the last request
					pe.app.Send(1, &wire.Message{Op: wire.OpBarrierRelease, Src: 0, Dst: 1, Seq: old})
				} else {
					pe.Compute(1e5) // PE 1 waits, and takes the stale release first
				}
				pe.Barrier()
				return nil
			})
			if err := res.FirstErr(); err != nil {
				t.Fatal(err)
			}
			if rep := check.Check(res.History); !rep.OK() {
				t.Fatalf("a stale release ended a wait: %v", rep.Violations)
			}
			for i, want := range []uint64{0, 1} {
				if s := &res.PerPE[i]; s.StaleReplies != want || s.Barriers != 2 {
					t.Errorf("PE %d: StaleReplies %d, barriers %d; want %d and 2", i, s.StaleReplies, s.Barriers, want)
				}
			}
		})
	}
}

// TestCkptBarrierFailsOnAnyPeer: under checkpointing a barrier wait fails
// with *PeerDownError on any peer's death, not only its manager's (a member
// that died can never arrive). When the death came first and its notice was
// already taken by a GM exchange, the dead flag fails the wait before its
// arrival is sent; when it comes during the wait, the notice does. Kernel 0's
// serve loop is not running, so nothing else could end the wait.
func TestCkptBarrierFailsOnAnyPeer(t *testing.T) {
	store, err := ckpt.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, before := range []bool{true, false} {
		t.Run(fmt.Sprintf("died-before-wait=%v", before), func(t *testing.T) {
			net, ks := testKernels(t, 3, func(cfg *Config) { cfg.Ckpt = store })
			pe := newPE(ks[1])
			if before {
				ks[1].peerDown(2)
				// Served inline on inproc: the read's exchange takes the
				// notice, which addresses none of its flights, and drops it.
				if _, err := pe.GMReadErr(remoteAddr(t, pe, 0)); err != nil {
					t.Fatalf("read at the live kernel 0: %v", err)
				}
			}
			sent := ks[1].Stats().MsgsSent
			failed := make(chan any, 1)
			go func() {
				defer func() { failed <- recover() }()
				pe.Barrier()
			}()
			if !before {
				// The arrival reached kernel 0: the PE waits for its release.
				if m := recvFrom(t, net, 0); m.Op != wire.OpBarrierArrive || m.Src != 1 {
					t.Fatalf("kernel 0 got %v, want PE 1's arrival", m)
				}
				ks[1].peerDown(2)
			}
			select {
			case r := <-failed:
				var down *PeerDownError
				if err, _ := r.(error); !errors.As(err, &down) || down.Peer != 2 {
					t.Fatalf("barrier wait ended with %v, want a *PeerDownError naming peer 2", r)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the barrier wait outlived a peer's death")
			}
			if d := ks[1].Stats().MsgsSent - sent; before && d != 0 {
				t.Errorf("the wait sent %d messages after the death was known", d)
			}
		})
	}
}
