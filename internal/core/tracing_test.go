package core

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// tracedProgram exercises every span source: remote reads/writes, a block
// transfer, a lock critical section and barriers.
func tracedProgram(pe *PE) error {
	base := pe.Alloc(64)
	for i := pe.ID(); i < 64; i += pe.N() {
		mustWrite(pe, base+uint64(i), int64(i))
	}
	pe.Barrier()
	_ = mustReadBlock(pe, base, 64)
	pe.Lock(1)
	mustWrite(pe, base, mustRead(pe, base)+1)
	pe.Unlock(1)
	pe.Barrier()
	return nil
}

func TestTracingSpansRecorded(t *testing.T) {
	cfg := simCfg(4)
	cfg.Tracing = trace.TracingConfig{Enabled: true}
	res, err := Run(cfg, tracedProgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) == 0 {
		t.Fatal("tracing enabled but no spans recorded")
	}

	counts := map[trace.SpanKind]int{}
	for i := range res.Spans {
		s := &res.Spans[i]
		counts[s.Kind]++
		if s.End < s.Start {
			t.Fatalf("span %v ends before it starts: %+v", s.Kind, s)
		}
		if s.Kind == trace.SpanRequest && (s.Sent < s.Start || s.Sent > s.End) {
			t.Fatalf("request span Sent outside [Start,End]: %+v", s)
		}
		if i > 0 && s.Start < res.Spans[i-1].Start {
			t.Fatal("Result.Spans not sorted by start time")
		}
	}
	if counts[trace.SpanRun] != 4 {
		t.Fatalf("run spans = %d, want one per PE", counts[trace.SpanRun])
	}
	for _, k := range []trace.SpanKind{trace.SpanRequest, trace.SpanService, trace.SpanBarrier, trace.SpanLock, trace.SpanTransfer} {
		if counts[k] == 0 {
			t.Fatalf("no %v spans recorded (have %v)", k, counts)
		}
	}

	// Every request span must have a matching home-side service span,
	// correlated by (requester, seq).
	type key struct {
		requester int32
		seq       uint64
	}
	served := map[key]bool{}
	for i := range res.Spans {
		if s := &res.Spans[i]; s.Kind == trace.SpanService {
			served[key{s.Peer, s.Seq}] = true
		}
	}
	for i := range res.Spans {
		if s := &res.Spans[i]; s.Kind == trace.SpanRequest {
			if !served[key{s.PE, s.Seq}] {
				t.Fatalf("request span with no service span: %+v", s)
			}
		}
	}

	// The per-PE run spans must account for (essentially all of) the wall
	// time: each PE's run span stretches from program start to its return.
	var runCover sim.Duration
	for i := range res.Spans {
		if s := &res.Spans[i]; s.Kind == trace.SpanRun {
			if d := s.Duration(); d > runCover {
				runCover = d
			}
		}
	}
	if res.Elapsed > 0 && float64(runCover) < 0.95*float64(res.Elapsed) {
		t.Fatalf("run spans cover %v of %v elapsed (<95%%)", runCover, res.Elapsed)
	}
}

func TestTracingChromeExport(t *testing.T) {
	cfg := simCfg(4)
	cfg.Tracing = trace.TracingConfig{Enabled: true}
	res, err := Run(cfg, tracedProgram)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(events) < len(res.Spans) {
		t.Fatalf("%d events for %d spans", len(events), len(res.Spans))
	}
}

func TestTracingDisabledByDefault(t *testing.T) {
	res, err := Run(simCfg(2), tracedProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) != 0 {
		t.Fatalf("tracing disabled but %d spans recorded", len(res.Spans))
	}
	if err := res.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteChromeTrace must fail on an untraced run")
	}
}

func TestTracingRingWraparoundInRun(t *testing.T) {
	cfg := simCfg(2)
	cfg.Tracing = trace.TracingConfig{Enabled: true, RingSize: 8}
	res, err := Run(cfg, tracedProgram)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny rings must cap retained spans without corrupting the result.
	if len(res.Spans) > 4*8 { // app+kernel rings per PE
		t.Fatalf("%d spans retained with ring size 8", len(res.Spans))
	}
	for i := range res.Spans {
		if res.Spans[i].End < res.Spans[i].Start {
			t.Fatalf("corrupt span after wraparound: %+v", res.Spans[i])
		}
	}
}

// TestLatencyHistogramsPopulated checks that the per-op latency
// distributions are wired through PEStats into the result.
func TestLatencyHistogramsPopulated(t *testing.T) {
	res, err := Run(simCfg(4), tracedProgram)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.RTT.Count.Load() == 0 {
		t.Fatal("no round trips observed")
	}
	if res.Total.RTTByOp[wire.OpRead].Snapshot().Count == 0 {
		t.Fatal("no per-op RTT for OpRead")
	}
	if res.Total.ServiceByOp[wire.OpRead].Snapshot().Count == 0 {
		t.Fatal("no kernel service-time samples for OpRead")
	}
	if res.Total.BarrierWait.Count.Load() == 0 || res.Total.LockWait.Count.Load() == 0 {
		t.Fatal("no synchronisation wait samples")
	}
	var sum sim.Duration
	for i := range res.Total.RTTByOp {
		sum += res.Total.RTTByOp[i].Snapshot().Sum
	}
	if sum != res.Total.RTT.Snapshot().Sum {
		t.Fatalf("per-op RTT sum %v != total %v", sum, res.Total.RTT.Snapshot().Sum)
	}
	tab := res.Total.LatencyTable("latency")
	if len(tab.Rows) == 0 {
		t.Fatal("empty latency table")
	}
}

// TestLiveRTTConcurrentReads runs a real-concurrency (inproc) cluster with a
// shared live histogram and reads quantiles from another goroutine while the
// PEs are still observing — the /metrics exporter path, checked under -race.
func TestLiveRTTConcurrentReads(t *testing.T) {
	live := &trace.Histogram{}
	cfg := simCfg(4)
	cfg.Transport = TransportInproc
	cfg.LiveRTT = live

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			hs := live.Snapshot()
			_ = hs.Quantile(0.95)
			_ = hs.Mean()
		}
	}()
	res, err := Run(cfg, tracedProgram)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	ls := live.Snapshot()
	if ls.Count == 0 {
		t.Fatal("live histogram saw no round trips")
	}
	if ls.Count != res.Total.RTT.Count.Load() {
		t.Fatalf("live count %d != merged RTT count %d", ls.Count, res.Total.RTT.Count.Load())
	}
}
