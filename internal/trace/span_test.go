package trace

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

func TestTracingConfigDisabled(t *testing.T) {
	var c TracingConfig
	if c.NewRing() != nil {
		t.Fatal("zero TracingConfig must produce a nil ring")
	}
}

func TestSpanRingWraparound(t *testing.T) {
	r := TracingConfig{Enabled: true, RingSize: 4}.NewRing()
	for i := 0; i < 10; i++ {
		r.Record(Span{Kind: SpanRequest, Op: wire.OpRead, Seq: uint64(i),
			Start: sim.Time(i) * sim.Microsecond, End: sim.Time(i+1) * sim.Microsecond})
	}
	if r.Len() != 4 {
		t.Fatalf("Len=%d want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped=%d want 6", r.Dropped())
	}
	spans := r.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("snapshot len=%d", len(spans))
	}
	// Oldest-first: the four survivors are seqs 6..9.
	for i, s := range spans {
		if s.Seq != uint64(6+i) {
			t.Fatalf("snapshot[%d].Seq=%d want %d", i, s.Seq, 6+i)
		}
	}
}

func TestSpanRingPartialSnapshot(t *testing.T) {
	r := TracingConfig{Enabled: true, RingSize: 8}.NewRing()
	for i := 0; i < 3; i++ {
		r.Record(Span{Seq: uint64(i)})
	}
	spans := r.Snapshot()
	if len(spans) != 3 || r.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", len(spans), r.Dropped())
	}
	for i, s := range spans {
		if s.Seq != uint64(i) {
			t.Fatalf("snapshot[%d].Seq=%d", i, s.Seq)
		}
	}
}

func TestSpanKindStrings(t *testing.T) {
	kinds := []SpanKind{SpanRun, SpanRequest, SpanTransfer, SpanBarrier, SpanLock, SpanService}
	want := []string{"run", "request", "transfer", "barrier", "lock", "service"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Fatalf("kind %d → %q want %q", i, k.String(), want[i])
		}
	}
	if SpanKind(200).String() != "span?" {
		t.Fatal("unknown kind string")
	}
}

func TestSpanDuration(t *testing.T) {
	s := Span{Start: 10 * sim.Microsecond, End: 35 * sim.Microsecond}
	if s.Duration() != 25*sim.Microsecond {
		t.Fatalf("duration=%v", s.Duration())
	}
}
