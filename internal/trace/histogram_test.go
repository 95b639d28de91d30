package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Snapshot().Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(10 * sim.Microsecond)
	h.Observe(20 * sim.Microsecond)
	h.Observe(30 * sim.Microsecond)
	if h.Count.Load() != 3 || h.Mean() != 20*sim.Microsecond {
		t.Fatalf("count=%d mean=%v", h.Count.Load(), h.Mean())
	}
	if h.Snapshot().Max != 30*sim.Microsecond {
		t.Fatalf("max=%v", h.Snapshot().Max)
	}
}

// TestHistogramTally pins the split between events and timed samples: Tally
// counts an event in Count and nowhere else, and every reader but Count —
// Mean, the quantiles, Max, String's timed share, Merge — covers the timed
// samples only.
func TestHistogramTally(t *testing.T) {
	var h Histogram
	h.Observe(10 * sim.Microsecond)
	for i := 0; i < 15; i++ {
		h.Tally()
	}
	h.Observe(30 * sim.Microsecond)
	s := h.Snapshot()
	if s.Count != 17 || s.Timed != 2 || s.Sum != 40*sim.Microsecond || s.Max != 30*sim.Microsecond {
		t.Fatalf("after 2 timed and 15 tallied events: %+v", s)
	}
	if s.Mean() != 20*sim.Microsecond || s.Quantile(1) != 30*sim.Microsecond {
		t.Fatalf("mean %v, p100 %v: want the timed samples' 20us and 30us", s.Mean(), s.Quantile(1))
	}
	if got := h.String(); !strings.HasPrefix(got, "n=17 timed=2 mean=0.000020s ") {
		t.Fatalf("String = %q", got)
	}
	if ls := h.Summarize(); ls.Count != 17 || ls.Mean != 20 {
		t.Fatalf("Summarize = %+v", ls)
	}
	var only Histogram
	only.Tally()
	if s := only.Snapshot(); s.Count != 1 || s.Timed != 0 || s.Mean() != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("tallied only: %+v", s)
	}
	if !strings.Contains(only.Render(20), "no samples") {
		t.Fatal("a histogram with no timed sample renders bars")
	}
	h.Merge(&only)
	if s := h.Snapshot(); s.Count != 18 || s.Timed != 2 {
		t.Fatalf("merged a tallied-only histogram: %+v", s)
	}
	var all Histogram
	all.Observe(5 * sim.Microsecond)
	if got := all.String(); strings.Contains(got, "timed") {
		t.Fatalf("every event timed, yet String = %q", got)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(sim.Duration(i) * sim.Microsecond)
	}
	p50 := h.Snapshot().Quantile(0.5)
	// True median is 500us; the bucketed bound must cover it within 2x.
	if p50 < 500*sim.Microsecond || p50 > 1024*sim.Microsecond {
		t.Fatalf("p50 bound %v", p50)
	}
	p99 := h.Snapshot().Quantile(0.99)
	if p99 < 990*sim.Microsecond {
		t.Fatalf("p99 bound %v below true value", p99)
	}
	// No quantile may exceed the largest sample: the bucket top for 1000us
	// is 1024us, and a sample past the last bucket's nominal top (~2.1s) is
	// bounded only by itself.
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if got := h.Snapshot().Quantile(q); got > h.Snapshot().Max {
			t.Fatalf("q=%v: %v exceeds max sample %v", q, got, h.Snapshot().Max)
		}
	}
	if got := h.Snapshot().Quantile(1); got != 1000*sim.Microsecond {
		t.Fatalf("p100 = %v, want the max sample 1ms", got)
	}
	var one Histogram
	one.Observe(0)
	if got := one.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("all-zero samples: p99 = %v, want 0", got)
	}
	h.Observe(5 * sim.Second)
	if got := h.Snapshot().Quantile(1); got != 5*sim.Second {
		t.Fatalf("open-ended last bucket: p100 = %v, want 5s", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(5 * sim.Microsecond)
	b.Observe(50 * sim.Millisecond)
	a.Merge(&b)
	if s := a.Snapshot(); s.Count != 2 || s.Max != 50*sim.Millisecond {
		t.Fatalf("merged: %+v", s)
	}
	// An empty source is skipped, in either direction.
	var empty Histogram
	before := a.Snapshot()
	a.Merge(&empty)
	if a.Snapshot() != before {
		t.Fatalf("merging an empty histogram changed the target: %+v", a.Snapshot())
	}
	empty.Merge(&a)
	if empty.Snapshot() != before {
		t.Fatalf("merging into an empty histogram: %+v, want %+v", empty.Snapshot(), before)
	}
}

// Property: counts are conserved and Sum equals the sum of samples.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(samples []uint32) bool {
		var h Histogram
		var sum sim.Duration
		for _, s := range samples {
			d := sim.Duration(s)
			h.Observe(d)
			sum += d
		}
		return h.Count.Load() == uint64(len(samples)) && h.Snapshot().Sum == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramParallelObserve drives Observe, Merge and the quantile
// readers from many goroutines at once; run under -race it checks the
// documented multi-writer contract (live exporters read while PEs observe).
func TestHistogramParallelObserve(t *testing.T) {
	const writers = 8
	const perWriter = 5000
	var h Histogram
	var readerTotal Histogram
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader: a live /metrics exporter
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			hs := h.Snapshot()
			_ = hs.Quantile(0.95)
			_ = hs.Mean()
			readerTotal.Merge(&h) // concurrent Merge from a live source
		}
	}()
	var writersDone sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersDone.Add(1)
		go func(w int) {
			defer writersDone.Done()
			for i := 1; i <= perWriter; i++ {
				h.Observe(sim.Duration(w*perWriter+i) * sim.Microsecond)
			}
		}(w)
	}
	writersDone.Wait()
	close(stop)
	wg.Wait()

	hs := h.Snapshot()
	if hs.Count != writers*perWriter {
		t.Fatalf("count=%d want %d (lost updates)", hs.Count, writers*perWriter)
	}
	wantMax := sim.Duration(writers*perWriter) * sim.Microsecond
	if hs.Max != wantMax {
		t.Fatalf("max=%v want %v", hs.Max, wantMax)
	}
	var total uint64
	for i := range hs.Buckets {
		total += hs.Buckets[i]
	}
	if total != hs.Count {
		t.Fatalf("bucket total %d != count %d", total, hs.Count)
	}
}

// TestHistogramAlignedAtOddOffset places a Histogram 4 bytes into a struct,
// where a 32-bit target puts a raw uint64 on a 4-byte boundary, and observes
// into it and merges it. On such targets a 64-bit atomic at an unaligned
// address panics; the typed atomics are aligned wherever they sit.
func TestHistogramAlignedAtOddOffset(t *testing.T) {
	type holder struct {
		pad int32
		h   Histogram
	}
	var hs [3]holder
	for i := range hs {
		hs[i].pad = int32(i)
		hs[i].h.Observe(sim.Duration(i+1) * sim.Millisecond)
	}
	var total holder
	for i := range hs {
		total.h.Merge(&hs[i].h)
		hs[i].h.Merge(&total.h)
	}
	s := total.h.Snapshot()
	if s.Count != 3 || s.Sum != 6*sim.Millisecond || s.Max != 3*sim.Millisecond {
		t.Fatalf("merged: %+v", s)
	}
}

func TestHistogramRender(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(100 * sim.Microsecond)
	}
	h.Observe(10 * sim.Millisecond)
	out := h.Render(20)
	if !strings.Contains(out, "#") || !strings.Contains(out, "10") {
		t.Fatalf("render:\n%s", out)
	}
	var empty Histogram
	if !strings.Contains(empty.Render(20), "no samples") {
		t.Fatal("empty render wrong")
	}
}

func TestHistogramStringSummary(t *testing.T) {
	var h Histogram
	h.Observe(sim.Millisecond)
	s := h.String()
	for _, want := range []string{"n=1", "mean=", "p99<="} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}

// TestSummarizeJSONShape pins the microsecond summary's field names and
// order: /metrics (rtt_us) and the scheduler's stats (wait_us, run_us) serve
// this type verbatim.
func TestSummarizeJSONShape(t *testing.T) {
	var h Histogram
	h.Observe(3 * sim.Microsecond)
	h.Observe(5 * sim.Microsecond)
	got, err := json.Marshal(h.Summarize())
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"count":2,"mean":4,"p50":4,"p95":4,"p99":4,"max":5}`; string(got) != want {
		t.Fatalf("summary JSON = %s, want %s", got, want)
	}
}
