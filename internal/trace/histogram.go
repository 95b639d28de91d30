package trace

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"

	"repro/internal/sim"
)

// histBuckets spans 1 µs .. ~1 s in power-of-two buckets.
const histBuckets = 21

// Histogram is a power-of-two latency histogram for request round trips.
// Bucket i counts samples in [2^i, 2^(i+1)) microseconds; the last bucket
// absorbs everything larger.
//
// # Concurrency contract
//
// Every counter is a sync/atomic type, so a Histogram may be observed from
// any number of goroutines in parallel and merged or read while observers are
// still running — this is what makes the cross-PE aggregation path (live
// /metrics exporters, Result merging) safe while kernels are still serving.
// The typed atomics are 8-byte aligned on every target, 32-bit ones
// included, wherever the Histogram sits inside an enclosing struct or array.
// A concurrent read is per-field atomic but not a cross-field snapshot:
// Count, Sum and Buckets may be mutually out of date by the samples in
// flight. Quantiles read live are therefore approximate; they become exact
// once observers quiesce.
//
// A Histogram is not copied; Snapshot returns a plain copy of its counts,
// and Merge accumulates one Histogram into another.
type Histogram struct {
	Count   atomic.Uint64
	Sum     atomic.Int64 // sim.Duration
	Max     atomic.Int64 // sim.Duration
	Buckets [histBuckets]atomic.Uint64
}

// HistogramCounts is a plain copy of a Histogram's counters, taken by
// Snapshot, that may be copied and inspected field by field.
type HistogramCounts struct {
	Count   uint64
	Sum     sim.Duration
	Max     sim.Duration
	Buckets [histBuckets]uint64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d sim.Duration) int {
	return min(bits.Len64(uint64(max(d/sim.Microsecond, 1))), histBuckets) - 1
}

// Observe records one sample. Safe for concurrent use.
func (h *Histogram) Observe(d sim.Duration) {
	h.Count.Add(1)
	h.Sum.Add(int64(d))
	raiseMax(&h.Max, int64(d))
	h.Buckets[bucketOf(d)].Add(1)
}

// raiseMax lifts m to at least v.
func raiseMax(m *atomic.Int64, v int64) {
	for {
		old := m.Load()
		if v <= old || m.CompareAndSwap(old, v) {
			return
		}
	}
}

// Merge accumulates o into h. Both sides may still be receiving Observe
// calls; the merged result then reflects some prefix of the in-flight
// samples (see the concurrency contract above). An empty source — the
// common case when whole PEStats are merged — costs one load: Observe bumps
// Count first, so a zero Count means no sample has begun to land and the
// prefix merged is the empty one.
func (h *Histogram) Merge(o *Histogram) {
	n := o.Count.Load()
	if n == 0 {
		return
	}
	h.Count.Add(n)
	h.Sum.Add(o.Sum.Load())
	raiseMax(&h.Max, o.Max.Load())
	for i := range h.Buckets {
		h.Buckets[i].Add(o.Buckets[i].Load())
	}
}

// Snapshot returns a copy of the counters read atomically field by field.
func (h *Histogram) Snapshot() HistogramCounts {
	s := HistogramCounts{
		Count: h.Count.Load(),
		Sum:   sim.Duration(h.Sum.Load()),
		Max:   sim.Duration(h.Max.Load()),
	}
	for i := range s.Buckets {
		s.Buckets[i] = h.Buckets[i].Load()
	}
	return s
}

// Mean returns the average sample (0 when empty).
func (h *Histogram) Mean() sim.Duration { return h.Snapshot().Mean() }

// Mean returns the average sample (0 when empty).
func (s HistogramCounts) Mean() sim.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / sim.Duration(s.Count)
}

// Quantile returns an upper bound of the q-quantile (0 < q <= 1): the top of
// the bucket holding it — within 2× of the true value by construction —
// clamped to the largest sample, which no quantile can exceed. The last
// bucket is open-ended, so there the largest sample is the only bound.
func (s HistogramCounts) Quantile(q float64) sim.Duration {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i := 0; i < histBuckets-1; i++ {
		seen += s.Buckets[i]
		if seen >= target {
			// Upper bucket boundary: 2^(i+1) microseconds.
			return min(sim.Duration(int64(1)<<uint(i+1))*sim.Microsecond, s.Max)
		}
	}
	return s.Max
}

// LatencySummary is a latency distribution in microseconds: the JSON shape
// every exporter serves (debugsrv's /metrics, the scheduler's stats).
type LatencySummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Summarize reads the histogram once (see Snapshot) and reports it in
// microseconds; the quantiles are Quantile's upper bounds.
func (h *Histogram) Summarize() LatencySummary {
	hs := h.Snapshot()
	us := func(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) }
	return LatencySummary{
		Count: hs.Count,
		Mean:  us(hs.Mean()),
		P50:   us(hs.Quantile(0.50)),
		P95:   us(hs.Quantile(0.95)),
		P99:   us(hs.Quantile(0.99)),
		Max:   us(hs.Max),
	}
}

// String summarises the distribution.
func (h *Histogram) String() string {
	s := h.Snapshot()
	if s.Count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%v p50<=%v p99<=%v max=%v",
		s.Count, s.Mean(), s.Quantile(0.5), s.Quantile(0.99), s.Max)
}

// Render draws an ASCII bar chart of the non-empty bucket range.
func (h *Histogram) Render(width int) string {
	s := h.Snapshot()
	if s.Count == 0 {
		return "(no samples)\n"
	}
	if width < 8 {
		width = 8
	}
	lo, hi := -1, 0
	var peak uint64
	for i, c := range s.Buckets {
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
			if c > peak {
				peak = c
			}
		}
	}
	var b strings.Builder
	for i := lo; i <= hi; i++ {
		n := int(float64(s.Buckets[i]) / float64(peak) * float64(width))
		label := sim.Duration(int64(1)<<uint(i)) * sim.Microsecond
		fmt.Fprintf(&b, "%12v |%-*s| %d\n", label, width, strings.Repeat("#", n), s.Buckets[i])
	}
	return b.String()
}
