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
// Observe, Merge and the read accessors (Mean, Quantile, Samples, Total,
// MaxSample, Snapshot, String, Render) use atomic operations on every field,
// so a Histogram may be observed from any number of goroutines in parallel
// and merged or read while observers are still running — this is what makes
// the cross-PE aggregation path (live /metrics exporters, Result merging)
// safe while kernels are still serving. Two caveats:
//
//  1. A concurrent read is per-field atomic but not a cross-field snapshot:
//     Count, Sum and Buckets may be mutually out of date by the samples in
//     flight. Quantiles read live are therefore approximate; they become
//     exact once observers quiesce.
//  2. Direct field access is only safe once all observers have quiesced
//     (e.g. in tests, or after core.Run returned). Concurrent readers must
//     go through the accessors or Snapshot.
type Histogram struct {
	Count   uint64
	Sum     sim.Duration
	Max     sim.Duration
	Buckets [histBuckets]uint64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d sim.Duration) int {
	us := int64(d) / int64(sim.Microsecond)
	if us < 1 {
		return 0
	}
	b := bits.Len64(uint64(us)) - 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one sample. Safe for concurrent use.
func (h *Histogram) Observe(d sim.Duration) {
	atomic.AddUint64(&h.Count, 1)
	atomic.AddInt64((*int64)(&h.Sum), int64(d))
	for {
		old := atomic.LoadInt64((*int64)(&h.Max))
		if int64(d) <= old || atomic.CompareAndSwapInt64((*int64)(&h.Max), old, int64(d)) {
			break
		}
	}
	atomic.AddUint64(&h.Buckets[bucketOf(d)], 1)
}

// Merge accumulates o into h. Both sides may still be receiving Observe
// calls; the merged result then reflects some prefix of the in-flight
// samples (see the concurrency contract above). An empty source — the
// common case when whole PEStats are merged — costs one load: Observe bumps
// Count first, so a zero Count means no sample has begun to land and the
// prefix merged is the empty one.
func (h *Histogram) Merge(o *Histogram) {
	n := atomic.LoadUint64(&o.Count)
	if n == 0 {
		return
	}
	atomic.AddUint64(&h.Count, n)
	atomic.AddInt64((*int64)(&h.Sum), atomic.LoadInt64((*int64)(&o.Sum)))
	om := atomic.LoadInt64((*int64)(&o.Max))
	for {
		old := atomic.LoadInt64((*int64)(&h.Max))
		if om <= old || atomic.CompareAndSwapInt64((*int64)(&h.Max), old, om) {
			break
		}
	}
	for i := range h.Buckets {
		atomic.AddUint64(&h.Buckets[i], atomic.LoadUint64(&o.Buckets[i]))
	}
}

// Snapshot returns an atomically-read copy safe to inspect field by field.
func (h *Histogram) Snapshot() Histogram {
	var s Histogram
	s.Count = atomic.LoadUint64(&h.Count)
	s.Sum = sim.Duration(atomic.LoadInt64((*int64)(&h.Sum)))
	s.Max = sim.Duration(atomic.LoadInt64((*int64)(&h.Max)))
	for i := range s.Buckets {
		s.Buckets[i] = atomic.LoadUint64(&h.Buckets[i])
	}
	return s
}

// Samples returns the sample count (atomically).
func (h *Histogram) Samples() uint64 { return atomic.LoadUint64(&h.Count) }

// Total returns the sample sum (atomically).
func (h *Histogram) Total() sim.Duration {
	return sim.Duration(atomic.LoadInt64((*int64)(&h.Sum)))
}

// MaxSample returns the largest sample (atomically).
func (h *Histogram) MaxSample() sim.Duration {
	return sim.Duration(atomic.LoadInt64((*int64)(&h.Max)))
}

// Mean returns the average sample (0 when empty).
func (h *Histogram) Mean() sim.Duration {
	n := atomic.LoadUint64(&h.Count)
	if n == 0 {
		return 0
	}
	return sim.Duration(atomic.LoadInt64((*int64)(&h.Sum))) / sim.Duration(n)
}

// Quantile returns an upper bound of the q-quantile (0 < q <= 1): the top of
// the bucket holding it — within 2× of the true value by construction —
// clamped to the largest sample, which no quantile can exceed. The last
// bucket is open-ended, so there the largest sample is the only bound.
func (h *Histogram) Quantile(q float64) sim.Duration {
	n := atomic.LoadUint64(&h.Count)
	if n == 0 || q <= 0 {
		return 0
	}
	target := uint64(q * float64(n))
	if target == 0 {
		target = 1
	}
	largest := h.MaxSample()
	var seen uint64
	for i := 0; i < histBuckets-1; i++ {
		seen += atomic.LoadUint64(&h.Buckets[i])
		if seen >= target {
			// Upper bucket boundary: 2^(i+1) microseconds.
			return min(sim.Duration(int64(1)<<uint(i+1))*sim.Microsecond, largest)
		}
	}
	return largest
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
