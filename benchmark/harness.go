package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/trace"
)

// numWindows is how many windows one run is cut into. Garbage is collected
// and samples are sorted between windows, never inside one; the report
// prints every window, so a burst of noise from the shared host can be seen
// to spoil some and not others.
const numWindows = 12

var epoch = time.Now()

// now is the benchmark's clock: monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

// --- order statistics ---

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the q-quantile of sorted s (0 for an empty slice).
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// iqrShare is the spread the report prints: (q3-q1)/median.
func iqrShare(v []float64) float64 {
	s := sortedCopy(v)
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / m
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// --- latency samples ---

// samples accumulates one class's latencies over one window. A sample times
// per operations together (1, or a batch where one operation is shorter than
// the clock); quantiles divide by per on the way out, so a batch keeps
// sub-nanosecond resolution. The buffer is allocated before the first window
// and reused; once it is full the sum and count keep running and only the
// quantiles stop seeing new samples.
type samples struct {
	buf   []int32
	per   int64
	n     int
	sum   int64
	cnt   int64
	marks []int // sample counts at the ends of the window's rounds
}

func newSamples(capacity int, per int) *samples {
	return &samples{buf: make([]int32, capacity), per: int64(per)}
}

// add records one sample: totalNs spent on per operations.
func (s *samples) add(totalNs int64) {
	s.sum += totalNs
	s.cnt += s.per
	if s.n < len(s.buf) {
		if totalNs > math.MaxInt32 {
			totalNs = math.MaxInt32
		}
		s.buf[s.n] = int32(totalNs)
		s.n++
	}
}

func (s *samples) reset() { s.n, s.sum, s.cnt, s.marks = 0, 0, 0, s.marks[:0] }

// mark ends a round: the samples added since the previous mark are its own.
func (s *samples) mark() { s.marks = append(s.marks, s.n) }

// roundMedians returns the per-operation median of every marked round, 0 for
// a round without samples. Like quantiles it sorts in place, round by round,
// so call it between windows and before quantiles.
func (s *samples) roundMedians() []float64 {
	out := make([]float64, len(s.marks))
	start := 0
	for i, end := range s.marks {
		if b := s.buf[start:end]; len(b) > 0 {
			slices.Sort(b)
			out[i] = float64(b[(len(b)-1)/2]) / float64(s.per)
		}
		start = end
	}
	return out
}

// mean is the mean latency of one operation.
func (s *samples) mean() float64 {
	if s.cnt == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.cnt)
}

// quantiles sorts the retained samples in place (call between windows, never
// inside a timed loop) and returns the requested per-operation quantiles.
func (s *samples) quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if s.n == 0 {
		return out
	}
	b := s.buf[:s.n]
	slices.Sort(b)
	for i, q := range qs {
		out[i] = float64(b[int(q*float64(s.n-1))]) / float64(s.per)
	}
	return out
}

// --- what one window measured ---

// classStat is one class of work inside one window: an operation kind of the
// op-level workloads, an application of apps_inproc, a figure family of
// sim_figures.
type classStat struct {
	n      int64   // units of this class completed
	meanNs float64 // mean latency of one unit through DSE
	p50Ns  float64
	p99Ns  float64
	subNs  float64 // median of the bare substrate doing the same unit, same window
	// The same two medians round by round (a window of the op-level
	// workloads is cut into rounds; elsewhere a window is one round); 0 where
	// a round had no sample of the class.
	roundNs, roundSubNs []float64
}

// window is what a runner reports for one window.
type window struct {
	class     []classStat // indexed like runner.classes()
	units     int64       // units of work attempted in the DSE slice
	failed    int64       // of which errored, panicked or returned a wrong value
	dseWallNs int64       // wall time of the DSE slice
	// Deltas over the DSE slice, for the client.* per-layer rows.
	mallocs  uint64
	syscalls uint64
	cpuNs    int64
}

func (w *window) unitNs() float64 {
	if w.units == 0 {
		return 0
	}
	return float64(w.dseWallNs) / float64(w.units)
}

// overhead is class c's median DSE latency as a multiple of its substrate's
// median. Medians, not means: the tail of either side is mostly the shared
// host's doing and does not repeat from run to run.
func (w *window) overhead(c int) float64 {
	if w.class[c].subNs == 0 {
		return 0
	}
	return w.class[c].p50Ns / w.class[c].subNs
}

// mixOverhead is the geometric mean of every class's overhead, so each class
// weighs the same however rarely the mix issues it.
func (w *window) mixOverhead() float64 {
	var xs []float64
	for c := range w.class {
		if w.class[c].n > 0 {
			xs = append(xs, w.overhead(c))
		}
	}
	return geomean(xs)
}

// counters is what a runner knows once its clusters are torn down.
type counters struct {
	total trace.PEStats      // summed over every cluster the runner ran
	gmOps int64              // remote global-memory operations the client issued
	extra map[string]float64 // per-layer rows only this workload knows
	spans []trace.Span       // what a traced deployment recorded (its last cluster's)
	// onewayMetric names the per-layer row holding one message's one-way
	// time on this workload's transport ("" under simulation, where the
	// counters are virtual time); core.handoff_us is computed from it.
	onewayMetric string
}

// runner is one workload. start builds the deployment and warms it up (the
// caller times it for setup_s); window measures one window of the given
// length; stop tears down, checks the path assertions and returns counters.
type runner interface {
	classes() []string // primary class first
	start(seed uint64, traced bool) error
	window(d time.Duration) (window, error)
	stop() (*counters, error)
}

// --- process-level gauges ---

// gauges brackets the DSE slices of a window with the process-wide gauges
// reported as client.allocs_per_op, client.syscalls_per_op and
// client.cpu_us_per_op, and with the wall clock.
type gauges struct {
	t0       int64
	mallocs  uint64
	syscalls uint64
	cpuNs    int64
}

func (g *gauges) begin() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	*g = gauges{mallocs: ms.Mallocs, syscalls: ioSyscalls(), cpuNs: cpuTimeNs(), t0: now()}
}

// end adds what the slice since begin used to w.
func (g *gauges) end(w *window) {
	w.dseWallNs += now() - g.t0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mallocs += ms.Mallocs - g.mallocs
	w.syscalls += ioSyscalls() - g.syscalls
	w.cpuNs += cpuTimeNs() - g.cpuNs
}

// ioSyscalls is syscr+syscw of /proc/self/io: the read- and write-family
// system calls this process has made. 0 where /proc does not offer it.
func ioSyscalls() uint64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	return procField(b, "syscr:") + procField(b, "syscw:")
}

// peakRSSMB is VmHWM of /proc/self/status in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	return float64(procField(b, "VmHWM:")) / 1024
}

// procField returns the first number after key in a /proc text file.
func procField(b []byte, key string) uint64 {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0
	}
	f := bytes.Fields(b[i+len(key):])
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseUint(string(f[0]), 10, 64) // malformed /proc line reads as 0, like a missing one
	return v
}

func cpuTimeNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
