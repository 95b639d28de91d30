// Command benchmark is the DSE benchmark: five workloads that drive the
// runtime through the public functions of internal/*, each verifying its
// results and asserting from the run's counters that the operations took the
// path the workload claims to time. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// nominalWindow is the window length at the run length BENCHMARK.json fixes;
// counts that are per window (barriers) are scaled from it.
const nominalWindow = 1250 * time.Millisecond

// A run sets the deployment up between setupRepsMin and setupRepsMax times,
// stopping once the set-ups have taken setupBudgetSeconds; setup_s is the
// median. The last set-up is the one the windows then measure.
const (
	setupRepsMin       = 5
	setupRepsMax       = 25
	setupBudgetSeconds = 1.5
)

// watchdog ends a run that hangs (a lost reply would block the closed loop
// for ever) before the driver's own limit does, with a message.
const watchdog = 170 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for detail files; "" writes none
	log      io.Writer
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newRunner(name string) (runner, error) {
	if spec, ok := opSpecs()[name]; ok {
		return newOpRunner(spec), nil
	}
	switch name {
	case "apps_inproc":
		return newAppsRunner(), nil
	case "sim_figures":
		return newSimRunner(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func main() {
	var o options
	var traceFlag, repeat int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 15, "seconds of measurement")
	flag.IntVar(&traceFlag, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.IntVar(&repeat, "repeat", 0, "run N full sets (every workload, or the one named) and print each metric's spread against its bound")
	flag.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for run details and traces")
	flag.Parse()
	o.trace = traceFlag != 0
	o.log = os.Stdout

	if repeat > 0 {
		if err := runRepeat(o, repeat); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s still running after %v, giving up\n", o.workload, watchdog)
		os.Exit(2)
	})
	res, err := run(o)
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run executes one workload once. A result is returned whenever the windows
// ran, even beside an error, so that a verification or path-assertion
// failure still prints what was measured (with "correct": false).
func run(o options) (*result, error) {
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	fmt.Fprintf(o.log, "workload %s  seed %d  seconds %g  trace %v  GOMAXPROCS %d  (one OS process, closed loop)\n",
		o.workload, o.seed, o.seconds, o.trace, procs)
	if o.trace {
		return runTraced(o)
	}
	return runTimed(o)
}

// runTimed is the --trace 0 run: tracing off, end-to-end metrics.
func runTimed(o options) (*result, error) {
	r, err := newRunner(o.workload)
	if err != nil {
		return nil, err
	}
	setups, err := setUp(r, o.seed)
	if err != nil {
		return nil, err
	}
	wins, werr := measureWindows(r, numWindows, time.Duration(o.seconds*float64(time.Second)/numWindows))
	c, serr := r.stop()
	if werr != nil {
		return nil, werr
	}

	res := &result{Metrics: map[string]metricValue{}}
	verdict := tally(o, res, wins, serr)
	vals, spread := timedMetrics(setups, wins)
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}

	printWindows(o.log, r.classes(), wins)
	for c, name := range r.classes() {
		dse, sub := bestRound(wins, c)
		fmt.Fprintf(o.log, "best round: %-10s %12.4f us over substrate %12.4f us\n", name, dse/1e3, sub/1e3)
	}
	fmt.Fprintf(o.log, "set-up times [s]: %.4f\n", setups)
	for _, m := range endToEnd {
		fmt.Fprintf(o.log, "%-16s %14.6g %-6s (per-window values spread %.1f%%)\n", m.name, vals[m.name], m.unit, 100*spread[m.name])
	}
	if c != nil {
		fmt.Fprintf(o.log, "counters: MsgsSent %d  RemoteGM %d  DirectGM %d  RingGM %d  ShardedMsgs %d  core.msgs_per_op %.4f\n",
			c.total.MsgsSent, c.total.RemoteGM, c.total.DirectGM, c.total.RingGM, c.total.ShardedMsgs, gmMsgsPerOp(c))
	}
	if err := writeDetail(o, "run", map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "gomaxprocs": runtime.GOMAXPROCS(0),
		"classes": r.classes(), "windows": windowDetail(wins), "setup_s": setups, "metrics": res.Metrics,
	}); err != nil {
		return res, err
	}
	return res, verdict
}

// tally adds the windows' attempted and failed counts to res, sets
// res.Correct and returns the error the run ends with: a failed stop (path
// assertion, a PE's error) or failed verification.
func tally(o options, res *result, wins []window, stopErrs ...error) error {
	for i := range wins {
		res.Attempted += wins[i].units
		res.Failed += wins[i].failed
	}
	err := errors.Join(stopErrs...)
	if err == nil && res.Failed > 0 {
		err = fmt.Errorf("%s: %d of %d operations failed verification", o.workload, res.Failed, res.Attempted)
	}
	res.Correct = err == nil
	return err
}

// bestRound is class c's latency, and its substrate's, in the run's best
// round: the lowest of the per-round medians on either side. The slowdowns of
// a small shared host are intermittent and only ever add time: a run spends
// anything from none to most of its rounds in a slow phase (gm_tcp reads take
// 12 µs in one phase and 17 to 19 µs in the other), so the median over rounds
// jumps between the phases from run to run, while the best round is in the
// fast phase as long as the run visits it for a tenth of a second. A round's
// median is over thousands of samples, so the minimum over rounds is not an
// outlier hunt.
func bestRound(wins []window, c int) (dse, sub float64) {
	for i := range wins {
		cl := &wins[i].class[c]
		for _, v := range cl.roundNs {
			if v > 0 && (dse == 0 || v < dse) {
				dse = v
			}
		}
		for _, v := range cl.roundSubNs {
			if v > 0 && (sub == 0 || v < sub) {
				sub = v
			}
		}
	}
	return dse, sub
}

// timedMetrics reduces a run to its end-to-end metrics: setup_s is the
// median set-up, overhead_x the primary class's best-round latency over its
// substrate's, mix_overhead_x the geometric mean of that ratio over all
// classes. spread is the distance between the quartiles of a metric's
// per-window values as a share of their median, for the report.
func timedMetrics(setups []float64, wins []window) (vals, spread map[string]float64) {
	vals = map[string]float64{"setup_s": median(setups)}
	spread = map[string]float64{"setup_s": iqrShare(setups)}
	if len(wins) == 0 {
		return vals, spread
	}
	var ratios []float64
	for c := range wins[0].class {
		if dse, sub := bestRound(wins, c); dse > 0 && sub > 0 {
			ratios = append(ratios, dse/sub)
			if c == 0 {
				vals["overhead_x"] = dse / sub
			}
		}
	}
	vals["mix_overhead_x"] = geomean(ratios)
	var perWindow, perWindowMix []float64
	for i := range wins {
		perWindow = append(perWindow, wins[i].overhead(0))
		perWindowMix = append(perWindowMix, wins[i].mixOverhead())
	}
	spread["overhead_x"], spread["mix_overhead_x"] = iqrShare(perWindow), iqrShare(perWindowMix)
	return vals, spread
}

// setUp starts r several times, stopping it again after all but the last,
// and returns how long each start took. A cheap set-up is repeated more
// often, because a short time is relatively noisier.
func setUp(r runner, seed uint64) ([]float64, error) {
	var setups []float64
	total := 0.0
	for {
		t0 := now()
		if err := r.start(seed, false); err != nil {
			return nil, err
		}
		s := float64(now()-t0) / 1e9
		setups = append(setups, s)
		total += s
		if len(setups) >= setupRepsMax || (len(setups) >= setupRepsMin && total >= setupBudgetSeconds) {
			return setups, nil
		}
		if _, err := r.stop(); err != nil {
			return nil, err
		}
	}
}

// measureWindows runs n windows, collecting garbage between them so that no
// window pays for another's allocations.
func measureWindows(r runner, n int, d time.Duration) ([]window, error) {
	wins := make([]window, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		w, err := r.window(d)
		if err != nil {
			return wins, err
		}
		wins = append(wins, w)
	}
	return wins, nil
}

func printWindows(out io.Writer, classes []string, wins []window) {
	fmt.Fprintf(out, "%-4s %10s %10s", "win", "units", "unit_us")
	for _, c := range classes {
		fmt.Fprintf(out, " %12s %8s", c+"_p50", "x_sub")
	}
	fmt.Fprintln(out)
	for i := range wins {
		w := &wins[i]
		fmt.Fprintf(out, "%-4d %10d %10.4f", i, w.units, w.unitNs()/1e3)
		for c := range w.class {
			fmt.Fprintf(out, " %12.4f %8.3f", w.class[c].p50Ns/1e3, w.overhead(c))
		}
		fmt.Fprintln(out)
	}
}

// windowDetail is the per-window record kept in the detail file: every
// class's DSE mean beside its substrate and their ratio, so a reader can see
// the host's drift move both and cancel in the ratio.
func windowDetail(wins []window) []map[string]any {
	out := make([]map[string]any, len(wins))
	for i := range wins {
		w := &wins[i]
		cls := make([]map[string]any, len(w.class))
		for c := range w.class {
			cls[c] = map[string]any{
				"n": w.class[c].n, "mean_ns": w.class[c].meanNs, "p50_ns": w.class[c].p50Ns,
				"p99_ns": w.class[c].p99Ns, "substrate_ns": w.class[c].subNs, "overhead_x": w.overhead(c),
				"round_p50_ns": w.class[c].roundNs, "round_substrate_ns": w.class[c].roundSubNs,
			}
		}
		out[i] = map[string]any{"units": w.units, "failed": w.failed, "unit_ns": w.unitNs(),
			"mix_overhead_x": w.mixOverhead(), "classes": cls}
	}
	return out
}

func writeDetail(o options, kind string, v any) error {
	if o.out == "" {
		return nil
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("detail file: %w", err)
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("detail file: %w", err)
	}
	path := filepath.Join(o.out, kind+"-"+o.workload+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("detail file: %w", err)
	}
	fmt.Fprintf(o.log, "details written to %s\n", path)
	return nil
}
