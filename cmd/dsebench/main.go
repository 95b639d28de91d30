// Command dsebench regenerates the paper's evaluation tables and figures
// on the simulated cluster and runs the repo's seeded sweeps.
//
// Usage:
//
//	dsebench -table 1            # print paper Table 1 (environments)
//	dsebench -table 2            # print paper Table 2 (virtual cluster)
//	dsebench -fig 5              # regenerate one figure (4..21)
//	dsebench -all                # regenerate every table and figure
//	dsebench -all -quick         # smaller parameter ranges (fast)
//	dsebench -ablation           # design-choice ablations A1..A8
//	dsebench -msgstats           # per-op message traffic, gauss and dct
//	dsebench -latency -quick     # per-op latency tables, four reference workloads
//	dsebench -modes              # consistency-tier ablation: gauss under strong/release/lease
//	dsebench -trace out.trace.json            # traced gauss run, Chrome trace_event
//	dsebench -stress -seed 7     # seeded consistency stress matrix (exit 1 on violation)
//	dsebench -recover -seed 7    # seeded kill-and-recover schedules (exit 1 on failure)
//	dsebench -membership -seed 7 # seeded live join/leave/re-home schedules
//	dsebench -sched              # multi-job scheduler load test: burst + Poisson job streams
//
// Figures print as aligned tables: one row per x value, one column per
// series, exactly the rows/series the paper plots.
//
// Everything but -sched runs on the simulated transport and is a pure
// function of the flags and -seed. golden_test.go compares the output of
// -all -quick, -ablation -quick, -msgstats, -modes and -latency -quick
// exactly against testdata/ (DESIGN.md "What gates what"); -sched is the one
// wall-clock mode. -quick shrinks the figure, ablation, latency and -sched
// parameter ranges; the three seeded sweeps always run their full matrices.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/check/stress"
	"repro/internal/platform"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes results to out and
// diagnostics to errw, and returns the exit status. The golden test drives
// it exactly as main does.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("dsebench", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		fig      = fs.Int("fig", 0, "regenerate one paper figure (4..21)")
		table    = fs.Int("table", 0, "print a paper table (1 or 2)")
		all      = fs.Bool("all", false, "regenerate every table and figure")
		ablation = fs.Bool("ablation", false, "run the design-choice ablation suite")
		msgstats = fs.Bool("msgstats", false, "print per-op message traffic for the reference workloads")
		latency  = fs.Bool("latency", false, "print per-op latency distributions for the reference workloads")
		plot     = fs.Bool("plot", false, "also render figures as ASCII charts")
		quick    = fs.Bool("quick", false, "use reduced parameter ranges (figures, ablations, -latency, -sched; not the seeded sweeps)")
		maxPE    = fs.Int("maxpe", 0, "override the processor sweep upper bound")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		csvDir   = fs.String("csv", "", "also save each regenerated figure as CSV into this directory")
		traceOut = fs.String("trace", "", "run gauss p=4 with span tracing and write Chrome trace_event JSON here")
		stressF  = fs.Bool("stress", false, "run the seeded consistency stress matrix; -seed selects the schedule")
		recoverF = fs.Bool("recover", false, "run seeded kill-and-recover schedules (checkpoint/restart); -seed selects the schedule")
		memberF  = fs.Bool("membership", false, "run seeded live join/leave/re-home schedules (elastic membership); -seed selects the schedule")
		modesF   = fs.Bool("modes", false, "print the consistency-tier ablation: gauss message counts under strong, release and lease modes")
		schedF   = fs.Bool("sched", false, "run the multi-job scheduler load test: thousands of queued jobs, then Poisson arrivals (wall clock)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	sc := bench.FullScale()
	if *quick {
		sc = bench.QuickScale()
	}
	if *maxPE > 0 {
		sc.MaxPE = *maxPE
	}
	sc.Seed = *seed
	p := printer{out: out, plot: *plot, csvDir: *csvDir}

	var err error
	switch {
	case *stressF:
		err = runSweep(out, "stress", *seed)
	case *recoverF:
		err = runSweep(out, "recover", *seed)
	case *memberF:
		err = runSweep(out, "membership", *seed)
	case *schedF:
		start := time.Now()
		var pts []bench.SchedPoint
		if pts, err = bench.SchedSweep(*quick, sc.Seed); err != nil {
			err = fmt.Errorf("scheduler load test: %w", err)
			break
		}
		bench.SchedTable(pts).Fprint(out)
		fmt.Fprintf(out, "(wall clock; regenerated in %v)\n", time.Since(start).Round(time.Millisecond))
	case *modesF:
		start := time.Now()
		var rows []bench.TierMetrics
		if rows, err = bench.ConsistencyTierProfile(platform.SparcSunOS, sc.Seed); err != nil {
			err = fmt.Errorf("consistency tiers: %w", err)
			break
		}
		bench.TierTable(rows).Fprint(out)
		fmt.Fprintf(out, "(regenerated in %v)\n", time.Since(start).Round(time.Millisecond))
	case *traceOut != "":
		err = writeTrace(out, *traceOut, sc)
	case *table == 1:
		bench.Table1().Fprint(out)
	case *table == 2:
		bench.Table2(2 * platform.PhysicalMachines).Fprint(out)
	case *table != 0:
		err = fmt.Errorf("no table %d in the paper (1 or 2)", *table)
	case *msgstats:
		npe := 4
		if *maxPE > 0 {
			npe = *maxPE
		}
		var tables []*trace.Table
		if tables, err = bench.MessageProfile(platform.SparcSunOS, npe, sc.Seed); err != nil {
			err = fmt.Errorf("message profile: %w", err)
		}
		p.tables(tables)
	case *latency:
		var tables []*trace.Table
		if tables, err = bench.LatencyTables(platform.SparcSunOS, sc); err != nil {
			err = fmt.Errorf("latency tables: %w", err)
		}
		p.tables(tables)
	case *ablation:
		var figs []*bench.Figure
		if figs, err = bench.Ablations(sc.MaxPE, sc.Seed); err != nil {
			err = fmt.Errorf("ablations: %w", err)
			break
		}
		for _, f := range figs {
			if err = p.figure(f); err != nil {
				break
			}
			fmt.Fprintln(out)
		}
	case *fig != 0:
		start := time.Now()
		var f *bench.Figure
		if f, err = bench.FigureByNumber(*fig, sc); err != nil {
			err = fmt.Errorf("figure %d: %w", *fig, err)
			break
		}
		err = p.paperFigure(f, start)
	case *all:
		bench.Table1().Fprint(out)
		fmt.Fprintln(out)
		bench.Table2(2 * platform.PhysicalMachines).Fprint(out)
		fmt.Fprintln(out)
		start := time.Now()
		err = bench.AllFigures(sc, func(f *bench.Figure) error {
			defer func() { start = time.Now() }()
			return p.paperFigure(f, start)
		})
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintf(errw, "dsebench: %v\n", err)
		return 1
	}
	return 0
}

// printer renders results to out, mirroring the -plot and -csv flags.
type printer struct {
	out    io.Writer
	plot   bool
	csvDir string
}

func (p printer) tables(tables []*trace.Table) {
	for _, tb := range tables {
		tb.Fprint(p.out)
		fmt.Fprintln(p.out)
	}
}

// figure prints f as a table, then as an ASCII chart and a CSV file when
// asked to.
func (p printer) figure(f *bench.Figure) error {
	f.Table().Fprint(p.out)
	if p.plot {
		fmt.Fprintln(p.out)
		trace.Plot(p.out, "", f.Series, 60, 16)
	}
	if p.csvDir != "" {
		path, err := f.SaveCSV(p.csvDir)
		if err != nil {
			return fmt.Errorf("saving CSV: %w", err)
		}
		fmt.Fprintf(p.out, "(saved %s)\n", path)
	}
	return nil
}

// paperFigure prints a regenerated paper figure with its axes and the wall
// time since start.
func (p printer) paperFigure(f *bench.Figure, start time.Time) error {
	if err := p.figure(f); err != nil {
		return err
	}
	fmt.Fprintf(p.out, "(x: %s, y: %s; regenerated in %v)\n\n", f.XLabel, f.YLabel, time.Since(start).Round(time.Millisecond))
	return nil
}

// writeTrace runs a traced gauss p=4 and exports the Chrome trace.
func writeTrace(out io.Writer, path string, sc bench.Scale) error {
	n := bench.ReferenceGaussN(sc)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	res, err := bench.TraceGauss(platform.SparcSunOS, n, 4, sc.Seed, f)
	if err != nil {
		f.Close()
		return fmt.Errorf("traced run: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace file: %w", err)
	}
	fmt.Fprintf(out, "wrote %s (%d spans, gauss N=%d p=4, elapsed %v)\n", path, len(res.Spans), n, res.Elapsed)
	return nil
}

// runSweep runs one of the seeded sweeps of internal/check/stress — the rows
// TestStressSuites runs at seed 1 — and fails if any row fails its gates.
func runSweep(out io.Writer, name string, seed uint64) error {
	start := time.Now()
	cases := stress.Suite(name, seed)
	ops, failures := 0, 0
	for _, c := range cases {
		res, err := stress.Run(c.Options)
		if err != nil {
			return fmt.Errorf("%s (%v): %w", name, c.Options, err)
		}
		status := "ok"
		if err := c.Verify(res); err != nil {
			status = "FAILED: " + err.Error()
			failures++
		}
		fmt.Fprintf(out, "%-72s %7d ops  %s\n", c.Options, res.History.Len(), status)
		if rec := res.Recovery; rec != nil {
			for _, ev := range rec.Recoveries {
				fmt.Fprintf(out, "    dead=%v coordinator=%d gen=%d epoch=%d detected@%v rollback=%d ops; rerun finished in %v\n",
					ev.DeadPEs, ev.Coordinator, ev.Gen, ev.Epoch, ev.DetectedAt, ev.RollbackOps, res.Elapsed)
			}
			fmt.Fprintf(out, "    snapshot bytes=%d attempts=%d\n", res.SnapshotBytes, rec.Attempts)
		}
		if c.MinEvents > 0 {
			fmt.Fprintf(out, "    %d joins %d leaves %d migrations %d blocks re-homed\n",
				res.Joins, res.Leaves, res.Migrations, res.MigratedBlocks)
		}
		ops += res.History.Len()
	}
	fmt.Fprintf(out, "checked %d operations across %d configurations in %v\n",
		ops, len(cases), time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		return fmt.Errorf("%s FAILED (%d bad configurations); replay with -%s -seed %d", name, failures, name, seed)
	}
	return nil
}
