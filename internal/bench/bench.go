// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section (Table 1-2, Figures 4-21) by
// running the four applications on the simulated cluster across the three
// platforms and printing the same rows/series the paper plots. The
// per-experiment parameter choices are documented in DESIGN.md §4 and
// EXPERIMENTS.md.
package bench

import (
	"fmt"

	"repro/internal/apps/dct"
	"repro/internal/apps/gauss"
	"repro/internal/apps/knight"
	"repro/internal/apps/othello"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Scale sets experiment sizes. Full reproduces the paper's ranges; Quick
// shrinks them for tests and smoke runs.
type Scale struct {
	MaxPE         int   // processors swept 1..MaxPE
	GaussNs       []int // system dimensions
	DCTImage      int   // image edge
	DCTBlocks     []int // block edges
	OthelloDepths []int
	KnightJobs    []int
	Seed          uint64
}

// FullScale reproduces the paper's parameter ranges.
func FullScale() Scale {
	return Scale{
		MaxPE:         10,
		GaussNs:       []int{100, 200, 300, 400, 500, 600, 700, 800, 900},
		DCTImage:      256,
		DCTBlocks:     []int{4, 8, 16, 32},
		OthelloDepths: []int{3, 4, 5, 6, 7, 8},
		KnightJobs:    []int{2, 8, 16, 64},
		Seed:          1,
	}
}

// QuickScale shrinks everything for fast smoke runs and tests.
func QuickScale() Scale {
	return Scale{
		MaxPE:         6,
		GaussNs:       []int{60, 120, 240},
		DCTImage:      64,
		DCTBlocks:     []int{4, 8, 16},
		OthelloDepths: []int{3, 4, 5},
		KnightJobs:    []int{2, 8, 16},
		Seed:          1,
	}
}

// Figure is one reproduced paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []trace.Series
}

// Table renders the figure as an aligned text table.
func (f *Figure) Table() *trace.Table {
	return trace.SeriesTable(fmt.Sprintf("%s: %s", f.ID, f.Title), f.XLabel, "%.4g", f.Series)
}

// gaussBlockWords sizes the DSM blocks for the numeric solver: 2 KiB
// transfer units, page-like granularity for vector exchange.
const gaussBlockWords = 256

// app is one application program as the harness runs it: every PE runs it,
// and what it returns on PE 0 is the time the experiment plots.
type app func(pe *core.PE) (sim.Duration, error)

// run executes a on the cluster cfg describes and returns what a returned on
// PE 0, with the run's result. It fails on a cluster error or on the first
// PE error. Every simulated experiment of the harness runs through it.
func run(cfg core.Config, a app) (d sim.Duration, res *core.Result, err error) {
	res, err = core.Run(cfg, func(pe *core.PE) error {
		v, err := a(pe)
		if pe.ID() == 0 {
			d = v
		}
		return err
	})
	if err == nil {
		err = res.FirstErr()
	}
	if err != nil {
		return 0, nil, err
	}
	return d, res, nil
}

// The four applications, each written once: the program every PE runs and
// the elapsed time it reports.

func gaussApp(p gauss.Params) app {
	return func(pe *core.PE) (sim.Duration, error) {
		r, err := gauss.Parallel(pe, p)
		if err != nil {
			return 0, err
		}
		return r.Elapsed, nil
	}
}

func dctApp(p dct.Params) app {
	return func(pe *core.PE) (sim.Duration, error) {
		r, err := dct.Parallel(pe, p)
		if err != nil {
			return 0, err
		}
		return r.Elapsed, nil
	}
}

func othelloApp(p othello.Params) app {
	return func(pe *core.PE) (sim.Duration, error) {
		r, err := othello.Parallel(pe, p)
		if err != nil {
			return 0, err
		}
		return r.Elapsed, nil
	}
}

func knightApp(p knight.Params) app {
	return func(pe *core.PE) (sim.Duration, error) {
		r, err := knight.Parallel(pe, p)
		if err != nil {
			return 0, err
		}
		return r.Elapsed, nil
	}
}

// processors returns the swept processor counts 1..max.
func processors(max int) []int {
	ps := make([]int, max)
	for i := range ps {
		ps[i] = i + 1
	}
	return ps
}

// curve builds the series label: one point (x, y(x)) per x in xs.
func curve[X int | float64](label string, xs []X, y func(x X) (float64, error)) (trace.Series, error) {
	s := trace.Series{Label: label}
	for _, x := range xs {
		v, err := y(x)
		if err != nil {
			return s, fmt.Errorf("%s at %v: %w", label, x, err)
		}
		s.Append(float64(x), v)
	}
	return s, nil
}

// variant is one curve of a sweep over processor counts: its label, the
// cluster it runs on (NumPE is set per point) and its program.
type variant struct {
	label string
	cfg   core.Config
	app   app
}

// The y transforms of a sweep: d is a point's time, base the variant's time
// at p = 1.
func seconds(d, _ sim.Duration) float64    { return d.Seconds() }
func speedup(d, base sim.Duration) float64 { return float64(base) / float64(d) }

// sweep runs every variant at p = 1..maxPE and adds its curve of y to fig.
func sweep(fig *Figure, maxPE int, y func(d, base sim.Duration) float64, vs ...variant) (*Figure, error) {
	for _, v := range vs {
		var base sim.Duration
		s, err := curve(v.label, processors(maxPE), func(p int) (float64, error) {
			v.cfg.NumPE = p
			d, _, err := run(v.cfg, v.app)
			if p == 1 {
				base = d
			}
			return y(d, base), err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fig.Title, err)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// --- Gauss-Seidel: Figures 4-9 ---

// GaussFigures reproduces the platform's execution-time figure (x = system
// dimension, one series per processor count) and speed-up figure (x =
// processors, one series per dimension): Figures 4/5 (SunOS), 6/7 (AIX),
// 8/9 (Linux).
func GaussFigures(pl *platform.Platform, sc Scale) (timeFig, speedupFig *Figure, err error) {
	timeFig = &Figure{
		Title:  fmt.Sprintf("Gauss-Seidel execution time, %s", pl),
		XLabel: "N-dimension", YLabel: "execution time [s]",
	}
	speedupFig = &Figure{
		Title:  fmt.Sprintf("Gauss-Seidel speed-up, %s", pl),
		XLabel: "number of processors", YLabel: "speed improvement ratio",
	}
	ps := processors(sc.MaxPE)
	elapsed := map[[2]int]sim.Duration{} // by {p, N}; N < p is not run and plots as 0 s
	for _, p := range ps {
		s, err := curve(fmt.Sprintf("%dproc", p), sc.GaussNs, func(n int) (float64, error) {
			if n < p {
				return 0, nil
			}
			d, _, err := run(core.Config{NumPE: p, Platform: pl, Seed: sc.Seed, GMBlockWords: gaussBlockWords},
				gaussApp(gauss.Params{N: n, Seed: sc.Seed}))
			elapsed[[2]int{p, n}] = d
			return d.Seconds(), err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("gauss %s: %w", pl.Numeric, err)
		}
		timeFig.Series = append(timeFig.Series, s)
	}
	for _, n := range sc.GaussNs {
		s, _ := curve(fmt.Sprintf("N=%d", n), ps[:min(n, len(ps))], func(p int) (float64, error) {
			return speedup(elapsed[[2]int{p, n}], elapsed[[2]int{1, n}]), nil
		})
		speedupFig.Series = append(speedupFig.Series, s)
	}
	return timeFig, speedupFig, nil
}

// --- DCT-II: Figures 10-15 ---

// DCTFigures reproduces the platform's DCT-II execution-time and speed-up
// figures (x = processors, one series per block size, 50% compression):
// Figures 10/11 (SunOS), 12/13 (AIX), 14/15 (Linux).
func DCTFigures(pl *platform.Platform, sc Scale) (timeFig, speedupFig *Figure, err error) {
	timeFig = &Figure{
		Title:  fmt.Sprintf("DCT-II execution time (%dx%d image, 50%% rate), %s", sc.DCTImage, sc.DCTImage, pl),
		XLabel: "number of processors", YLabel: "execution time [s]",
	}
	speedupFig = &Figure{
		Title:  fmt.Sprintf("DCT-II speed-up (%dx%d image, 50%% rate), %s", sc.DCTImage, sc.DCTImage, pl),
		XLabel: "number of processors", YLabel: "speed improvement ratio",
	}
	ps := processors(sc.MaxPE)
	for _, b := range sc.DCTBlocks {
		label := fmt.Sprintf("%dx%d", b, b)
		var elapsed []sim.Duration // by p-1
		ts, err := curve(label, ps, func(p int) (float64, error) {
			d, _, err := run(core.Config{NumPE: p, Platform: pl, Seed: sc.Seed},
				dctApp(dct.Params{ImageN: sc.DCTImage, Block: b, Rate: 0.5, Seed: sc.Seed}))
			elapsed = append(elapsed, d)
			return d.Seconds(), err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("dct %s: %w", pl.Numeric, err)
		}
		ss, _ := curve(label, ps, func(p int) (float64, error) { return speedup(elapsed[p-1], elapsed[0]), nil })
		timeFig.Series = append(timeFig.Series, ts)
		speedupFig.Series = append(speedupFig.Series, ss)
	}
	return timeFig, speedupFig, nil
}

// --- Othello: Figures 16-18 ---

// OthelloFigure reproduces the platform's Othello figure (x = processors,
// one speed-up series per search depth): Figures 16 (SunOS), 17 (AIX),
// 18 (Linux).
func OthelloFigure(pl *platform.Platform, sc Scale) (*Figure, error) {
	var vs []variant
	for _, depth := range sc.OthelloDepths {
		vs = append(vs, variant{fmt.Sprintf("Depth%d", depth), core.Config{Platform: pl, Seed: sc.Seed},
			othelloApp(othello.Params{Depth: depth})})
	}
	return sweep(&Figure{
		Title:  fmt.Sprintf("Othello game speed-up by search depth, %s", pl),
		XLabel: "number of processors", YLabel: "execution improvement ratio",
	}, sc.MaxPE, speedup, vs...)
}

// --- Knight's Tour: Figures 19-21 ---

// KnightFigure reproduces the platform's Knight's-Tour figure (x =
// processors, one execution-time series per job count, 5x5 board):
// Figures 19 (SunOS), 20 (AIX), 21 (Linux).
func KnightFigure(pl *platform.Platform, sc Scale) (*Figure, error) {
	var vs []variant
	for _, jobs := range sc.KnightJobs {
		vs = append(vs, variant{fmt.Sprintf("%d_Jobs", jobs), core.Config{Platform: pl, Seed: sc.Seed},
			knightApp(knight.Params{BoardN: 5, Jobs: jobs})})
	}
	return sweep(&Figure{
		Title:  fmt.Sprintf("Knight's Tour execution time by job count (5x5), %s", pl),
		XLabel: "number of processors", YLabel: "execution time [s]",
	}, sc.MaxPE, seconds, vs...)
}

// --- Tables ---

// Table1 reproduces paper Table 1: the experiment environments.
func Table1() *trace.Table {
	t := &trace.Table{
		Title:  "Table 1: Experiments environments",
		Header: []string{"Machine", "OS", "CPU MHz", "ops/s", "syscall", "proto/msg", "net"},
	}
	for _, pl := range platform.All() {
		t.AddRow(pl.Name, pl.OS,
			fmt.Sprintf("%.0f", pl.CPUMHz),
			fmt.Sprintf("%.0fM", pl.OpsPerSec/1e6),
			pl.SyscallOverhead.String(),
			pl.ProtoPerMessage.String(),
			fmt.Sprintf("%d Mbps shared Ethernet", pl.NetBandwidthBps/1_000_000))
	}
	return t
}

// Table2 reproduces paper Table 2: how many DSE kernels each of the six
// physical machines hosts as the requested processor count grows.
func Table2(maxProcs int) *trace.Table {
	t := &trace.Table{
		Title:  "Table 2: Virtual cluster construction on 6 machines",
		Header: []string{"processors", "machines used", "max kernels/machine", "mean kernels/machine"},
	}
	for _, r := range platform.Table2(maxProcs) {
		t.AddRow(
			fmt.Sprintf("%d", r.Processors),
			fmt.Sprintf("%d", r.MachinesUsed),
			fmt.Sprintf("%d", r.MaxPerMachine),
			fmt.Sprintf("%.2f", r.MeanPerMachine))
	}
	return t
}

// platformForFigure maps a paper figure number to its platform.
func platformForFigure(n int) *platform.Platform {
	switch {
	case n == 4 || n == 5 || n == 10 || n == 11 || n == 16 || n == 19:
		return platform.SparcSunOS
	case n == 6 || n == 7 || n == 12 || n == 13 || n == 17 || n == 20:
		return platform.RS6000AIX
	default:
		return platform.PentiumIILinux
	}
}

// figureSweep runs the sweep that produces paper figure n and returns every
// figure that sweep yields, numbered from first: a gauss or dct sweep gives
// the execution-time figure and the speed-up figure after it, othello and
// knight one figure each.
func figureSweep(n int, sc Scale) (first int, figs []*Figure, err error) {
	pl := platformForFigure(n)
	first = n
	switch {
	case n >= 4 && n <= 9:
		first = n &^ 1
		figs = make([]*Figure, 2)
		figs[0], figs[1], err = GaussFigures(pl, sc)
	case n >= 10 && n <= 15:
		first = n &^ 1
		figs = make([]*Figure, 2)
		figs[0], figs[1], err = DCTFigures(pl, sc)
	case n >= 16 && n <= 18:
		figs = make([]*Figure, 1)
		figs[0], err = OthelloFigure(pl, sc)
	case n >= 19 && n <= 21:
		figs = make([]*Figure, 1)
		figs[0], err = KnightFigure(pl, sc)
	default:
		err = fmt.Errorf("bench: no figure %d in the paper's evaluation (4..21)", n)
	}
	if err != nil {
		return 0, nil, err
	}
	for i, f := range figs {
		f.ID = fmt.Sprintf("Figure %d", first+i)
	}
	return first, figs, nil
}

// FigureByNumber regenerates paper figure n (4..21).
func FigureByNumber(n int, sc Scale) (*Figure, error) {
	first, figs, err := figureSweep(n, sc)
	if err != nil {
		return nil, err
	}
	return figs[n-first], nil
}

// AllFigures regenerates every evaluation figure in paper order, running
// each sweep once, and hands each figure to emit as soon as its sweep is
// done.
func AllFigures(sc Scale, emit func(*Figure) error) error {
	nums := AllFigureNumbers()
	for i := 0; i < len(nums); {
		_, figs, err := figureSweep(nums[i], sc)
		if err != nil {
			return fmt.Errorf("figure %d: %w", nums[i], err)
		}
		for _, f := range figs {
			if err := emit(f); err != nil {
				return err
			}
		}
		i += len(figs)
	}
	return nil
}

// AllFigureNumbers lists the paper's evaluation figures.
func AllFigureNumbers() []int {
	return []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}
}
