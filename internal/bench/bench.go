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

// runClean executes body on the cluster cfg describes and fails on a cluster
// error or on the first PE error.
func runClean(cfg core.Config, body core.Program) (*core.Result, error) {
	res, err := core.Run(cfg, body)
	if err != nil {
		return nil, err
	}
	if err := res.FirstErr(); err != nil {
		return nil, err
	}
	return res, nil
}

// runParallel executes body on a simulated cluster and returns PE 0's
// reported app-level elapsed time.
func runParallel(pl *platform.Platform, npe int, seed uint64, blockWords int,
	body func(pe *core.PE) (sim.Duration, error)) (sim.Duration, error) {
	var elapsed sim.Duration
	_, err := runClean(core.Config{
		NumPE:        npe,
		Platform:     pl,
		Seed:         seed,
		GMBlockWords: blockWords,
	}, func(pe *core.PE) error {
		d, err := body(pe)
		if err != nil {
			return err
		}
		if pe.ID() == 0 {
			elapsed = d
		}
		return nil
	})
	return elapsed, err
}

// processors returns the swept processor counts 1..max.
func processors(max int) []int {
	ps := make([]int, max)
	for i := range ps {
		ps[i] = i + 1
	}
	return ps
}

// --- Gauss-Seidel: Figures 4-9 ---

// gaussElapsed times one (platform, N, p) cell.
func gaussElapsed(pl *platform.Platform, n, npe int, seed uint64) (sim.Duration, error) {
	return runParallel(pl, npe, seed, gaussBlockWords, func(pe *core.PE) (sim.Duration, error) {
		r, err := gauss.Parallel(pe, gauss.Params{N: n, Seed: seed})
		if err != nil {
			return 0, err
		}
		return r.Elapsed, nil
	})
}

// GaussFigures reproduces the platform's execution-time figure (x = system
// dimension, one series per processor count) and speed-up figure (x =
// processors, one series per dimension): Figures 4/5 (SunOS), 6/7 (AIX),
// 8/9 (Linux).
func GaussFigures(pl *platform.Platform, sc Scale) (timeFig, speedupFig *Figure, err error) {
	ps := processors(sc.MaxPE)
	// elapsed[pi][ni]
	elapsed := make([][]sim.Duration, len(ps))
	for pi, p := range ps {
		elapsed[pi] = make([]sim.Duration, len(sc.GaussNs))
		for ni, n := range sc.GaussNs {
			if n < p {
				continue
			}
			d, err := gaussElapsed(pl, n, p, sc.Seed)
			if err != nil {
				return nil, nil, fmt.Errorf("gauss %s N=%d p=%d: %w", pl.Numeric, n, p, err)
			}
			elapsed[pi][ni] = d
		}
	}
	timeFig = &Figure{
		Title:  fmt.Sprintf("Gauss-Seidel execution time, %s", pl),
		XLabel: "N-dimension", YLabel: "execution time [s]",
	}
	for pi, p := range ps {
		s := trace.Series{Label: fmt.Sprintf("%dproc", p)}
		for ni, n := range sc.GaussNs {
			s.Append(float64(n), elapsed[pi][ni].Seconds())
		}
		timeFig.Series = append(timeFig.Series, s)
	}
	speedupFig = &Figure{
		Title:  fmt.Sprintf("Gauss-Seidel speed-up, %s", pl),
		XLabel: "number of processors", YLabel: "speed improvement ratio",
	}
	for ni, n := range sc.GaussNs {
		s := trace.Series{Label: fmt.Sprintf("N=%d", n)}
		for pi, p := range ps {
			if elapsed[pi][ni] == 0 {
				continue
			}
			s.Append(float64(p), float64(elapsed[0][ni])/float64(elapsed[pi][ni]))
		}
		speedupFig.Series = append(speedupFig.Series, s)
	}
	return timeFig, speedupFig, nil
}

// --- DCT-II: Figures 10-15 ---

func dctElapsed(pl *platform.Platform, image, block, npe int, seed uint64) (sim.Duration, error) {
	return runParallel(pl, npe, seed, 0, func(pe *core.PE) (sim.Duration, error) {
		r, err := dct.Parallel(pe, dct.Params{ImageN: image, Block: block, Rate: 0.5, Seed: seed})
		if err != nil {
			return 0, err
		}
		return r.Elapsed, nil
	})
}

// DCTFigures reproduces the platform's DCT-II execution-time and speed-up
// figures (x = processors, one series per block size, 50% compression):
// Figures 10/11 (SunOS), 12/13 (AIX), 14/15 (Linux).
func DCTFigures(pl *platform.Platform, sc Scale) (timeFig, speedupFig *Figure, err error) {
	ps := processors(sc.MaxPE)
	timeFig = &Figure{
		Title:  fmt.Sprintf("DCT-II execution time (%dx%d image, 50%% rate), %s", sc.DCTImage, sc.DCTImage, pl),
		XLabel: "number of processors", YLabel: "execution time [s]",
	}
	speedupFig = &Figure{
		Title:  fmt.Sprintf("DCT-II speed-up (%dx%d image, 50%% rate), %s", sc.DCTImage, sc.DCTImage, pl),
		XLabel: "number of processors", YLabel: "speed improvement ratio",
	}
	for _, b := range sc.DCTBlocks {
		ts := trace.Series{Label: fmt.Sprintf("%dx%d", b, b)}
		ss := trace.Series{Label: fmt.Sprintf("%dx%d", b, b)}
		var base sim.Duration
		for _, p := range ps {
			d, err := dctElapsed(pl, sc.DCTImage, b, p, sc.Seed)
			if err != nil {
				return nil, nil, fmt.Errorf("dct %s B=%d p=%d: %w", pl.Numeric, b, p, err)
			}
			if p == 1 {
				base = d
			}
			ts.Append(float64(p), d.Seconds())
			ss.Append(float64(p), float64(base)/float64(d))
		}
		timeFig.Series = append(timeFig.Series, ts)
		speedupFig.Series = append(speedupFig.Series, ss)
	}
	return timeFig, speedupFig, nil
}

// --- Othello: Figures 16-18 ---

func othelloElapsed(pl *platform.Platform, depth, npe int, seed uint64) (sim.Duration, error) {
	return runParallel(pl, npe, seed, 0, func(pe *core.PE) (sim.Duration, error) {
		r, err := othello.Parallel(pe, othello.Params{Depth: depth})
		if err != nil {
			return 0, err
		}
		return r.Elapsed, nil
	})
}

// OthelloFigure reproduces the platform's Othello figure (x = processors,
// one speed-up series per search depth): Figures 16 (SunOS), 17 (AIX),
// 18 (Linux).
func OthelloFigure(pl *platform.Platform, sc Scale) (*Figure, error) {
	ps := processors(sc.MaxPE)
	fig := &Figure{
		Title:  fmt.Sprintf("Othello game speed-up by search depth, %s", pl),
		XLabel: "number of processors", YLabel: "execution improvement ratio",
	}
	for _, depth := range sc.OthelloDepths {
		s := trace.Series{Label: fmt.Sprintf("Depth%d", depth)}
		var base sim.Duration
		for _, p := range ps {
			d, err := othelloElapsed(pl, depth, p, sc.Seed)
			if err != nil {
				return nil, fmt.Errorf("othello %s depth=%d p=%d: %w", pl.Numeric, depth, p, err)
			}
			if p == 1 {
				base = d
			}
			s.Append(float64(p), float64(base)/float64(d))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// --- Knight's Tour: Figures 19-21 ---

func knightElapsed(pl *platform.Platform, jobs, npe int, seed uint64) (sim.Duration, error) {
	return runParallel(pl, npe, seed, 0, func(pe *core.PE) (sim.Duration, error) {
		r, err := knight.Parallel(pe, knight.Params{BoardN: 5, Jobs: jobs})
		if err != nil {
			return 0, err
		}
		return r.Elapsed, nil
	})
}

// KnightFigure reproduces the platform's Knight's-Tour figure (x =
// processors, one execution-time series per job count, 5x5 board):
// Figures 19 (SunOS), 20 (AIX), 21 (Linux).
func KnightFigure(pl *platform.Platform, sc Scale) (*Figure, error) {
	ps := processors(sc.MaxPE)
	fig := &Figure{
		Title:  fmt.Sprintf("Knight's Tour execution time by job count (5x5), %s", pl),
		XLabel: "number of processors", YLabel: "execution time [s]",
	}
	for _, jobs := range sc.KnightJobs {
		s := trace.Series{Label: fmt.Sprintf("%d_Jobs", jobs)}
		for _, p := range ps {
			d, err := knightElapsed(pl, jobs, p, sc.Seed)
			if err != nil {
				return nil, fmt.Errorf("knight %s jobs=%d p=%d: %w", pl.Numeric, jobs, p, err)
			}
			s.Append(float64(p), d.Seconds())
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
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
