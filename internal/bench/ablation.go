package bench

import (
	"fmt"

	"repro/internal/apps/dct"
	"repro/internal/apps/gauss"
	"repro/internal/core"
	"repro/internal/gmem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file holds the ablation experiments DESIGN.md §5 calls out: each
// isolates one design choice of the runtime and shows its effect on a
// paper workload (or a focused synthetic one). They are not paper figures;
// they justify the reproduction's structure.

// tableWords sizes the shared table A1 and A7 read.
const tableWords = 96

// tableApp is the program A1 and A7 time: every PE reads the whole shared
// table rounds times, with a barrier after each round. With update, PE 0
// fills the table first and rewrites one word of it per round.
func tableApp(rounds int, update bool) app {
	return func(pe *core.PE) (sim.Duration, error) {
		table := core.AllocArray[int64](pe, tableWords)
		if update && pe.ID() == 0 {
			for i := 0; i < tableWords; i++ {
				if err := table.Store(i, int64(i)); err != nil {
					return 0, err
				}
			}
		}
		pe.Barrier()
		start := pe.Now()
		for r := 0; r < rounds; r++ {
			for i := 0; i < tableWords; i++ {
				v, err := table.Load(i)
				if err != nil {
					return 0, err
				}
				if v < 0 {
					return 0, fmt.Errorf("corrupt table: %d", v)
				}
			}
			if update && pe.ID() == 0 {
				if err := table.Store(r%tableWords, int64(r)); err != nil {
					return 0, err
				}
			}
			pe.Barrier()
		}
		return pe.Now() - start, nil
	}
}

// AblationLease compares the plain home-based DSM against read leases (the
// whole program in gmem.ModeLease) on a read-mostly shared table: every PE
// repeatedly reads a table of shared words that PE 0 occasionally updates.
// A lease turns the re-reads of a block into local hits until the next
// barrier drops it.
func AblationLease(pl *platform.Platform, maxPE int, seed uint64) (*Figure, error) {
	table := tableApp(12, true)
	return sweep(&Figure{
		ID:     "Ablation A1",
		Title:  fmt.Sprintf("home-based DSM vs read leases (read-mostly table), %s", pl),
		XLabel: "number of processors", YLabel: "execution time [s]",
	}, maxPE, seconds,
		variant{"home-based", core.Config{Platform: pl, Seed: seed, GMDefaultMode: gmem.ModeStrong}, table},
		variant{"lease", core.Config{Platform: pl, Seed: seed, GMDefaultMode: gmem.ModeLease}, table})
}

// AblationBarrier compares the central barrier manager against the
// distributed combining tree: time for a burst of back-to-back barriers.
func AblationBarrier(pl *platform.Platform, maxPE int, seed uint64) (*Figure, error) {
	const rounds = 20
	barriers := func(pe *core.PE) (sim.Duration, error) {
		pe.Barrier() // warm-up alignment
		start := pe.Now()
		for r := 0; r < rounds; r++ {
			pe.Barrier()
		}
		return pe.Now() - start, nil
	}
	var vs []variant
	for _, kind := range []core.BarrierKind{core.BarrierCentral, core.BarrierTree} {
		vs = append(vs, variant{kind.String(), core.Config{Platform: pl, Seed: seed, Barrier: kind}, barriers})
	}
	return sweep(&Figure{
		ID:     "Ablation A2",
		Title:  fmt.Sprintf("central vs tree barrier (%d back-to-back barriers), %s", rounds, pl),
		XLabel: "number of processors", YLabel: "time per barrier [ms]",
	}, maxPE, func(d, _ sim.Duration) float64 { return d.Seconds() * 1000 / rounds }, vs...)
}

// AblationLoadModel reruns Gauss-Seidel with and without the paper's
// proportional virtual-cluster slowdown, isolating the >6-processor knee.
func AblationLoadModel(pl *platform.Platform, maxPE int, seed uint64) (*Figure, error) {
	const n = 600
	var vs []variant
	for _, load := range []platform.LoadModel{platform.LoadProportional, platform.LoadNone} {
		vs = append(vs, variant{"load " + load.String(),
			core.Config{Platform: pl, Seed: seed, Load: load, GMBlockWords: gaussBlockWords},
			gaussApp(gauss.Params{N: n, Seed: seed})})
	}
	return sweep(&Figure{
		ID:     "Ablation A3",
		Title:  fmt.Sprintf("virtual-cluster load model, Gauss-Seidel N=%d, %s", n, pl),
		XLabel: "number of processors", YLabel: "speed improvement ratio",
	}, maxPE, speedup, vs...)
}

// AblationSharedVsMessage compares DSE's shared-memory Gauss-Seidel
// against the PVM/MPI-style message-passing variant (identical numerics).
func AblationSharedVsMessage(pl *platform.Platform, maxPE int, seed uint64) (*Figure, error) {
	const n = 600
	params := gauss.Params{N: n, Seed: seed}
	cfg := core.Config{Platform: pl, Seed: seed, GMBlockWords: gaussBlockWords}
	return sweep(&Figure{
		ID:     "Ablation A4",
		Title:  fmt.Sprintf("shared memory (DSM) vs message passing, Gauss-Seidel N=%d, %s", n, pl),
		XLabel: "number of processors", YLabel: "execution time [s]",
	}, maxPE, seconds,
		variant{"DSM", cfg, gaussApp(params)},
		variant{"message-passing", cfg, func(pe *core.PE) (sim.Duration, error) {
			r, err := gauss.ParallelMP(pe, params)
			if err != nil {
				return 0, err
			}
			return r.Elapsed, nil
		}})
}

// AblationProtocolOverhead sweeps the per-message protocol cost — the
// overhead the paper's reorganisation fights — and reports Gauss-Seidel
// time at a fixed processor count.
func AblationProtocolOverhead(pl *platform.Platform, seed uint64) (*Figure, error) {
	const (
		n   = 600
		pes = 6
	)
	s, err := curve("exec time", []float64{0.25, 0.5, 1, 2, 4}, func(mult float64) (float64, error) {
		scaled := *pl
		scaled.ProtoPerMessage = sim.Duration(float64(pl.ProtoPerMessage) * mult)
		scaled.SyscallOverhead = sim.Duration(float64(pl.SyscallOverhead) * mult)
		scaled.InterruptCost = sim.Duration(float64(pl.InterruptCost) * mult)
		scaled.CtxSwitch = sim.Duration(float64(pl.CtxSwitch) * mult)
		d, _, err := run(core.Config{NumPE: pes, Platform: &scaled, Seed: seed, GMBlockWords: gaussBlockWords},
			gaussApp(gauss.Params{N: n, Seed: seed}))
		return d.Seconds(), err
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "Ablation A5",
		Title:  fmt.Sprintf("per-message protocol cost sweep, Gauss-Seidel N=%d p=%d, %s", n, pes, pl),
		XLabel: "protocol cost multiplier", YLabel: "execution time [s]",
		Series: []trace.Series{s},
	}, nil
}

// AblationChunking compares per-block DCT self-scheduling against chunked
// claims for the paper's worst case (4×4 blocks), which turns the job
// counter from a hot spot into background noise.
func AblationChunking(pl *platform.Platform, maxPE int, seed uint64) (*Figure, error) {
	base := dct.Params{ImageN: 128, Block: 4, Rate: 0.5, Seed: seed}
	var vs []variant
	for _, chunk := range []int{1, 8, 64} {
		params := base
		params.ChunkBlocks = chunk
		vs = append(vs, variant{fmt.Sprintf("chunk=%d", chunk), core.Config{Platform: pl, Seed: seed}, dctApp(params)})
	}
	return sweep(&Figure{
		ID:     "Ablation A6",
		Title:  fmt.Sprintf("DCT 4x4 job chunking (%dx%d image), %s", base.ImageN, base.ImageN, pl),
		XLabel: "number of processors", YLabel: "execution time [s]",
	}, maxPE, seconds, vs...)
}

// AblationOrganization reproduces the paper's central engineering claim:
// the reorganised DSE (kernel linked into the application process) versus
// the old organisation (kernel and process as separate UNIX processes, one
// IPC round trip per Parallel-API call). The paper: "experiment results
// reveal substantial enhancement to DSE system performance". The workload
// is fine-grained word access to a shared table — the case the
// reorganisation helps most, because it turns local global-memory access
// into a function call instead of an IPC round trip.
func AblationOrganization(pl *platform.Platform, maxPE int, seed uint64) (*Figure, error) {
	table := tableApp(10, false)
	return sweep(&Figure{
		ID:     "Ablation A7",
		Title:  fmt.Sprintf("new vs old DSE software organisation (fine-grain GM access), %s", pl),
		XLabel: "number of processors", YLabel: "execution time [s]",
	}, maxPE, seconds,
		variant{"new (one process)", core.Config{Platform: pl, Seed: seed}, table},
		variant{"old (kernel via IPC)", core.Config{Platform: pl, Seed: seed, Legacy: true}, table})
}

// AblationMedium compares the shared CSMA/CD bus against switched
// Ethernet on the paper's most wire-bound workload: Gauss-Seidel at
// N=900, where every PE pulls the full vector over the LAN each sweep.
// The paper blames the bus for degradation at high communication
// frequency; the switch removes the collisions and shared-wire
// serialisation but keeps the per-message OS costs, so the residual
// slowdown is the protocol overhead the reorganisation targets.
func AblationMedium(pl *platform.Platform, maxPE int, seed uint64) (*Figure, error) {
	const n = 900
	gs := gaussApp(gauss.Params{N: n, Seed: seed})
	return sweep(&Figure{
		ID:     "Ablation A8",
		Title:  fmt.Sprintf("shared bus vs switched Ethernet, Gauss-Seidel N=%d, %s", n, pl),
		XLabel: "number of processors", YLabel: "execution time [s]",
	}, maxPE, seconds,
		variant{"shared bus", core.Config{Platform: pl, Seed: seed, GMBlockWords: gaussBlockWords}, gs},
		variant{"switched", core.Config{Platform: pl, Seed: seed, Switched: true, GMBlockWords: gaussBlockWords}, gs})
}

// Ablations runs the whole suite on the SunOS platform.
func Ablations(maxPE int, seed uint64) ([]*Figure, error) {
	pl := platform.SparcSunOS
	var figs []*Figure
	for _, f := range []func() (*Figure, error){
		func() (*Figure, error) { return AblationLease(pl, maxPE, seed) },
		func() (*Figure, error) { return AblationBarrier(pl, maxPE, seed) },
		func() (*Figure, error) { return AblationLoadModel(pl, maxPE, seed) },
		func() (*Figure, error) { return AblationSharedVsMessage(pl, maxPE, seed) },
		func() (*Figure, error) { return AblationProtocolOverhead(pl, seed) },
		func() (*Figure, error) { return AblationChunking(pl, maxPE, seed) },
		func() (*Figure, error) { return AblationOrganization(pl, maxPE, seed) },
		func() (*Figure, error) { return AblationMedium(pl, maxPE, seed) },
	} {
		fig, err := f()
		if err != nil {
			return figs, err
		}
		figs = append(figs, fig)
	}
	return figs, nil
}
