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

// AblationCaching compares the plain home-based DSM against the
// write-invalidate caching protocol (the whole program in gmem.ModeCached) on
// a read-mostly shared table: every PE repeatedly reads a table of shared
// words that PE 0 occasionally updates. Caching turns the re-reads into local
// hits.
func AblationCaching(pl *platform.Platform, maxPE int, seed uint64) (*Figure, error) {
	const (
		tableWords = 96
		rounds     = 12
	)
	fig := &Figure{
		ID:     "Ablation A1",
		Title:  fmt.Sprintf("home-based DSM vs caching protocol (read-mostly table), %s", pl),
		XLabel: "number of processors", YLabel: "execution time [s]",
	}
	for _, mode := range []gmem.Mode{gmem.ModeStrong, gmem.ModeCached} {
		label := "home-based"
		if mode == gmem.ModeCached {
			label = "caching"
		}
		s := trace.Series{Label: label}
		for p := 1; p <= maxPE; p++ {
			var elapsed sim.Duration
			res, err := core.Run(core.Config{
				NumPE: p, Platform: pl, Seed: seed, GMDefaultMode: mode,
			}, func(pe *core.PE) error {
				table := pe.Alloc(tableWords)
				if pe.ID() == 0 {
					for i := 0; i < tableWords; i++ {
						pe.GMWrite(table+uint64(i), int64(i))
					}
				}
				pe.Barrier()
				start := pe.Now()
				for r := 0; r < rounds; r++ {
					for i := 0; i < tableWords; i++ {
						if v := pe.GMRead(table + uint64(i)); v < 0 {
							return fmt.Errorf("corrupt table")
						}
					}
					if pe.ID() == 0 {
						pe.GMWrite(table+uint64(r%tableWords), int64(r))
					}
					pe.Barrier()
				}
				if pe.ID() == 0 {
					elapsed = pe.Now() - start
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			if err := res.FirstErr(); err != nil {
				return nil, err
			}
			s.Append(float64(p), elapsed.Seconds())
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AblationBarrier compares the central barrier manager against the
// distributed combining tree: time for a burst of back-to-back barriers.
func AblationBarrier(pl *platform.Platform, maxPE int, seed uint64) (*Figure, error) {
	const rounds = 20
	fig := &Figure{
		ID:     "Ablation A2",
		Title:  fmt.Sprintf("central vs tree barrier (%d back-to-back barriers), %s", rounds, pl),
		XLabel: "number of processors", YLabel: "time per barrier [ms]",
	}
	for _, kind := range []core.BarrierKind{core.BarrierCentral, core.BarrierTree} {
		s := trace.Series{Label: kind.String()}
		for p := 1; p <= maxPE; p++ {
			var elapsed sim.Duration
			res, err := core.Run(core.Config{
				NumPE: p, Platform: pl, Seed: seed, Barrier: kind,
			}, func(pe *core.PE) error {
				pe.Barrier() // warm-up alignment
				start := pe.Now()
				for r := 0; r < rounds; r++ {
					pe.Barrier()
				}
				if pe.ID() == 0 {
					elapsed = pe.Now() - start
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			if err := res.FirstErr(); err != nil {
				return nil, err
			}
			s.Append(float64(p), elapsed.Seconds()*1000/rounds)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AblationLoadModel reruns Gauss-Seidel with and without the paper's
// proportional virtual-cluster slowdown, isolating the >6-processor knee.
func AblationLoadModel(pl *platform.Platform, maxPE int, seed uint64) (*Figure, error) {
	const n = 600
	fig := &Figure{
		ID:     "Ablation A3",
		Title:  fmt.Sprintf("virtual-cluster load model, Gauss-Seidel N=%d, %s", n, pl),
		XLabel: "number of processors", YLabel: "speed improvement ratio",
	}
	for _, load := range []platform.LoadModel{platform.LoadProportional, platform.LoadNone} {
		s := trace.Series{Label: "load " + load.String()}
		var base sim.Duration
		for p := 1; p <= maxPE; p++ {
			var elapsed sim.Duration
			res, err := core.Run(core.Config{
				NumPE: p, Platform: pl, Seed: seed, Load: load, GMBlockWords: gaussBlockWords,
			}, func(pe *core.PE) error {
				r, err := gauss.Parallel(pe, gauss.Params{N: n, Seed: seed})
				if err != nil {
					return err
				}
				if pe.ID() == 0 {
					elapsed = r.Elapsed
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			if err := res.FirstErr(); err != nil {
				return nil, err
			}
			if p == 1 {
				base = elapsed
			}
			s.Append(float64(p), float64(base)/float64(elapsed))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AblationSharedVsMessage compares DSE's shared-memory Gauss-Seidel
// against the PVM/MPI-style message-passing variant (identical numerics).
func AblationSharedVsMessage(pl *platform.Platform, maxPE int, seed uint64) (*Figure, error) {
	const n = 600
	fig := &Figure{
		ID:     "Ablation A4",
		Title:  fmt.Sprintf("shared memory (DSM) vs message passing, Gauss-Seidel N=%d, %s", n, pl),
		XLabel: "number of processors", YLabel: "execution time [s]",
	}
	variants := []struct {
		label string
		run   func(pe core.Proc, p gauss.Params) (*gauss.Result, error)
	}{
		{"DSM", gauss.Parallel},
		{"message-passing", gauss.ParallelMP},
	}
	for _, v := range variants {
		s := trace.Series{Label: v.label}
		for p := 1; p <= maxPE; p++ {
			var elapsed sim.Duration
			res, err := core.Run(core.Config{
				NumPE: p, Platform: pl, Seed: seed, GMBlockWords: gaussBlockWords,
			}, func(pe *core.PE) error {
				r, err := v.run(pe, gauss.Params{N: n, Seed: seed})
				if err != nil {
					return err
				}
				if pe.ID() == 0 {
					elapsed = r.Elapsed
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			if err := res.FirstErr(); err != nil {
				return nil, err
			}
			s.Append(float64(p), elapsed.Seconds())
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AblationProtocolOverhead sweeps the per-message protocol cost — the
// overhead the paper's reorganisation fights — and reports Gauss-Seidel
// time at a fixed processor count.
func AblationProtocolOverhead(pl *platform.Platform, seed uint64) (*Figure, error) {
	const (
		n   = 600
		pes = 6
	)
	fig := &Figure{
		ID:     "Ablation A5",
		Title:  fmt.Sprintf("per-message protocol cost sweep, Gauss-Seidel N=%d p=%d, %s", n, pes, pl),
		XLabel: "protocol cost multiplier", YLabel: "execution time [s]",
	}
	s := trace.Series{Label: "exec time"}
	for _, mult := range []float64{0.25, 0.5, 1, 2, 4} {
		scaled := *pl
		scaled.ProtoPerMessage = sim.Duration(float64(pl.ProtoPerMessage) * mult)
		scaled.SyscallOverhead = sim.Duration(float64(pl.SyscallOverhead) * mult)
		scaled.InterruptCost = sim.Duration(float64(pl.InterruptCost) * mult)
		scaled.CtxSwitch = sim.Duration(float64(pl.CtxSwitch) * mult)
		var elapsed sim.Duration
		res, err := core.Run(core.Config{
			NumPE: pes, Platform: &scaled, Seed: seed, GMBlockWords: gaussBlockWords,
		}, func(pe *core.PE) error {
			r, err := gauss.Parallel(pe, gauss.Params{N: n, Seed: seed})
			if err != nil {
				return err
			}
			if pe.ID() == 0 {
				elapsed = r.Elapsed
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if err := res.FirstErr(); err != nil {
			return nil, err
		}
		s.Append(mult, elapsed.Seconds())
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// AblationChunking compares per-block DCT self-scheduling against chunked
// claims for the paper's worst case (4×4 blocks), which turns the job
// counter from a hot spot into background noise.
func AblationChunking(pl *platform.Platform, maxPE int, seed uint64) (*Figure, error) {
	base := dct.Params{ImageN: 128, Block: 4, Rate: 0.5, Seed: seed}
	fig := &Figure{
		ID:     "Ablation A6",
		Title:  fmt.Sprintf("DCT 4x4 job chunking (%dx%d image), %s", base.ImageN, base.ImageN, pl),
		XLabel: "number of processors", YLabel: "execution time [s]",
	}
	for _, chunk := range []int{1, 8, 64} {
		s := trace.Series{Label: fmt.Sprintf("chunk=%d", chunk)}
		for p := 1; p <= maxPE; p++ {
			params := base
			params.ChunkBlocks = chunk
			var elapsed sim.Duration
			res, err := core.Run(core.Config{
				NumPE: p, Platform: pl, Seed: seed,
			}, func(pe *core.PE) error {
				r, err := dct.Parallel(pe, params)
				if err != nil {
					return err
				}
				if pe.ID() == 0 {
					elapsed = r.Elapsed
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			if err := res.FirstErr(); err != nil {
				return nil, err
			}
			s.Append(float64(p), elapsed.Seconds())
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
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
	const (
		tableWords = 96
		rounds     = 10
	)
	fig := &Figure{
		ID:     "Ablation A7",
		Title:  fmt.Sprintf("new vs old DSE software organisation (fine-grain GM access), %s", pl),
		XLabel: "number of processors", YLabel: "execution time [s]",
	}
	for _, legacy := range []bool{false, true} {
		label := "new (one process)"
		if legacy {
			label = "old (kernel via IPC)"
		}
		s := trace.Series{Label: label}
		for p := 1; p <= maxPE; p++ {
			var elapsed sim.Duration
			res, err := core.Run(core.Config{
				NumPE: p, Platform: pl, Seed: seed, Legacy: legacy,
			}, func(pe *core.PE) error {
				table := pe.Alloc(tableWords)
				pe.Barrier()
				start := pe.Now()
				for r := 0; r < rounds; r++ {
					for i := 0; i < tableWords; i++ {
						pe.GMRead(table + uint64(i))
					}
					pe.Barrier()
				}
				if pe.ID() == 0 {
					elapsed = pe.Now() - start
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			if err := res.FirstErr(); err != nil {
				return nil, err
			}
			s.Append(float64(p), elapsed.Seconds())
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
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
	fig := &Figure{
		ID:     "Ablation A8",
		Title:  fmt.Sprintf("shared bus vs switched Ethernet, Gauss-Seidel N=%d, %s", n, pl),
		XLabel: "number of processors", YLabel: "execution time [s]",
	}
	for _, switched := range []bool{false, true} {
		label := "shared bus"
		if switched {
			label = "switched"
		}
		s := trace.Series{Label: label}
		for p := 1; p <= maxPE; p++ {
			var elapsed sim.Duration
			res, err := core.Run(core.Config{
				NumPE: p, Platform: pl, Seed: seed, Switched: switched, GMBlockWords: gaussBlockWords,
			}, func(pe *core.PE) error {
				r, err := gauss.Parallel(pe, gauss.Params{N: n, Seed: seed})
				if err != nil {
					return err
				}
				if pe.ID() == 0 {
					elapsed = r.Elapsed
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			if err := res.FirstErr(); err != nil {
				return nil, err
			}
			s.Append(float64(p), elapsed.Seconds())
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Ablations runs the whole suite on the SunOS platform.
func Ablations(maxPE int, seed uint64) ([]*Figure, error) {
	pl := platform.SparcSunOS
	var figs []*Figure
	for _, f := range []func() (*Figure, error){
		func() (*Figure, error) { return AblationCaching(pl, maxPE, seed) },
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
