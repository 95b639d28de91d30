package bench

import (
	"fmt"

	"repro/internal/apps/gauss"
	"repro/internal/core"
	"repro/internal/gmem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file holds the consistency-tier ablation (DESIGN.md §14,
// EXPERIMENTS.md): the gauss sweep measured under each per-allocation
// consistency mode, in two variants.
//
// The hand-vectored gauss.Parallel publishes each sweep's rows with one
// block write — it is already write-combined at the application level, so
// its message count is expected to be mode-invariant (the tiers must not
// ADD traffic). The fine-grained variant below publishes row by row and
// reads the vector word by word — the textbook structure release
// consistency and read leases exist for: the WC buffer coalesces the
// per-row writes into one flush per home per sweep, and leases collapse
// the per-word reads into one grant per block per sweep.

// tierGaussN and tierGaussPE pin the ablation point from the experiment
// plan: gauss N=300 at p=4.
const (
	tierGaussN  = 300
	tierGaussPE = 4
)

// tierGaussSweeps fixes the fine-grained variant's sweep count so message
// counts are a closed-form function of the mode, not of convergence noise.
const tierGaussSweeps = 6

// gaussFineApp runs the fine-grained gauss sweep (gauss.ParallelFine) for
// tierGaussSweeps sweeps with the shared vector allocated under mode.
func gaussFineApp(p gauss.Params, mode gmem.Mode) app {
	return func(pe *core.PE) (sim.Duration, error) {
		r, err := gauss.ParallelFine(pe, p, mode, tierGaussSweeps)
		if err != nil {
			return 0, err
		}
		return r.Elapsed, nil
	}
}

// TierMetrics is one row of the consistency-tier ablation: one gauss
// variant under one mode.
type TierMetrics struct {
	Workload string
	Mode     string // "strong", "release" or "lease"

	Elapsed   sim.Duration
	MsgsSent  uint64
	BytesSent uint64

	// MsgsPerOp normalises sent messages by global-memory operations.
	MsgsPerOp float64

	// Tier machinery counters (zero under strong).
	WCFlushes     uint64
	LeaseGrants   uint64
	LeaseExpiries uint64
}

var tierModes = []gmem.Mode{gmem.ModeStrong, gmem.ModeRelease, gmem.ModeLease}

// measureTier runs one gauss variant under one mode and fills a row.
func measureTier(w workload, mode string) (TierMetrics, error) {
	res, err := w.result()
	if err != nil {
		return TierMetrics{}, fmt.Errorf("%s: %w", mode, err)
	}
	m := TierMetrics{
		Workload:  w.name,
		Mode:      mode,
		Elapsed:   res.Elapsed,
		MsgsSent:  res.Total.MsgsSent,
		BytesSent: res.Total.BytesSent,

		WCFlushes:     res.Total.WCFlushes,
		LeaseGrants:   res.Total.LeaseGrants,
		LeaseExpiries: res.Total.LeaseExpiries,
	}
	if ops := res.Total.LocalGM + res.Total.RemoteGM; ops > 0 {
		m.MsgsPerOp = float64(res.Total.MsgsSent) / float64(ops)
	}
	return m, nil
}

// ConsistencyTierProfile measures the gauss N=300 p=4 point under every
// consistency mode, for both the hand-vectored solver and the fine-grained
// variant: the data behind the EXPERIMENTS.md per-tier ablation table
// (dsebench -modes).
func ConsistencyTierProfile(pl *platform.Platform, seed uint64) ([]TierMetrics, error) {
	var rows []TierMetrics
	params := gauss.Params{N: tierGaussN, Seed: seed}
	cfg := core.Config{NumPE: tierGaussPE, Platform: pl, Seed: seed, GMBlockWords: gaussBlockWords}
	for _, mode := range tierModes {
		// Vectored gauss.Parallel allocates with the default mode, so the
		// tier is selected via Config.GMDefaultMode.
		vectored := cfg
		vectored.GMDefaultMode = mode
		row, err := measureTier(workload{fmt.Sprintf("gauss N=%d", tierGaussN), vectored, gaussApp(params)}, mode.String())
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)

		// Fine-grained variant: the mode rides on the allocation itself.
		row, err = measureTier(workload{fmt.Sprintf("gauss-fine N=%d", tierGaussN), cfg, gaussFineApp(params, mode)}, mode.String())
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// TierTable renders the ablation rows as the EXPERIMENTS.md table.
func TierTable(rows []TierMetrics) *trace.Table {
	t := &trace.Table{
		Title: fmt.Sprintf("consistency-tier ablation, gauss N=%d p=%d (vectored and fine-grained)",
			tierGaussN, tierGaussPE),
		Header: []string{"workload", "mode", "msgs", "bytes", "msgs/op", "elapsed", "wc-flushes", "lease-grants", "lease-expiries"},
	}
	for i := range rows {
		r := &rows[i]
		t.AddRow(r.Workload, r.Mode,
			fmt.Sprintf("%d", r.MsgsSent),
			fmt.Sprintf("%d", r.BytesSent),
			fmt.Sprintf("%.3f", r.MsgsPerOp),
			(r.Elapsed / sim.Microsecond * sim.Microsecond).String(), // whole µs, truncated
			fmt.Sprintf("%d", r.WCFlushes),
			fmt.Sprintf("%d", r.LeaseGrants),
			fmt.Sprintf("%d", r.LeaseExpiries))
	}
	return t
}
