package bench

import (
	"fmt"
	"os"

	"repro/internal/apps/dct"
	"repro/internal/apps/gauss"
	"repro/internal/apps/knight"
	"repro/internal/apps/othello"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/gmem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// workload is one application run the harness reports the counters of: a
// name for the table title, the cluster and the program.
type workload struct {
	name string
	cfg  core.Config
	app  app
}

// result runs the workload and fails with its name on an error.
func (w workload) result() (*core.Result, error) {
	_, res, err := run(w.cfg, w.app)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return res, nil
}

// referencePE is the processor count of the reference workloads: the paper's
// four applications at a fixed, fast parameter point, the runs whose latency
// tables and message totals the golden test pins.
const referencePE = 4

// ReferenceGaussN is the reference gauss dimension at scale sc: the point
// -latency, -trace and the checkpoint run share.
func ReferenceGaussN(sc Scale) int {
	if len(sc.GaussNs) > 1 {
		return sc.GaussNs[1]
	}
	return 120
}

func referenceWorkloads(pl *platform.Platform, sc Scale) []workload {
	cfg := core.Config{NumPE: referencePE, Platform: pl, Seed: sc.Seed}
	gaussCfg := cfg
	gaussCfg.GMBlockWords = gaussBlockWords
	gaussN := ReferenceGaussN(sc)
	return []workload{
		{fmt.Sprintf("gauss N=%d", gaussN), gaussCfg, gaussApp(gauss.Params{N: gaussN, Seed: sc.Seed})},
		{"dct 64/8", cfg, dctApp(dct.Params{ImageN: 64, Block: 8, Rate: 0.5, Seed: sc.Seed})},
		{"knight jobs=16", cfg, knightApp(knight.Params{BoardN: 5, Jobs: 16})},
		{"othello depth=3", cfg, othelloApp(othello.Params{Depth: 3})},
	}
}

// RunGaussCkpt runs the reference gauss point with checkpointing enabled
// against a throwaway on-disk store and one coordinated Checkpoint of the
// fully solved system: its elapsed time against the plain gauss run's is the
// cost of a checkpoint, its SnapshotBytes the snapshot's encoded size.
func RunGaussCkpt(pl *platform.Platform, sc Scale) (*core.Result, error) {
	dir, err := os.MkdirTemp("", "dse-ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := ckpt.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		NumPE: referencePE, Platform: pl, Seed: sc.Seed, GMBlockWords: gaussBlockWords,
		Ckpt: store,
	}
	solve := gaussApp(gauss.Params{N: ReferenceGaussN(sc), Seed: sc.Seed})
	_, res, err := run(cfg, func(pe *core.PE) (sim.Duration, error) {
		pe.RegisterCheckpoint(nil, nil)
		d, err := solve(pe)
		if err != nil {
			return 0, err
		}
		return d, pe.Checkpoint()
	})
	return res, err
}

// LatencyTables runs the four reference applications and renders each one's
// per-op latency distribution (round trips, kernel service times,
// synchronisation waits) as a table: EXPERIMENTS.md's latency-distribution
// data.
func LatencyTables(pl *platform.Platform, sc Scale) ([]*trace.Table, error) {
	var tables []*trace.Table
	for _, w := range referenceWorkloads(pl, sc) {
		res, err := w.result()
		if err != nil {
			return nil, err
		}
		title := fmt.Sprintf("latency distribution, %s p=%d on %s (elapsed %v, %d msgs, %d bytes)",
			w.name, referencePE, pl.Numeric, res.Elapsed, res.Total.MsgsSent, res.Total.BytesSent)
		tables = append(tables, res.Total.LatencyTable(title))
	}

	// One checkpoint-enabled gauss run rides along: its table carries the
	// ckpt-mark round trips and the checkpoint counters.
	res, err := RunGaussCkpt(pl, sc)
	if err != nil {
		return nil, fmt.Errorf("gauss+ckpt: %w", err)
	}
	title := fmt.Sprintf("latency distribution, gauss+ckpt p=%d on %s (elapsed %v, %d msgs, %d bytes, one coordinated checkpoint)",
		referencePE, pl.Numeric, res.Elapsed, res.Total.MsgsSent, res.Total.BytesSent)
	tables = append(tables, res.Total.LatencyTable(title))
	ck := &trace.Table{
		Title:  "checkpoint counters, gauss+ckpt p=4",
		Header: []string{"counter", "value"},
	}
	ck.AddRow("checkpoints", fmt.Sprintf("%d", res.Total.Checkpoints))
	ck.AddRow("restores", fmt.Sprintf("%d", res.Total.Restores))
	ck.AddRow("snapshot_bytes", fmt.Sprintf("%d", res.Total.SnapshotBytes))
	ck.AddRow("rollback_ops", fmt.Sprintf("%d", res.Total.RollbackOps))
	tables = append(tables, ck)

	// One release-mode fine-grained gauss run rides along: its table's
	// flush-stall row is the WC-buffer drain latency at sync edges, which
	// every strong workload above leaves empty.
	rel, err := workload{"gauss-fine release",
		core.Config{NumPE: tierGaussPE, Platform: pl, Seed: sc.Seed, GMBlockWords: gaussBlockWords},
		gaussFineApp(gauss.Params{N: tierGaussN, Seed: sc.Seed}, gmem.ModeRelease)}.result()
	if err != nil {
		return nil, err
	}
	title = fmt.Sprintf("latency distribution, gauss-fine N=%d release p=%d on %s (elapsed %v, %d msgs, %d bytes, %d WC flushes)",
		tierGaussN, tierGaussPE, pl.Numeric, rel.Elapsed, rel.Total.MsgsSent, rel.Total.BytesSent, rel.Total.WCFlushes)
	tables = append(tables, rel.Total.LatencyTable(title))
	return tables, nil
}
