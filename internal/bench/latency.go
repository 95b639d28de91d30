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
	"repro/internal/trace"
)

// referenceWorkload is one of the paper's four applications at a fixed,
// fast parameter point on referencePE processors: the runs whose latency
// tables and message totals the golden test pins.
type referenceWorkload struct {
	name       string
	blockWords int
	body       core.Program
}

const referencePE = 4

// ReferenceGaussN is the reference gauss dimension at scale sc: the point
// -latency, -trace and the checkpoint run share.
func ReferenceGaussN(sc Scale) int {
	if len(sc.GaussNs) > 1 {
		return sc.GaussNs[1]
	}
	return 120
}

func referenceWorkloads(sc Scale) []referenceWorkload {
	gaussN := ReferenceGaussN(sc)
	return []referenceWorkload{
		{
			name: fmt.Sprintf("gauss N=%d", gaussN), blockWords: gaussBlockWords,
			body: func(pe *core.PE) error {
				_, err := gauss.Parallel(pe, gauss.Params{N: gaussN, Seed: sc.Seed})
				return err
			},
		},
		{
			name: "dct 64/8",
			body: func(pe *core.PE) error {
				_, err := dct.Parallel(pe, dct.Params{ImageN: 64, Block: 8, Rate: 0.5, Seed: sc.Seed})
				return err
			},
		},
		{
			name: "knight jobs=16",
			body: func(pe *core.PE) error {
				_, err := knight.Parallel(pe, knight.Params{BoardN: 5, Jobs: 16})
				return err
			},
		},
		{
			name: "othello depth=3",
			body: func(pe *core.PE) error {
				_, err := othello.Parallel(pe, othello.Params{Depth: 3})
				return err
			},
		},
	}
}

// run executes the workload on the simulated cluster.
func (w referenceWorkload) run(pl *platform.Platform, seed uint64) (*core.Result, error) {
	res, err := runClean(core.Config{NumPE: referencePE, Platform: pl, Seed: seed, GMBlockWords: w.blockWords}, w.body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return res, nil
}

// RunGaussCkpt runs the reference gauss point with checkpointing enabled
// against a throwaway on-disk store and one coordinated Checkpoint of the
// fully solved system: its elapsed time against the plain gauss run's is the
// cost of a checkpoint, its SnapshotBytes the snapshot's encoded size.
func RunGaussCkpt(pl *platform.Platform, sc Scale) (*core.Result, error) {
	gaussN := ReferenceGaussN(sc)
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
		Ckpt: &core.CheckpointConfig{Store: store},
	}
	return runClean(cfg, func(pe *core.PE) error {
		pe.RegisterCheckpoint(nil, nil)
		if _, err := gauss.Parallel(pe, gauss.Params{N: gaussN, Seed: sc.Seed}); err != nil {
			return err
		}
		return pe.Checkpoint()
	})
}

// LatencyTables runs the four reference applications and renders each one's
// per-op latency distribution (round trips, kernel service times,
// synchronisation waits) as a table: EXPERIMENTS.md's latency-distribution
// data.
func LatencyTables(pl *platform.Platform, sc Scale) ([]*trace.Table, error) {
	var tables []*trace.Table
	for _, w := range referenceWorkloads(sc) {
		res, err := w.run(pl, sc.Seed)
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
	rel, err := runClean(core.Config{
		NumPE: tierGaussPE, Platform: pl, Seed: sc.Seed, GMBlockWords: gaussBlockWords,
	}, func(pe *core.PE) error {
		return gaussFine(pe, gmem.ModeRelease, sc.Seed)
	})
	if err != nil {
		return nil, fmt.Errorf("gauss-fine release: %w", err)
	}
	title = fmt.Sprintf("latency distribution, gauss-fine N=%d release p=%d on %s (elapsed %v, %d msgs, %d bytes, %d WC flushes)",
		tierGaussN, tierGaussPE, pl.Numeric, rel.Elapsed, rel.Total.MsgsSent, rel.Total.BytesSent, rel.Total.WCFlushes)
	tables = append(tables, rel.Total.LatencyTable(title))
	return tables, nil
}
