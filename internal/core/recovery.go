package core

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/gmem"
	"repro/internal/sim"
	"repro/internal/transport/simnet"
)

// restoreState is the decoded snapshot a recovering cluster starts from,
// plumbed through the private Config.restore field (the recorder pattern).
type restoreState struct {
	gen      uint64                    // committed store generation restored
	epoch    uint64                    // checkpoint epoch of the snapshot
	viewGen  uint64                    // view generation the restarted cluster runs as
	app      [][]byte                  // per-PE application blobs
	blocks   [][]gmem.BlockSnapshot    // per-kernel GM slices + coherence directory
	dirs     []*ckpt.DirectorySnapshot // per-kernel membership directory (nil entries = static)
	rollback []uint64                  // per-PE ops discarded by the rollback
}

// feedBaseline seeds the history checker with every non-zero restored word:
// those values have no writer event in the new run's history, and without a
// baseline the checker would flag reads of them as out-of-thin-air.
func (rs *restoreState) feedBaseline(rec *check.Recorder, blockWords int) {
	for _, blocks := range rs.blocks {
		for _, b := range blocks {
			base := b.Index * uint64(blockWords)
			for i, w := range b.Words {
				if w != 0 {
					rec.SetBaseline(base+uint64(i), w)
				}
			}
		}
	}
}

// RecoveryEvent describes one completed recovery.
type RecoveryEvent struct {
	DeadPEs     []int        // the PEs the kernel quorum declared dead
	Coordinator int          // lowest live rank, which led the recovery
	Gen         uint64       // snapshot generation restored
	Epoch       uint64       // checkpoint epoch rolled back to
	DetectedAt  sim.Duration // failed run's elapsed time at abort
	RollbackOps uint64       // recorded ops past the snapshot, discarded
}

// RecoveryReport summarises a RunWithRecovery invocation.
type RecoveryReport struct {
	Attempts   int // cluster runs launched (1 = no failure)
	Recoveries []RecoveryEvent
}

// Recovered reports whether any recovery took place.
func (r *RecoveryReport) Recovered() bool { return len(r.Recoveries) > 0 }

// RunWithRecovery executes program like Run but survives PE deaths: when a
// run aborts with a quorum-confirmed dead peer and cfg.Ckpt is configured,
// the recovery coordinator (the lowest live rank) rolls the cluster back to
// the last complete snapshot generation and reruns the program from it. The
// restarted cluster redistributes the dead PE's GM slice and home directory
// from the snapshot (every kernel re-imports its slice), respawns all DSE
// processes — same-process goroutines under simnet/inproc — and hands each
// PE its checkpointed application blob through RegisterCheckpoint.
//
// At most maxRecoveries restarts are attempted; the final Result (and the
// report of every recovery) is returned. A run that fails without a usable
// snapshot, or whose snapshot fails its integrity checks (CRC / content
// hash), returns the last Result plus an error describing why recovery was
// abandoned.
//
// Scheduled kills (cfg.Kills) that already fired in a failed run are pruned
// before the rerun, so a deterministic fault schedule kills each victim
// once rather than on every attempt.
func RunWithRecovery(cfg Config, maxRecoveries int, program Program) (*Result, *RecoveryReport, error) {
	rep := &RecoveryReport{}
	for {
		rep.Attempts++
		res, err := Run(cfg, program)
		if err != nil {
			return res, rep, err
		}
		if len(res.DeadPeers) == 0 || res.FirstErr() == nil {
			return res, rep, nil
		}
		if cfg.Ckpt == nil {
			return res, rep, fmt.Errorf("core: recovery: PE(s) %v died but checkpointing is disabled", res.DeadPeers)
		}
		if len(rep.Recoveries) >= maxRecoveries {
			return res, rep, fmt.Errorf("core: recovery: PE(s) %v died after the recovery budget (%d) was spent", res.DeadPeers, maxRecoveries)
		}

		blockWords := cfg.GMBlockWords
		if blockWords == 0 {
			blockWords = 32 // withDefaults' value; cfg here is pre-default
		}
		rs, markTimes, rerr := loadSnapshot(cfg.Ckpt.Store, cfg.NumPE, cfg.LatentPEs, blockWords)
		if rerr != nil {
			return res, rep, fmt.Errorf("core: recovery after PE(s) %v died: %w", res.DeadPeers, rerr)
		}
		rs.viewGen = uint64(len(rep.Recoveries)) + 1

		// Rollback accounting: every recorded op the failed run performed
		// after its PE's mark is undone by restarting from the snapshot.
		if res.History != nil {
			for i := range res.History.Events {
				ev := &res.History.Events[i]
				if int(ev.PE) < len(markTimes) && ev.Inv > markTimes[ev.PE] {
					rs.rollback[ev.PE]++
				}
			}
		}

		ev := RecoveryEvent{
			DeadPEs:     append([]int(nil), res.DeadPeers...),
			Coordinator: electCoordinator(cfg.NumPE, res.DeadPeers),
			Gen:         rs.gen,
			Epoch:       rs.epoch,
			DetectedAt:  res.Elapsed,
		}
		for _, n := range rs.rollback {
			ev.RollbackOps += n
		}
		rep.Recoveries = append(rep.Recoveries, ev)

		// Fault schedules are absolute virtual times; a kill that fired in
		// the failed run must not re-fire in the restarted one.
		var pending []simnet.Kill
		for _, kl := range cfg.Kills {
			if kl.At > sim.Time(res.Elapsed) {
				pending = append(pending, kl)
			}
		}
		cfg.Kills = pending
		cfg.restore = rs
	}
}

// electCoordinator returns the lowest rank not in dead — the recovery
// coordinator. (With the restart-based recovery model the coordinator's
// special duty is carried by rank 0 of the restarted cluster; the election
// here identifies which surviving PE drove the decision, for the report.)
func electCoordinator(numPE int, dead []int) int {
	isDead := make(map[int]bool, len(dead))
	for _, d := range dead {
		isDead[d] = true
	}
	for r := 0; r < numPE; r++ {
		if !isDead[r] {
			return r
		}
	}
	return 0
}

// loadSnapshot reads and fully validates the newest committed generation:
// every slice's CRC and content hash (ckpt.Store), its encoding, and its
// geometry and homes against the cluster being rebuilt (checkHomes).
// markTimes returns each PE's mark instant for rollback accounting.
func loadSnapshot(st ckpt.Store, numPE, latentPEs, blockWords int) (*restoreState, []sim.Time, error) {
	gen, n, ok, err := st.Latest()
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return nil, nil, fmt.Errorf("no committed checkpoint generation in the store")
	}
	if n != numPE {
		return nil, nil, fmt.Errorf("snapshot generation %d was taken with %d PEs, cluster has %d", gen, n, numPE)
	}
	rs := &restoreState{
		gen:      gen,
		app:      make([][]byte, numPE),
		blocks:   make([][]gmem.BlockSnapshot, numPE),
		dirs:     make([]*ckpt.DirectorySnapshot, numPE),
		rollback: make([]uint64, numPE),
	}
	markTimes := make([]sim.Time, numPE)
	for pe := 0; pe < numPE; pe++ {
		data, err := st.ReadSlice(gen, pe)
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot generation %d, PE %d: %w", gen, pe, err)
		}
		s, err := ckpt.DecodeSlice(data)
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot generation %d, PE %d: %w", gen, pe, err)
		}
		bw, blocks, dir, err := ckpt.DecodeKernelStateDir(s.Kernel)
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot generation %d, PE %d: %w", gen, pe, err)
		}
		rs.dirs[pe] = dir
		if bw != blockWords {
			return nil, nil, fmt.Errorf("snapshot generation %d, PE %d: block size %d, cluster uses %d", gen, pe, bw, blockWords)
		}
		rs.epoch = s.Epoch
		markTimes[pe] = s.MarkTime
		rs.app[pe] = s.App
		rs.blocks[pe] = blocks
	}
	if err := rs.checkHomes(latentPEs, blockWords); err != nil {
		return nil, nil, err
	}
	return rs, markTimes, nil
}

// checkHomes refuses a snapshot the rebuilt cluster could not restore: a
// slice listing a block that its PE's restored directory homes elsewhere (a
// kernel would refuse to import it), or an override or escrow entry naming
// no PE.
func (rs *restoreState) checkHomes(latentPEs, blockWords int) error {
	numPE := len(rs.blocks)
	space := gmem.NewSpace(numPE, blockWords)
	for pe, blocks := range rs.blocks {
		if ds := rs.dirs[pe]; ds != nil {
			for _, ov := range ds.Overrides {
				if ov[1] >= uint64(numPE) {
					return fmt.Errorf("snapshot generation %d, PE %d: block %d overridden to PE %d of %d", rs.gen, pe, ov[0], ov[1], numPE)
				}
			}
			for _, es := range ds.Escrow {
				if es.Dst < 0 || es.Dst >= numPE {
					return fmt.Errorf("snapshot generation %d, PE %d: block %d escrowed for PE %d of %d", rs.gen, pe, es.Block.Index, es.Dst, numPE)
				}
			}
		}
		dir := rs.directory(pe, latentPEs)
		for _, b := range blocks {
			if h := dir.HomeAt(space.LocateBlock(b.Index)); h != pe {
				return fmt.Errorf("snapshot generation %d, PE %d: block %d is homed at PE %d", rs.gen, pe, b.Index, h)
			}
		}
	}
	return nil
}

// directory is kernel id's membership directory as the snapshot left it:
// the configured latent members, overwritten by the snapshot's member states
// and overrides where it has them.
func (rs *restoreState) directory(id, latentPEs int) *gmem.Directory {
	dir := gmem.NewDirectory(len(rs.blocks), latentPEs)
	if ds := rs.dirs[id]; ds != nil {
		for i, ms := range ds.Members {
			dir.SetMember(i, gmem.MemberState(ms.State), ms.Gen)
		}
		for _, ov := range ds.Overrides {
			dir.SetOverride(ov[0], int(ov[1]))
		}
	}
	return dir
}

// newDirectory builds kernel id's membership directory: a fresh one, or on a
// restart the one the snapshot recorded.
func newDirectory(cfg *Config, id int) *gmem.Directory {
	if cfg.restore != nil {
		return cfg.restore.directory(id, cfg.LatentPEs)
	}
	return gmem.NewDirectory(cfg.NumPE, cfg.LatentPEs)
}
