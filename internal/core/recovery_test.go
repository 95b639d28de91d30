package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/gmem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/transport/simnet"
)

// recoverConfig is the shared cluster shape for the recovery tests: three
// PEs so the dead-peer quorum vote is unambiguous, a bounded request
// timeout so the victim's orphaned requests fail instead of hanging, and a
// history recorder so the checker can audit the post-recovery execution.
func recoverConfig(t *testing.T, store ckpt.Store, kills []simnet.Kill) core.Config {
	t.Helper()
	return core.Config{
		NumPE:          3,
		Platform:       platform.SparcSunOS,
		RequestTimeout: 50 * sim.Millisecond,
		RequestRetries: 2,
		RecordHistory:  true,
		Kills:          kills,
		Ckpt:           store,
	}
}

// recoverProgram writes recognisable values into every kernel's slice
// (including the future victim's), checkpoints, and then marches into the
// scheduled kill by hammering remote reads. The restarted incarnation
// instead verifies that the snapshot brought every value — and the
// application blob — back.
func recoverProgram(killAt sim.Time) core.Program {
	return func(pe *core.PE) error {
		var blob []byte
		restored := pe.RegisterCheckpoint(
			func() []byte { return []byte{42, byte(pe.ID())} },
			func(b []byte) { blob = append([]byte(nil), b...) },
		)

		// 3 blocks x 32 words: homes 0, 1, 2 under the block-cyclic map,
		// so the victim (PE 2) owns real data that must be redistributed.
		base := core.AllocArray[int64](pe, 96)

		if restored {
			if want := []byte{42, byte(pe.ID())}; !bytes.Equal(blob, want) {
				return fmt.Errorf("PE %d: restored blob %v, want %v", pe.ID(), blob, want)
			}
			if g := pe.ViewGeneration(); g != 1 {
				return fmt.Errorf("PE %d: view generation %d after one recovery, want 1", pe.ID(), g)
			}
			if e := core.CheckpointEpochOf(pe); e != 1 {
				return fmt.Errorf("PE %d: checkpoint epoch %d, want 1", pe.ID(), e)
			}
			if v, err := base.Load(5); v != 1234 || err != nil {
				return fmt.Errorf("PE %d: word on home 0 = %d (%v) after restore, want 1234", pe.ID(), v, err)
			}
			if v, err := base.Load(70); v != 5678 || err != nil {
				return fmt.Errorf("PE %d: word on home 2 = %d (%v) after restore, want 5678", pe.ID(), v, err)
			}
			pe.Barrier()
			return nil
		}

		if pe.ID() == 0 {
			if err := base.Store(5, 1234); err != nil { // block 0, home 0
				return err
			}
			if err := base.Store(70, 5678); err != nil { // block 2, home 2 — the victim's slice
				return err
			}
		}
		pe.Barrier()
		if err := pe.Checkpoint(); err != nil {
			return fmt.Errorf("PE %d: checkpoint: %v", pe.ID(), err)
		}

		// March into the kill: each PE reads from the next rank's home so
		// every survivor eventually touches a dead kernel (or, for the
		// victim, sends into its own closed station) and aborts. The time
		// bound catches the one pairing (0 -> 1) that never fails.
		remote := ((pe.ID() + 1) % 3) * 32
		for pe.Now() < 4*killAt {
			if _, err := base.Load(remote); err != nil {
				return err
			}
		}
		pe.Barrier()
		return nil
	}
}

// TestRunWithRecoveryRestoresSnapshot is the end-to-end tentpole test: a
// scheduled kill after the first checkpoint must abort the run, and the
// automatic restart must restore every kernel slice (including the dead
// PE's), the application blobs, and pass the history checker.
func TestRunWithRecoveryRestoresSnapshot(t *testing.T) {
	store, err := ckpt.OpenDir(t.TempDir())
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	const killAt = sim.Time(1 * sim.Second)
	cfg := recoverConfig(t, store, []simnet.Kill{{Node: 2, At: sim.Duration(killAt)}})

	res, rep, err := core.RunWithRecovery(cfg, 3, recoverProgram(killAt))
	if err != nil {
		t.Fatalf("RunWithRecovery: %v", err)
	}
	if ferr := res.FirstErr(); ferr != nil {
		t.Fatalf("post-recovery run failed: %v", ferr)
	}
	if !rep.Recovered() || rep.Attempts != 2 || len(rep.Recoveries) != 1 {
		t.Fatalf("report = %+v, want exactly one recovery over two attempts", rep)
	}

	ev := rep.Recoveries[0]
	if len(ev.DeadPEs) != 1 || ev.DeadPEs[0] != 2 {
		t.Errorf("DeadPEs = %v, want [2]", ev.DeadPEs)
	}
	if ev.Coordinator != 0 {
		t.Errorf("Coordinator = %d, want 0 (lowest live rank)", ev.Coordinator)
	}
	if ev.Gen != 1 || ev.Epoch != 1 {
		t.Errorf("restored gen=%d epoch=%d, want 1/1", ev.Gen, ev.Epoch)
	}
	if ev.DetectedAt < sim.Duration(killAt) {
		t.Errorf("DetectedAt = %v, before the kill at %v", ev.DetectedAt, killAt)
	}
	if ev.RollbackOps == 0 {
		t.Errorf("RollbackOps = 0, want > 0 (the read storm past the mark was discarded)")
	}

	if res.Total.Restores != 3 {
		t.Errorf("Total.Restores = %d, want 3", res.Total.Restores)
	}
	if res.Total.Checkpoints != 0 {
		// The final (restored) run verifies and exits without checkpointing.
		t.Errorf("Total.Checkpoints = %d in the restored run, want 0", res.Total.Checkpoints)
	}

	if res.History == nil {
		t.Fatal("History is nil with RecordHistory set")
	}
	if rpt := check.Check(res.History); !rpt.OK() {
		t.Fatalf("post-recovery history has violations:\n%s", rpt)
	}
}

// TestRecoveryRebindsDirectReadAndRings kills a PE with the one-sided paths
// on and checks the restarted cluster rebinds both to the FRESH segments:
// post-restore remote reads must resolve through the direct window and
// post-restore remote writes must be stores in place, against the
// re-imported memory (stale co-located bindings would read and write the
// corpse segments of the failed attempt).
func TestRecoveryRebindsDirectReadAndRings(t *testing.T) {
	store, err := ckpt.OpenDir(t.TempDir())
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	const killAt = sim.Time(1 * sim.Second)
	cfg := recoverConfig(t, store, []simnet.Kill{{Node: 2, At: sim.Duration(killAt)}})
	cfg.DirectReads = 1 // the paths in place are off by default under the simulated transport

	res, rep, err := core.RunWithRecovery(cfg, 3, func(pe *core.PE) error {
		restored := pe.RegisterCheckpoint(func() []byte { return nil }, func([]byte) {})
		base := core.AllocArray[int64](pe, 96)
		remote := ((pe.ID() + 1) % 3) * 32 // next rank's home

		if restored {
			// Snapshot state must be visible through the rebound window...
			if v, err := base.Load(5); v != 1234 || err != nil {
				return fmt.Errorf("PE %d: restored word = %d (%v), want 1234", pe.ID(), v, err)
			}
			// ...and fresh writes must be stored into the re-imported
			// segments, read back one-sidedly.
			i := remote + pe.ID()
			if err := base.Store(i, int64(100+pe.ID())); err != nil {
				return err
			}
			if v, err := base.Load(i); v != int64(100+pe.ID()) || err != nil {
				return fmt.Errorf("PE %d: one-sided write read back %d (%v), want %d", pe.ID(), v, err, 100+pe.ID())
			}
			pe.Barrier()
			return nil
		}

		if pe.ID() == 0 {
			if err := base.Store(5, 1234); err != nil { // block 0, home 0
				return err
			}
		}
		pe.Barrier()
		if err := pe.Checkpoint(); err != nil {
			return fmt.Errorf("PE %d: checkpoint: %v", pe.ID(), err)
		}
		// March into the kill (see recoverProgram).
		for pe.Now() < 4*killAt {
			if _, err := base.Load(remote); err != nil {
				return err
			}
		}
		pe.Barrier()
		return nil
	})
	if err != nil {
		t.Fatalf("RunWithRecovery: %v", err)
	}
	if ferr := res.FirstErr(); ferr != nil {
		t.Fatalf("post-recovery run failed: %v", ferr)
	}
	if !rep.Recovered() {
		t.Fatalf("kill triggered no recovery: %+v", rep)
	}
	if res.Total.DirectGM == 0 {
		t.Error("DirectGM = 0: restored run never used the rebound window")
	}
	if res.Total.RingGM == 0 {
		t.Error("RingGM = 0: restored run never stored in place")
	}
	if rpt := check.Check(res.History); !rpt.OK() {
		t.Fatalf("post-recovery history has violations:\n%s", rpt)
	}
}

// TestCheckpointCountersAndStore verifies the failure-free path: checkpoints
// commit generations, bump counters, and never trigger a recovery.
func TestCheckpointCountersAndStore(t *testing.T) {
	store, err := ckpt.OpenDir(t.TempDir())
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	cfg := recoverConfig(t, store, nil)

	res, rep, err := core.RunWithRecovery(cfg, 1, func(pe *core.PE) error {
		pe.RegisterCheckpoint(func() []byte { return []byte("s") }, func([]byte) {})
		base := core.AllocArray[int64](pe, 96)
		for round := 0; round < 3; round++ {
			if err := base.Store(pe.ID(), int64(round)); err != nil {
				return err
			}
			pe.Barrier()
			if err := pe.Checkpoint(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RunWithRecovery: %v", err)
	}
	if ferr := res.FirstErr(); ferr != nil {
		t.Fatalf("run failed: %v", ferr)
	}
	if rep.Recovered() {
		t.Fatalf("unexpected recovery: %+v", rep)
	}
	if res.Total.Checkpoints != 9 {
		t.Errorf("Total.Checkpoints = %d, want 9 (3 PEs x 3 epochs)", res.Total.Checkpoints)
	}
	if res.Total.SnapshotBytes == 0 {
		t.Error("Total.SnapshotBytes = 0, want > 0")
	}
	gen, n, ok, err := store.Latest()
	if err != nil || !ok {
		t.Fatalf("Latest: gen=%d ok=%v err=%v", gen, ok, err)
	}
	if gen != 3 || n != 3 {
		t.Errorf("Latest = gen %d numPE %d, want 3/3", gen, n)
	}
}

// tamperingStore corrupts every stored slice file on disk before the first
// read, modelling at-rest corruption; the store's CRC/SHA-256 check must
// refuse the snapshot and recovery must abort with a clear error.
type tamperingStore struct {
	ckpt.Store
	root     string
	tampered bool
}

func (s *tamperingStore) ReadSlice(gen uint64, pe int) ([]byte, error) {
	if !s.tampered {
		s.tampered = true
		files, err := filepath.Glob(filepath.Join(s.root, "g*", "p*"))
		if err != nil || len(files) == 0 {
			return nil, fmt.Errorf("tamperingStore: no slice files to corrupt (%v)", err)
		}
		for _, p := range files {
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			data[len(data)-1] ^= 0xff
			if err := os.WriteFile(p, data, 0o644); err != nil {
				return nil, err
			}
		}
	}
	return s.Store.ReadSlice(gen, pe)
}

// TestRecoveryRejectsCorruptSnapshot flips bits in the snapshot's slice files
// between failure and restart: RunWithRecovery must surface the integrity
// failure instead of restoring garbage.
func TestRecoveryRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	inner, err := ckpt.OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	store := &tamperingStore{Store: inner, root: dir}
	const killAt = sim.Time(1 * sim.Second)
	cfg := recoverConfig(t, store, []simnet.Kill{{Node: 2, At: sim.Duration(killAt)}})

	_, rep, err := core.RunWithRecovery(cfg, 3, recoverProgram(killAt))
	if err == nil {
		t.Fatal("RunWithRecovery accepted a corrupted snapshot")
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error %q does not mention corruption", err)
	}
	if rep.Recovered() {
		t.Fatalf("recovery claimed success from a corrupt snapshot: %+v", rep)
	}
}

// TestRecoveryRejectsMisplacedBlock commits snapshots that pass every
// integrity check but that the rebuilt cluster cannot restore: PE 1's slice
// lists a block PE 0 homes, or its directory overrides a block's home, or
// escrows a block, to a PE the cluster does not have. Restarting from one
// must fail with an error naming the PE and the block, before any kernel of
// the rebuilt cluster is built.
func TestRecoveryRejectsMisplacedBlock(t *testing.T) {
	cases := []struct {
		name   string
		blocks []gmem.BlockSnapshot
		dir    *ckpt.DirectorySnapshot
		want   string
	}{
		{
			name:   "foreign-block",
			blocks: []gmem.BlockSnapshot{{Index: 3, Words: make([]int64, 32)}}, // 3 % 3 = PE 0
			want:   "PE 1: block 3 is homed at PE 0",
		},
		{
			name: "override-to-no-PE",
			dir:  &ckpt.DirectorySnapshot{Overrides: [][2]uint64{{1, 5}}},
			want: "PE 1: block 1 overridden to PE 5 of 3",
		},
		{
			name: "escrow-to-no-PE",
			dir: &ckpt.DirectorySnapshot{
				Overrides: [][2]uint64{{1, 0}},
				Escrow: []ckpt.EscrowSnapshot{
					{Dst: 4, Block: gmem.BlockSnapshot{Index: 1, Words: make([]int64, 32)}},
				},
			},
			want: "PE 1: block 1 escrowed for PE 4 of 3",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store, err := ckpt.OpenDir(t.TempDir())
			if err != nil {
				t.Fatalf("OpenDir: %v", err)
			}
			for pe := 0; pe < 3; pe++ {
				var slice ckpt.Slice
				slice.Epoch = 1
				if pe == 1 {
					slice.Kernel = ckpt.EncodeKernelStateDir(32, tc.blocks, tc.dir)
				} else {
					slice.Kernel = ckpt.EncodeKernelState(32, nil)
				}
				if err := store.WriteSlice(1, pe, ckpt.EncodeSlice(slice)); err != nil {
					t.Fatalf("WriteSlice: %v", err)
				}
			}
			if err := store.Commit(1, 3); err != nil {
				t.Fatalf("Commit: %v", err)
			}

			const killAt = sim.Time(1 * sim.Second)
			cfg := recoverConfig(t, store, []simnet.Kill{{Node: 2, At: sim.Duration(killAt)}})
			_, rep, err := core.RunWithRecovery(cfg, 3, func(pe *core.PE) error {
				base := core.AllocArray[int64](pe, 96)
				remote := ((pe.ID() + 1) % 3) * 32
				for pe.Now() < 4*killAt {
					if _, err := base.Load(remote); err != nil {
						return err
					}
				}
				pe.Barrier()
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunWithRecovery: err = %v, want one containing %q", err, tc.want)
			}
			if rep.Attempts != 1 {
				t.Fatalf("%d cluster runs, want 1: the rebuilt cluster must not start", rep.Attempts)
			}
		})
	}
}
