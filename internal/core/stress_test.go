package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/check/stress"
	"repro/internal/core"
	"repro/internal/sim"
)

// runStress executes one seeded configuration and fails the test on a PE
// error or a consistency violation: the gates every row of the sweeps must
// pass (stress.Case.Verify), with no schedule gate added.
func runStress(t *testing.T, o stress.Options) *stress.Result {
	t.Helper()
	return runCase(t, stress.Case{Options: o}, "stress")
}

// runCase runs one sweep row and fails the test with the replay command if
// the row fails its gates.
func runCase(t *testing.T, c stress.Case, flag string) *stress.Result {
	t.Helper()
	res, err := stress.Run(c.Options)
	if err != nil {
		t.Fatalf("stress.Run(%v): %v", c.Options, err)
	}
	if err := c.Verify(res); err != nil {
		t.Fatalf("stress (%v): %v\nreplay with `dsebench -%s -seed %d`", c.Options, err, flag, c.Seed)
	}
	return res
}

// TestStressSuites runs the three seeded sweeps row for row as
// `dsebench -stress|-recover|-membership -seed 1` does: the full consistency
// matrix (up to 8 PEs at 15% loss under caching, kills, sharded, one-sided
// and mixed-tier legs, cached words beside one-sided traffic), the
// kill-and-recover schedules, one of them over the window and rings, and the
// elastic-membership churn. The nightly job runs the same rows on a date seed.
func TestStressSuites(t *testing.T) {
	for _, name := range stress.SuiteNames {
		for _, c := range stress.Suite(name, 1) {
			t.Run(name+"/"+c.String(), func(t *testing.T) {
				runCase(t, c, name)
			})
		}
	}
}

// TestStressLossyCaching pins the harshest protocol corner in tier-1: heavy
// frame loss with caching on, where lost invalidations meet the retry dedup
// window. Beyond consistency, it demands that every operation eventually
// completed: before the invalidation-retransmit fix, a lost OpInvalidate
// wedged its round forever (the writer's retries were silently absorbed as
// in-progress duplicates) and ops failed despite 30 retries.
func TestStressLossyCaching(t *testing.T) {
	for _, seed := range []uint64{7, 19, 31} {
		res := runStress(t, stress.Options{
			Seed: seed, NumPE: 4, OpsPerPE: 300, Caching: true, Loss: 0.25,
		})
		for _, e := range res.History.Events {
			if e.Failed {
				t.Errorf("seed %d: operation never completed (wedged invalidation round?): %v", seed, e)
			}
		}
	}
}

// TestStressModesMatrix mixes all three consistency tiers (strong, release,
// lease) in one run and sweeps the fault axes — clean, caching, loss — over
// them. Every configuration must stay checker-clean under the per-mode rules,
// and every fault-free run must actually exercise the new machinery: WC
// buffer flushes at sync edges and lease grants on the lease region.
func TestStressModesMatrix(t *testing.T) {
	for _, loss := range []float64{0, 0.05} {
		for _, caching := range []bool{false, true} {
			o := stress.Options{
				Seed:     41 + uint64(loss*100),
				NumPE:    4,
				OpsPerPE: 200,
				Caching:  caching,
				Loss:     loss,
				Modes:    true,
			}
			t.Run(fmt.Sprintf("loss%02.0f_cache%v", loss*100, caching), func(t *testing.T) {
				res := runStress(t, o)
				if loss == 0 {
					if res.WCFlushes == 0 {
						t.Error("fault-free modes run recorded no WC buffer flushes")
					}
					if res.LeaseGrants == 0 {
						t.Error("fault-free modes run granted no read leases")
					}
				}
			})
		}
	}
}

// TestStressModesLeaseExpiry pins that leases actually expire and re-fetch
// under a short lease window: a run long enough to outlive many lease
// durations must record expiries, not just grants — otherwise the expiry
// path (and the staleness bound it enforces) is dead code in every test.
func TestStressModesLeaseExpiry(t *testing.T) {
	res := runStress(t, stress.Options{
		Seed: 7, NumPE: 4, OpsPerPE: 400, Modes: true,
		LeaseDuration: 100 * sim.Microsecond,
	})
	if res.LeaseGrants == 0 {
		t.Fatal("no leases granted")
	}
	if res.LeaseExpiries == 0 {
		t.Error("no lease ever expired despite a 100µs window — expiry path untested")
	}
}

// TestStressModesReplayDeterministic: a mixed-mode run must stay a pure
// function of Options — WC buffering, flush coalescing and lease
// grant/expiry included — so a printed seed still replays any tier bug.
func TestStressModesReplayDeterministic(t *testing.T) {
	o := stress.Options{
		Seed: 42, NumPE: 4, OpsPerPE: 200, Caching: true, Loss: 0.1,
		Jitter: 300 * sim.Microsecond,
		Modes:  true,
	}
	a, err := stress.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := stress.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if da, db := a.History.Digest(), b.History.Digest(); da != db {
		t.Fatalf("same modes seed, different histories: %s vs %s", da, db)
	}
	if a.History.Len() == 0 {
		t.Fatal("empty history")
	}
}

// TestStressModesMembershipChurn runs the mixed-tier workload through live
// membership churn: a latent PE joins, an active PE leaves, and PE 1 keeps
// re-homing ranges — half the time the release region itself, so handoffs
// overlap unflushed WC buffers. Join/leave/migrate grants fence every PE
// (flush + lease drop), so the history must check out cleanly.
func TestStressModesMembershipChurn(t *testing.T) {
	for _, seed := range []uint64{3, 17} {
		o := stress.Options{
			Seed: seed, NumPE: 5, OpsPerPE: 200, Modes: true,
			Latent: 1, JoinAtOp: 50,
			LeavePE: 2, LeaveAtOp: 100,
			MigrateEvery: 30,
		}
		res := runStress(t, o)
		if res.Joins < 1 || res.Leaves != 1 {
			t.Errorf("seed %d: joins=%d leaves=%d, want >=1 and 1", seed, res.Joins, res.Leaves)
		}
		if res.MigratedBlocks == 0 {
			t.Errorf("seed %d: no blocks changed home", seed)
		}
		if res.WCFlushes == 0 {
			t.Errorf("seed %d: churn run never flushed a WC buffer", seed)
		}
	}
}

// TestStressCatchesSkippedReleaseFlush turns on the kernel's test-only
// release fault — sync edges silently discard the WC buffer instead of
// flushing it, while the fence still claims publication — and demands the
// checker convict: readers after the fence see values the writes never
// delivered, or never see writes the fence promised were published.
func TestStressCatchesSkippedReleaseFlush(t *testing.T) {
	res, err := stress.Run(stress.Options{
		Seed: 5, NumPE: 4, OpsPerPE: 400, Modes: true,
		Fault: core.FaultSkipReleaseFlush,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.OK() {
		t.Fatal("checker passed a run whose release flushes were silently dropped — it cannot see broken publication")
	}
	found := false
	for _, v := range res.Report.Violations {
		if strings.HasPrefix(v.Kind, "release-") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no release-* violation among %d; the conviction came from the wrong rule set:\n%s",
			len(res.Report.Violations), res.Report)
	}
}

// TestStressCatchesIgnoredLeaseExpiry turns on the kernel's test-only lease
// fault — expired leases keep serving cached reads forever — and demands the
// checker flag the overstay: a lease-mode read observing a value older than
// its recorded grant-to-expiry window is exactly the staleness the lease
// clock exists to bound.
func TestStressCatchesIgnoredLeaseExpiry(t *testing.T) {
	res, err := stress.Run(stress.Options{
		Seed: 19, NumPE: 4, OpsPerPE: 400, Modes: true,
		LeaseDuration: 100 * sim.Microsecond,
		Fault:         core.FaultIgnoreLeaseExpiry,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.OK() {
		t.Fatal("checker passed a run whose leases never expired — it cannot see stale lease reads")
	}
	found := false
	for _, v := range res.Report.Violations {
		if v.Kind == "lease-overstay" || strings.HasPrefix(v.Kind, "lease-") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no lease-* violation among %d; the conviction came from the wrong rule set:\n%s",
			len(res.Report.Violations), res.Report)
	}
}

// TestStressCatchesBrokenInvalidation turns on the kernel's test-only
// coherence fault (writes acknowledged without invalidating remote caches)
// and demands the checker notice: a harness that cannot see a deliberately
// broken protocol proves nothing about a working one.
func TestStressCatchesBrokenInvalidation(t *testing.T) {
	res, err := stress.Run(stress.Options{
		Seed: 3, NumPE: 4, OpsPerPE: 300, Caching: true,
		Fault: core.FaultDropInvalidations,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.OK() {
		t.Fatal("checker passed a run with invalidations disabled — it cannot detect stale reads")
	}
}

// TestStressKillRecovers is the recover-mode counterpart of the stress
// suite's kill rows: the victim dies abruptly mid-run, and the run must
// nonetheless COMPLETE — checkpoint/restart rolls the cluster back to the
// last snapshot, reruns the remaining schedule, and the merged history
// (snapshot baseline + rerun) must satisfy the checker. Several seeds vary
// where the kill lands relative to the checkpoint cadence.
func TestStressKillRecovers(t *testing.T) {
	for _, seed := range []uint64{1, 11, 23} {
		res := runCase(t, stress.Case{MustRecover: true, Options: stress.Options{
			Seed: seed, NumPE: 4, OpsPerPE: 300, Recover: true, CkptEvery: 32,
			KillPE: 2, KillAt: 500 * sim.Millisecond,
		}}, "recover")
		if res.SnapshotBytes == 0 {
			t.Errorf("seed %d: no snapshot bytes recorded", seed)
		}
	}
}

// TestStressRecoverDeterministic: recover mode must stay a pure function of
// Options end-to-end — failure point, snapshot, and rerun included.
func TestStressRecoverDeterministic(t *testing.T) {
	o := stress.Options{
		Seed: 11, NumPE: 4, OpsPerPE: 300, Recover: true, CkptEvery: 32,
		KillPE: 2, KillAt: 500 * sim.Millisecond,
	}
	a, err := stress.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := stress.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if da, db := a.History.Digest(), b.History.Digest(); da != db {
		t.Fatalf("same recover seed, different histories: %s vs %s", da, db)
	}
}

// TestStressRecoverCorruptSnapshot flips bits in the stored snapshot before
// the restart reads it: the store's CRC/content-hash check must refuse the
// generation and the run must fail loudly rather than restore garbage.
func TestStressRecoverCorruptSnapshot(t *testing.T) {
	_, err := stress.Run(stress.Options{
		Seed: 11, NumPE: 4, OpsPerPE: 300, Recover: true, CkptEvery: 32,
		KillPE: 2, KillAt: 500 * sim.Millisecond,
		FaultCorruptSnapshot: true,
	})
	if err == nil {
		t.Fatal("corrupted snapshot was accepted")
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error %q does not mention corruption", err)
	}
}

// TestStressMembershipChurn runs the full fault-free op mix while the
// membership churns live: a latent PE joins a quarter of the way in, an
// active PE leaves halfway through, and PE 1 keeps re-homing random block
// ranges throughout — every handoff overlapping application traffic. The
// history must check out with zero violations and, since nothing is lossy,
// every operation must complete.
func TestStressMembershipChurn(t *testing.T) {
	for _, seed := range []uint64{3, 17} {
		o := stress.Options{
			Seed: seed, NumPE: 5, OpsPerPE: 200,
			Latent: 1, JoinAtOp: 50,
			LeavePE: 2, LeaveAtOp: 100,
			MigrateEvery: 30,
		}
		res := runCase(t, stress.Case{Options: o, MinEvents: 3}, "membership")
		if res.Joins < 1 || res.Leaves != 1 {
			t.Errorf("seed %d: joins=%d leaves=%d, want >=1 and 1", seed, res.Joins, res.Leaves)
		}
		if res.MigratedBlocks == 0 {
			t.Errorf("seed %d: no blocks changed home", seed)
		}
		for _, e := range res.History.Events {
			if e.Failed {
				t.Errorf("seed %d: operation never completed during churn: %v", seed, e)
			}
		}
	}
}

// TestStressMembershipReplayDeterministic demands the same membership
// schedule replays to a bit-identical history: joins, leaves and migrations
// are as replayable as any other stress event.
func TestStressMembershipReplayDeterministic(t *testing.T) {
	o := stress.Options{
		Seed: 29, NumPE: 4, OpsPerPE: 150,
		Latent: 1, JoinAtOp: 40, MigrateEvery: 25,
	}
	a, err := stress.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := stress.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if da, db := a.History.Digest(), b.History.Digest(); da != db {
		t.Fatalf("same membership schedule, different histories: %s vs %s", da, db)
	}
}

// TestStressMembershipKillOverlapsMigration overlaps a station kill with
// live migrations and a join: PE 1 re-homes ranges every 20 ops (sometimes
// toward the doomed PE), PE 3's station dies mid-run, and the latent PE 4
// joins through it all. Survivor operations that completed must form a
// consistent history — a handoff stranded by the kill may fail ops, but it
// must never lose or duplicate an acknowledged write.
func TestStressMembershipKillOverlapsMigration(t *testing.T) {
	runCase(t, stress.Case{MinEvents: 3, Options: stress.Options{
		Seed: 23, NumPE: 5, OpsPerPE: 200, Loss: 0.02,
		KillPE: 3, KillAt: 2 * sim.Second,
		Latent: 1, JoinAtOp: 30, MigrateEvery: 20,
	}}, "membership")
}

// TestStressEscrowReofferChainedHandoff replays a schedule where a block is
// handed off twice in quick succession (a leave re-homes it to the successor,
// then a migrate range immediately moves it on) while the first home's escrow
// re-offer is still in flight. The stale re-offer lands at the intermediate
// home after it has already extracted the block toward the final destination;
// adopting it used to resurrect both the stale data and a local ownership
// claim that the commit broadcast's staleness guard then refused to correct —
// a permanent split brain with one-sided reads and ring writes split across
// two live copies. The install handler must refuse payloads for blocks it
// currently holds in escrow.
func TestStressEscrowReofferChainedHandoff(t *testing.T) {
	runCase(t, stress.Case{MinEvents: 3, Options: stress.Options{
		Seed: 9, NumPE: 4, OpsPerPE: 800, DirectReads: 1,
		Latent: 1, JoinAtOp: 200,
		LeavePE: 2, LeaveAtOp: 400, MigrateEvery: 100,
	}}, "membership")
}
