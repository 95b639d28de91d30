package stress_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/check"
	"repro/internal/check/stress"
	"repro/internal/core"
	"repro/internal/gmem"
	"repro/internal/platform"
	"repro/internal/sim"
)

// The golden digests below were captured from the checker as it stood before
// the consistency-tier rules landed. Strong-mode histories must keep
// producing bit-identical reports through any checker refactor: the history
// digest pins the recorded events (no new event kinds or mode tags may leak
// into strong runs) and the report digest pins the checker's verdict,
// violation kinds, messages, and evidence ordering.
func reportDigest(rep *check.Report) string {
	sum := sha256.Sum256([]byte(rep.String()))
	return hex.EncodeToString(sum[:])
}

func TestCheckerStrongGoldenClean(t *testing.T) {
	res, err := stress.Run(stress.Options{
		Seed: 42, NumPE: 4, OpsPerPE: 150,
		Caching: true, Loss: 0.1, Jitter: 300 * sim.Microsecond,
	})
	if err != nil {
		t.Fatalf("stress run: %v", err)
	}
	if got, want := res.History.Digest(), "d53a7adb6f5b3f8fe1f4f9a10ffa584d80ddfd33d5dd0937b14408469c2a3673"; got != want {
		t.Errorf("history digest drifted from seed recorder:\n got %s\nwant %s", got, want)
	}
	if !res.Report.OK() {
		t.Fatalf("expected consistent history, got:\n%s", res.Report)
	}
	if got, want := reportDigest(res.Report), "6c2503a31b786adaaa6fdcdd08fd4ac064aef7a6254fff38d36f33222f8eae58"; got != want {
		t.Errorf("report digest drifted from seed checker:\n got %s\nwant %s\nreport:\n%s", got, want, res.Report)
	}
}

func TestCheckerStrongGoldenViolations(t *testing.T) {
	wantGoldenViolations(t, stress.Options{
		Seed: 3, NumPE: 4, OpsPerPE: 300,
		Caching: true, Fault: core.FaultDropInvalidations,
	}, "ab1270739a92b5bc24afb0c7f053555888fb08937c5460d479d1224523cc01f3",
		5, "104c9f111291969d10d6d9819d3b519d54dade3440e580a95ad2eff80082e254")
}

// The release and lease goldens pin the tier rules' verdicts on the rows
// core's TestStressCatchesSkippedReleaseFlush and
// TestStressCatchesIgnoredLeaseExpiry run. They were captured while each tier
// still had its own observer function, before one observer discipline took
// over all three; both rows fill the report (maxViolations).
func TestCheckerReleaseGoldenViolations(t *testing.T) {
	wantGoldenViolations(t, stress.Options{
		Seed: 5, NumPE: 4, OpsPerPE: 400, Modes: true,
		Fault: core.FaultSkipReleaseFlush,
	}, "9596ab613c22cf5611a3885c6783f768760e7a673016f3f5242b75369548d250",
		16, "d40be6f79bc920340cfe45af96933e33f19c2422f90c60186c940bdf1f5aad0e")
}

func TestCheckerLeaseGoldenViolations(t *testing.T) {
	wantGoldenViolations(t, stress.Options{
		Seed: 19, NumPE: 4, OpsPerPE: 400, Modes: true,
		LeaseDuration: 100 * sim.Microsecond,
		Fault:         core.FaultIgnoreLeaseExpiry,
	}, "19046198ffed4375c9b54bb929b3e9120403b05dca9d476a3bd9ee26fbbe9630",
		16, "430c209220ce081a8c02291729c3cf7ea7287cf951f91bbfd1514ee9b8479130")
}

// wantGoldenViolations runs o and compares its history digest, violation
// count and report digest with the captured ones.
func wantGoldenViolations(t *testing.T, o stress.Options, history string, violations int, report string) {
	t.Helper()
	res, err := stress.Run(o)
	if err != nil {
		t.Fatalf("stress run: %v", err)
	}
	if got := res.History.Digest(); got != history {
		t.Errorf("history digest drifted from seed recorder:\n got %s\nwant %s", got, history)
	}
	if res.Report.OK() {
		t.Fatalf("expected violations from %v", o.Fault)
	}
	if got := len(res.Report.Violations); got != violations {
		t.Errorf("violation count drifted: got %d want %d", got, violations)
	}
	if got := reportDigest(res.Report); got != report {
		t.Errorf("report digest drifted from seed checker:\n got %s\nwant %s\nreport:\n%s", got, report, res.Report)
	}
}

// The checker mirrors the tags gmem.Mode puts on history events as untyped
// bytes to stay free of runtime imports; this pins the two enumerations
// together. Cached words carry the strong tag: they promise the strong
// contract and no history may tell them apart.
func TestModeTagsMirrorGmem(t *testing.T) {
	if gmem.ModeStrong.Tag() != 0 || gmem.ModeRelease.Tag() != 1 || gmem.ModeLease.Tag() != 2 ||
		gmem.ModeCached.Tag() != 0 || gmem.NumModes != 4 {
		t.Fatalf("gmem.Mode tags moved; update the check package's mode tags to match")
	}
}

// ladderGoldens pins one seeded run per branch of the GM access ladder. The
// digests were captured at the commit before the access pipeline replaced the
// per-operation ladders (PR 13), so "the refactor is bit-identical" is this
// test, not a claim: the digest covers every recorded event's kind, address,
// arguments, result, flags, mode tag and virtual-time interval, and virtual
// time moves with every message, local-access charge and retry.
// mixed-tiers-caching was captured again when caching became the fourth
// per-allocation mode (its release and lease regions stopped being cached as
// well), caching-onesided-mixed-tiers for the first time then. The five lossy
// and kill rows were captured again when range operations began to retry
// (PR 19): until then the workload replaced every block, gather and scatter
// with a scalar under a fault schedule; the engine change itself had left all
// of them bit-identical. (TestCheckerStrongGoldenClean is lossy and cached,
// the one combination that keeps the scalar stand-ins: stress.lossyCached.)
// The one-sided rows here and in TestLadderGoldenPrograms, but for
// caching-onesided-mixed-tiers (whose atomics are cached-mode words), were
// captured again when fetch-add and CAS to a co-located home began to apply
// in place instead of as simulated messages; all of them, and
// caching-onesided-mixed-tiers with them, once more when block reads, block
// writes, gathers and scatters to a co-located home did the same.
var ladderGoldens = []struct {
	name string
	o    stress.Options
	want string
}{
	{"strong-message", stress.Options{Seed: 21, NumPE: 4, OpsPerPE: 300}, "0fb833e71707cce9f8fe1e234b444972b1695852ccad531c9be17b072de3a397"},
	{"mixed-tiers", stress.Options{Seed: 7, NumPE: 4, OpsPerPE: 400, Modes: true, LeaseDuration: 100 * sim.Microsecond}, "60ce4cacd9db4c82980362b80e4cba864f1222f9876eb2663e0e6433a62bb6c4"},
	{"mixed-tiers-caching", stress.Options{Seed: 8, NumPE: 4, OpsPerPE: 300, Modes: true, Caching: true}, "2b9e15e785ca6f9de8ef71312cb30c627518116d827ab6ba976480497330c1af"},
	{"caching-fault-free", stress.Options{Seed: 9, NumPE: 4, OpsPerPE: 300, Caching: true}, "e924f6d44305681474279d8546e35bd2087111dde0cd033a5667c7bc2300c0e7"},
	{"caching-onesided-mixed-tiers", stress.Options{Seed: 12, NumPE: 4, OpsPerPE: 300, Caching: true, Modes: true, DirectReads: 1}, "bfd89e9d4f60760ec41cb508966cdfbd6b9e5eca6a5f9a4f3845bc50a61815ba"},
	{"onesided", stress.Options{Seed: 9, NumPE: 4, OpsPerPE: 300, DirectReads: 1}, "8f194534598ccefa5eb520731d4147d768c2293d91a3720e3998f4afa6403f8b"},
	{"onesided-mixed-tiers", stress.Options{Seed: 10, NumPE: 4, OpsPerPE: 300, DirectReads: 1, Modes: true}, "f571e7041165dee930b13e80c0dbf58cf4521ba03579eaea94e154da000d1203"},
	{"loss-retry", stress.Options{Seed: 42, NumPE: 4, OpsPerPE: 200, Loss: 0.1, Jitter: 300 * sim.Microsecond}, "fcb4d0f68eaf778ffb669a795cb2f06573625538ff343750f446e557f5f6351a"},
	{"loss-retry-onesided", stress.Options{Seed: 42, NumPE: 4, OpsPerPE: 150, Loss: 0.05, Jitter: 300 * sim.Microsecond, DirectReads: 1}, "78b8719a1e6199a3dd549bbef2080daf0dac6dc214b583d6e0a4df0147b931fc"},
	{"loss-retry-mixed-tiers", stress.Options{Seed: 43, NumPE: 4, OpsPerPE: 200, Loss: 0.1, Modes: true}, "db7b32b85956c762ab26f273ddb8cb5b1ef7d171b820c7ef390b86ce38888135"},
	{"kill", stress.Options{Seed: 11, NumPE: 4, OpsPerPE: 200, Loss: 0.02, Modes: true, KillPE: 2, KillAt: 2 * sim.Second}, "143c9fb420252af853a776872505f3612dd8e5f3f2aa3aef02d526e3fc9050d0"},
	{"kill-onesided", stress.Options{Seed: 13, NumPE: 4, OpsPerPE: 150, Loss: 0.02, KillPE: 2, KillAt: 100 * sim.Millisecond, DirectReads: 1}, "d6eb66fad2dc87cd7b81725a40509290373ad3ffcb2324902507f677452437f3"},
	{"churn-migrate", stress.Options{Seed: 3, NumPE: 5, OpsPerPE: 200, Latent: 1, JoinAtOp: 50, LeavePE: 2, LeaveAtOp: 100, MigrateEvery: 30}, "860746dcb4113b8919e36749d09cc82fa70b755edb4c5006114009f539432bed"},
	{"churn-migrate-mixed-tiers", stress.Options{Seed: 4, NumPE: 5, OpsPerPE: 200, Modes: true, Latent: 1, JoinAtOp: 50, LeavePE: 2, LeaveAtOp: 100, MigrateEvery: 30}, "2283588e47275bd93a16e1d1efa608bbb7426b9e58bb461da54f709a832706dd"},
	{"churn-migrate-onesided", stress.Options{Seed: 5, NumPE: 5, OpsPerPE: 200, Modes: true, Latent: 1, JoinAtOp: 50, LeavePE: 2, LeaveAtOp: 100, MigrateEvery: 20, DirectReads: 1}, "7b27fc2e1faa73103b789968503594d6aa18633d04645d27ae458d987860e734"},
}

func TestLadderGoldenDigests(t *testing.T) {
	for _, g := range ladderGoldens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			res, err := stress.Run(g.o)
			if err != nil {
				t.Fatalf("stress run: %v", err)
			}
			if res.Err != nil {
				t.Fatalf("PE error: %v", res.Err)
			}
			if !res.Report.OK() {
				t.Fatalf("checker violations:\n%s", res.Report)
			}
			if got := res.History.Digest(); got != g.want {
				t.Errorf("history digest drifted (%d events):\n got %s\nwant %s", res.History.Len(), got, g.want)
			}
		})
	}
}

// tierSpanProgram covers what the stress workload's single-tier regions
// cannot: block reads and writes that SPAN allocations of different
// consistency tiers (split per tier by the mode table), and atomics on
// lease-mode words (strong protocol, lease dropped first).
func tierSpanProgram(pe *core.PE) error {
	const words = 48
	base := pe.Alloc(words)
	pe.AllocMode(words, gmem.ModeRelease)
	pe.AllocMode(words, gmem.ModeLease)
	pe.Alloc(words)
	ctrs := pe.AllocMode(4, gmem.ModeLease)
	rng := sim.NewRand(99 ^ uint64(pe.ID()+1)*0x9e3779b97f4a7c15)
	uniq := int64(pe.ID()+1) << 40
	for i := 0; i < 96; i++ {
		n := 8 + rng.Intn(40)
		a := base + uint64(rng.Intn(4*words-n))
		var err error
		switch i % 4 {
		case 0:
			_, err = pe.GMReadBlockErr(a, n)
		case 2:
			uniq++
			if err = pe.GMWriteErr(a, uniq); err == nil {
				_, err = pe.GMReadErr(a + uint64(n) - 1)
			}
		case 1:
			ws := make([]int64, n)
			for j := range ws {
				uniq++
				ws[j] = uniq
			}
			err = pe.GMWriteBlockErr(a, ws)
		case 3:
			c := ctrs + uint64(rng.Intn(4))
			if _, err = pe.FetchAddErr(c, 1); err == nil {
				_, err = pe.GMReadErr(c)
			}
		}
		if err != nil {
			return err
		}
		if i%16 == 15 {
			pe.Barrier()
		}
	}
	return nil
}

// TestLadderGoldenPrograms pins a ladder branch the stress workload has no
// option for: tier-spanning block operations. (PEs bound to a namespace are
// pinned the same way by internal/core's TestNamespaceGoldenPrograms, which
// can reach the PE-side binding.)
func TestLadderGoldenPrograms(t *testing.T) {
	for _, g := range []struct {
		name   string
		direct int
		want   string
	}{
		{"tier-span-message", -1, "bc9618b87563ff355173e6c86c2bd2337ca7d55b00587c2e70192c5acfaabdeb"},
		{"tier-span-onesided", 1, "ff3f8db12abef1c5e5546a0a3857cf8c38a5afa09af942e42e0a63742aca355d"},
	} {
		res, err := core.Run(core.Config{
			NumPE: 4, Platform: platform.SparcSunOS, Seed: 77, RecordHistory: true,
			DirectReads: g.direct, LeaseDuration: 200 * sim.Microsecond,
		}, tierSpanProgram)
		if err != nil {
			t.Fatalf("%s: run: %v", g.name, err)
		}
		if err := res.FirstErr(); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := res.Total.NsDenials; got != 0 {
			t.Errorf("%s: NsDenials = %d, want 0", g.name, got)
		}
		if rep := check.Check(res.History); !rep.OK() {
			t.Fatalf("%s: checker violations:\n%s", g.name, rep)
		}
		if got := res.History.Digest(); got != g.want {
			t.Errorf("%s: history digest drifted (%d events):\n got %s\nwant %s", g.name, res.History.Len(), got, g.want)
		}
	}
}
