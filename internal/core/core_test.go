package core

import (
	"fmt"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

// simCfg is the base configuration for simulated-cluster tests.
func simCfg(n int) Config {
	return Config{NumPE: n, Platform: platform.SparcSunOS, Seed: 1}
}

// allTransports runs the test body against every transport.
func allTransports(t *testing.T, n int, body Program) {
	t.Helper()
	for _, tr := range []TransportKind{TransportSim, TransportInproc, TransportTCP} {
		tr := tr
		t.Run(string(tr), func(t *testing.T) {
			cfg := simCfg(n)
			cfg.Transport = tr
			res, err := Run(cfg, body)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := res.FirstErr(); err != nil {
				t.Fatalf("program error: %v", err)
			}
		})
	}
}

func TestRunTrivialProgram(t *testing.T) {
	allTransports(t, 4, func(pe *PE) error {
		if pe.ID() < 0 || pe.ID() >= pe.N() {
			return fmt.Errorf("bad identity %d/%d", pe.ID(), pe.N())
		}
		return nil
	})
}

func TestGMRemoteReadWrite(t *testing.T) {
	allTransports(t, 4, func(pe *PE) error {
		base := pe.Alloc(256) // spans all homes
		// Each PE writes a distinct stripe, everyone reads everything back.
		for i := pe.ID(); i < 256; i += pe.N() {
			mustWrite(pe, base+uint64(i), int64(1000+i))
		}
		pe.Barrier()
		for i := 0; i < 256; i++ {
			if v := mustRead(pe, base+uint64(i)); v != int64(1000+i) {
				return fmt.Errorf("PE %d: word %d = %d, want %d", pe.ID(), i, v, 1000+i)
			}
		}
		return nil
	})
}

func TestGMBlockOpsSpanHomes(t *testing.T) {
	allTransports(t, 3, func(pe *PE) error {
		base := pe.Alloc(500)
		if pe.ID() == 0 {
			ws := make([]int64, 500)
			for i := range ws {
				ws[i] = int64(i * 3)
			}
			mustWriteBlock(pe, base, ws)
		}
		pe.Barrier()
		got := mustReadBlock(pe, base, 500)
		for i, v := range got {
			if v != int64(i*3) {
				return fmt.Errorf("PE %d: block word %d = %d", pe.ID(), i, v)
			}
		}
		return nil
	})
}

func TestFetchAddJobCounter(t *testing.T) {
	const jobs = 100
	for _, tr := range []TransportKind{TransportSim, TransportInproc, TransportTCP} {
		tr := tr
		t.Run(string(tr), func(t *testing.T) {
			cfg := simCfg(5)
			cfg.Transport = tr
			claimed := make([][]int64, 5)
			res, err := Run(cfg, func(pe *PE) error {
				counter := pe.Alloc(1)
				var mine []int64
				for {
					j := mustFetchAdd(pe, counter, 1)
					if j >= jobs {
						break
					}
					mine = append(mine, j)
				}
				claimed[pe.ID()] = mine
				return nil
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := res.FirstErr(); err != nil {
				t.Fatal(err)
			}
			seen := make(map[int64]bool)
			for _, mine := range claimed {
				for _, j := range mine {
					if seen[j] {
						t.Fatalf("job %d claimed twice", j)
					}
					seen[j] = true
				}
			}
			if len(seen) != jobs {
				t.Fatalf("claimed %d jobs, want %d", len(seen), jobs)
			}
		})
	}
}

func TestBarrierOrdersPhases(t *testing.T) {
	allTransports(t, 6, func(pe *PE) error {
		flags := pe.Alloc(6)
		for phase := 0; phase < 4; phase++ {
			mustWrite(pe, flags+uint64(pe.ID()), int64(phase+1))
			pe.Barrier()
			// After the barrier, every PE must have finished its write.
			for i := 0; i < 6; i++ {
				if v := mustRead(pe, flags+uint64(i)); v != int64(phase+1) {
					return fmt.Errorf("PE %d phase %d: flag %d = %d", pe.ID(), phase, i, v)
				}
			}
			pe.Barrier()
		}
		return nil
	})
}

func TestTreeBarrierMatchesCentral(t *testing.T) {
	for _, kind := range []BarrierKind{BarrierCentral, BarrierTree} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := simCfg(7)
			cfg.Barrier = kind
			res, err := Run(cfg, func(pe *PE) error {
				x := pe.Alloc(7)
				for round := 0; round < 3; round++ {
					mustWrite(pe, x+uint64(pe.ID()), int64(round))
					pe.Barrier()
					for i := 0; i < 7; i++ {
						if v := mustRead(pe, x+uint64(i)); v != int64(round) {
							return fmt.Errorf("round %d: saw %d", round, v)
						}
					}
					pe.Barrier()
				}
				return nil
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := res.FirstErr(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLockMutualExclusion(t *testing.T) {
	// Non-atomic read-modify-write under a lock: any mutual-exclusion
	// violation loses increments.
	const perPE = 20
	allTransports(t, 5, func(pe *PE) error {
		cell := pe.Alloc(1)
		for i := 0; i < perPE; i++ {
			pe.Lock(1)
			v := mustRead(pe, cell)
			pe.Compute(10)
			mustWrite(pe, cell, v+1)
			pe.Unlock(1)
		}
		pe.Barrier()
		if v := mustRead(pe, cell); v != int64(perPE*pe.N()) {
			return fmt.Errorf("counter = %d, want %d", v, perPE*pe.N())
		}
		return nil
	})
}

func TestSemaphoreProducerConsumer(t *testing.T) {
	allTransports(t, 2, func(pe *PE) error {
		data := pe.Alloc(1)
		if pe.ID() == 0 {
			mustWrite(pe, data, 77)
			pe.SemPost(3)
			return nil
		}
		pe.SemWait(3)
		if v := mustRead(pe, data); v != 77 {
			return fmt.Errorf("consumer saw %d before producer finished", v)
		}
		return nil
	})
}

func TestUserMessagesPingPong(t *testing.T) {
	allTransports(t, 2, func(pe *PE) error {
		const rounds = 5
		if pe.ID() == 0 {
			for i := 0; i < rounds; i++ {
				pe.SendMsg(1, 10, []byte{byte(i)})
				src, payload := pe.RecvMsg(11)
				if src != 1 || payload[0] != byte(i+100) {
					return fmt.Errorf("bad pong %d from %d", payload[0], src)
				}
			}
			return nil
		}
		for i := 0; i < rounds; i++ {
			src, payload := pe.RecvMsg(10)
			if src != 0 {
				return fmt.Errorf("ping from %d", src)
			}
			pe.SendMsg(0, 11, []byte{payload[0] + 100})
		}
		return nil
	})
}

func TestAllReduce(t *testing.T) {
	allTransports(t, 6, func(pe *PE) error {
		sum := pe.AllReduceSum(float64(pe.ID() + 1))
		if sum != 21 { // 1+2+...+6
			return fmt.Errorf("sum = %v, want 21", sum)
		}
		max := pe.AllReduceMax(float64(pe.ID()))
		if max != 5 {
			return fmt.Errorf("max = %v, want 5", max)
		}
		return nil
	})
}

func TestProcessTableSSI(t *testing.T) {
	allTransports(t, 4, func(pe *PE) error {
		if pe.gpid <= 0 {
			return fmt.Errorf("no global pid assigned")
		}
		pe.Barrier()
		procs, err := pe.Processes()
		if err != nil {
			return err
		}
		if len(procs) != 4 {
			return fmt.Errorf("process table has %d entries, want 4", len(procs))
		}
		kernels := map[int32]bool{}
		for _, p := range procs {
			if p.State.String() != "running" {
				return fmt.Errorf("process %d not running: %v", p.GPID, p.State)
			}
			kernels[p.Kernel] = true
		}
		if len(kernels) != 4 {
			return fmt.Errorf("table covers %d kernels, want 4", len(kernels))
		}
		pe.Barrier()
		return nil
	})
}

func TestPingLatencyPositiveUnderSim(t *testing.T) {
	cfg := simCfg(2)
	res, err := Run(cfg, func(pe *PE) error {
		if pe.ID() != 0 {
			return nil
		}
		if d, err := pe.PingErr(1); err != nil || d <= 0 {
			return fmt.Errorf("ping latency %v, err %v", d, err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
}

func TestElapsedGrowsWithWork(t *testing.T) {
	elapsed := func(ops float64) sim.Duration {
		res, err := Run(simCfg(2), func(pe *PE) error {
			pe.Compute(ops)
			return nil
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.Elapsed
	}
	if e1, e2 := elapsed(1e6), elapsed(3e6); e2 <= e1 {
		t.Fatalf("elapsed did not grow with work: %v vs %v", e1, e2)
	}
}

func TestVirtualClusterOverloadSlowsCompute(t *testing.T) {
	elapsed := func(n int) sim.Duration {
		res, err := Run(simCfg(n), func(pe *PE) error {
			pe.Compute(1e6)
			return nil
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.Elapsed
	}
	six, twelve := elapsed(6), elapsed(12)
	if twelve < 2*six {
		t.Fatalf("12 PEs on 6 machines (%v) should be >=2x slower than 6 PEs (%v)", twelve, six)
	}
}

func TestDeterministicElapsedAcrossRuns(t *testing.T) {
	run := func() sim.Duration {
		res, err := Run(simCfg(5), func(pe *PE) error {
			base := pe.Alloc(64)
			for i := 0; i < 20; i++ {
				mustFetchAdd(pe, base, 1)
				pe.Compute(1000)
			}
			pe.Barrier()
			return nil
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.Elapsed
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic elapsed: %v vs %v", got, first)
		}
	}
}

func TestStatsAreCollected(t *testing.T) {
	res, err := Run(simCfg(3), func(pe *PE) error {
		base := pe.Alloc(64)
		mustWrite(pe, base+uint64(pe.ID()), 1)
		pe.Barrier()
		mustRead(pe, base+uint64((pe.ID()+1)%3))
		pe.Compute(1e5)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.PerPE) != 3 {
		t.Fatalf("PerPE has %d entries", len(res.PerPE))
	}
	if res.Total.MsgsSent == 0 || res.Total.ComputeTime == 0 || res.Total.Barriers != 3 {
		t.Fatalf("stats incomplete: %+v", &res.Total)
	}
	if res.Bus.Frames == 0 {
		t.Fatal("no bus frames recorded")
	}
}

func TestProgramErrorPropagates(t *testing.T) {
	res, err := Run(simCfg(3), func(pe *PE) error {
		if pe.ID() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.FirstErr() == nil || res.Errs[1] == nil {
		t.Fatal("program error lost")
	}
	if res.Errs[0] != nil || res.Errs[2] != nil {
		t.Fatal("healthy PEs reported errors")
	}
}

func TestPanicInProgramBecomesError(t *testing.T) {
	res, err := Run(simCfg(2), func(pe *PE) error {
		if pe.ID() == 1 {
			panic("deliberate")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Errs[1] == nil {
		t.Fatal("panic not converted to error")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{NumPE: 0}, func(pe *PE) error { return nil }); err == nil {
		t.Fatal("zero PEs accepted")
	}
	if _, err := Run(Config{NumPE: 2}, func(pe *PE) error { return nil }); err == nil {
		t.Fatal("sim transport without platform accepted")
	}
	if _, err := Run(Config{NumPE: 2, Transport: "bogus"}, func(pe *PE) error { return nil }); err == nil {
		t.Fatal("bogus transport accepted")
	}
}

func TestHostnamesExposeVirtualCluster(t *testing.T) {
	hosts := make([]string, 12)
	res, err := Run(simCfg(12), func(pe *PE) error {
		hosts[pe.ID()] = pe.Hostname()
		return nil
	})
	if err != nil || res.FirstErr() != nil {
		t.Fatalf("Run: %v %v", err, res.FirstErr())
	}
	if hosts[0] != hosts[6] {
		t.Fatal("PEs 0 and 6 should share a machine")
	}
	if hosts[0] == hosts[1] {
		t.Fatal("PEs 0 and 1 should not share a machine")
	}
}
