package core

import (
	"fmt"
	"testing"
)

// The same deterministic SPMD program must leave the identical global
// memory contents on every transport — the portability claim at the level
// of semantics, not just "it runs".
func TestCrossTransportGMStateIdentical(t *testing.T) {
	const words = 128
	program := func(out *[]int64) Program {
		return func(pe *PE) error {
			base := pe.Alloc(words)
			counter := pe.Alloc(1)
			// Phase 1: striped writes.
			for i := pe.ID(); i < words; i += pe.N() {
				mustWrite(pe, base+uint64(i), int64(i*i))
			}
			pe.Barrier()
			// Phase 2: dynamic pool doubling each word exactly once.
			for {
				j := mustFetchAdd(pe, counter, 1)
				if j >= words {
					break
				}
				v := mustRead(pe, base+uint64(j))
				mustWrite(pe, base+uint64(j), v*2)
			}
			pe.Barrier()
			if pe.ID() == 0 {
				*out = mustReadBlock(pe, base, words)
			}
			pe.Barrier()
			return nil
		}
	}
	results := map[TransportKind][]int64{}
	for _, tr := range []TransportKind{TransportSim, TransportInproc, TransportTCP} {
		cfg := simCfg(4)
		cfg.Transport = tr
		var out []int64
		res, err := Run(cfg, program(&out))
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if err := res.FirstErr(); err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		results[tr] = out
	}
	want := results[TransportSim]
	for i := 0; i < words; i++ {
		if want[i] != int64(i*i*2) {
			t.Fatalf("wrong final state at %d: %d", i, want[i])
		}
	}
	for tr, got := range results {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s diverges at word %d: %d vs %d", tr, i, got[i], want[i])
			}
		}
	}
}

// A float64 Array must round-trip through global memory, element by element
// and by range.
func TestGMFloatHelpers(t *testing.T) {
	allTransports(t, 2, func(pe *PE) error {
		a := AllocArray[float64](pe, 32)
		if pe.ID() == 0 {
			if err := a.Store(0, 3.25); err != nil {
				return err
			}
			if err := a.StoreRange(1, []float64{-1.5, 0, 2.5e300}); err != nil {
				return err
			}
		}
		pe.Barrier()
		if got, err := a.Load(0); got != 3.25 || err != nil {
			return fmt.Errorf("Load = %v, %v", got, err)
		}
		fs := make([]float64, 3)
		if err := a.LoadRange(1, fs); err != nil || fs[0] != -1.5 || fs[1] != 0 || fs[2] != 2.5e300 {
			return fmt.Errorf("LoadRange = %v, %v", fs, err)
		}
		return nil
	})
}

// Stats accounting: barriers, locks and wait time must all be recorded.
func TestStatsAccounting(t *testing.T) {
	res, err := Run(simCfg(3), func(pe *PE) error {
		pe.Barrier()
		pe.Lock(1)
		pe.Compute(1e4)
		pe.Unlock(1)
		pe.Barrier()
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if res.Total.Barriers != 6 {
		t.Fatalf("barriers = %d, want 6", res.Total.Barriers)
	}
	if res.Total.Locks != 3 {
		t.Fatalf("locks = %d, want 3", res.Total.Locks)
	}
	if res.Total.WaitTime <= 0 {
		t.Fatal("no wait time recorded")
	}
}

// Legacy mode must slow a fine-grained workload down without changing its
// answer.
func TestLegacyModeSlowsButAgrees(t *testing.T) {
	run := func(legacy bool) (int64, int64) {
		cfg := simCfg(2)
		cfg.Legacy = legacy
		var sum int64
		res, err := Run(cfg, func(pe *PE) error {
			base := pe.Alloc(16)
			for i := pe.ID(); i < 16; i += 2 {
				mustWrite(pe, base+uint64(i), int64(i))
			}
			pe.Barrier()
			if pe.ID() == 0 {
				for i := 0; i < 16; i++ {
					sum += mustRead(pe, base+uint64(i))
				}
			}
			pe.Barrier()
			return nil
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := res.FirstErr(); err != nil {
			t.Fatal(err)
		}
		return sum, int64(res.Elapsed)
	}
	newSum, newTime := run(false)
	oldSum, oldTime := run(true)
	if newSum != oldSum || newSum != 120 {
		t.Fatalf("sums differ: %d vs %d", newSum, oldSum)
	}
	if oldTime <= newTime {
		t.Fatalf("legacy organisation not slower: %d vs %d", oldTime, newTime)
	}
}

// Switched medium must also preserve program results exactly.
func TestSwitchedMediumAgrees(t *testing.T) {
	run := func(switched bool) int64 {
		cfg := simCfg(4)
		cfg.Switched = switched
		var sum int64
		res, err := Run(cfg, func(pe *PE) error {
			base := pe.Alloc(64)
			counter := pe.Alloc(1)
			for {
				j := mustFetchAdd(pe, counter, 1)
				if j >= 64 {
					break
				}
				mustWrite(pe, base+uint64(j), j*3)
			}
			pe.Barrier()
			if pe.ID() == 0 {
				for i := 0; i < 64; i++ {
					sum += mustRead(pe, base+uint64(i))
				}
			}
			pe.Barrier()
			return nil
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := res.FirstErr(); err != nil {
			t.Fatal(err)
		}
		return sum
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("media disagree: %d vs %d", a, b)
	}
}
