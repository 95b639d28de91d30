package gauss

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

func TestBuildSystemDeterministicAndDominant(t *testing.T) {
	p := Params{N: 50, Seed: 3}
	a1, b1 := BuildSystem(p)
	a2, b2 := BuildSystem(p)
	for i := 0; i < p.N; i++ {
		if b1[i] != b2[i] {
			t.Fatal("b not deterministic")
		}
		off := 0.0
		for j := 0; j < p.N; j++ {
			if a1[i][j] != a2[i][j] {
				t.Fatal("A not deterministic")
			}
			if i != j {
				off += math.Abs(a1[i][j])
			}
		}
		if a1[i][i] <= off {
			t.Fatalf("row %d not strictly dominant: %v vs %v", i, a1[i][i], off)
		}
	}
}

func TestSequentialConverges(t *testing.T) {
	res := Sequential(Params{N: 80, Seed: 1})
	if res.Sweeps >= 200 {
		t.Fatalf("did not converge in %d sweeps", res.Sweeps)
	}
	if res.Residual > 1e-5 {
		t.Fatalf("residual %v too large", res.Residual)
	}
	if res.Ops <= 0 {
		t.Fatal("no ops counted")
	}
}

func TestRowRangePartition(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{10, 3}, {100, 7}, {5, 5}, {9, 4}} {
		covered := 0
		prevHi := 0
		for id := 0; id < tc.p; id++ {
			lo, hi := rowRange(tc.n, tc.p, id)
			if lo != prevHi {
				t.Fatalf("n=%d p=%d: gap at PE %d", tc.n, tc.p, id)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.n {
			t.Fatalf("n=%d p=%d: covered %d rows", tc.n, tc.p, covered)
		}
	}
}

func TestParallelMatchesSequentialSolution(t *testing.T) {
	p := Params{N: 60, Seed: 2}
	seq := Sequential(p)
	for _, npe := range []int{1, 2, 4} {
		npe := npe
		t.Run(fmt.Sprintf("p%d", npe), func(t *testing.T) {
			var par *Result
			res, err := core.Run(core.Config{NumPE: npe, Transport: core.TransportInproc},
				func(pe *core.PE) error {
					r, err := Parallel(pe, p)
					if err != nil {
						return err
					}
					if pe.ID() == 0 {
						par = r
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
			if par.Residual > 1e-5 {
				t.Fatalf("parallel residual %v", par.Residual)
			}
			for i := range par.X {
				if math.Abs(par.X[i]-seq.X[i]) > 1e-5 {
					t.Fatalf("x[%d] = %v vs sequential %v", i, par.X[i], seq.X[i])
				}
			}
		})
	}
}

func TestParallelSinglePEEqualsSequentialExactly(t *testing.T) {
	p := Params{N: 40, Seed: 5}
	seq := Sequential(p)
	res, err := core.Run(core.Config{NumPE: 1, Transport: core.TransportInproc},
		func(pe *core.PE) error {
			par, err := Parallel(pe, p)
			if err != nil {
				return err
			}
			if par.Sweeps != seq.Sweeps {
				return fmt.Errorf("sweeps %d vs %d", par.Sweeps, seq.Sweeps)
			}
			for i := range par.X {
				if par.X[i] != seq.X[i] {
					return fmt.Errorf("x[%d] differs: %v vs %v", i, par.X[i], seq.X[i])
				}
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

func TestParallelRejectsTooManyPEs(t *testing.T) {
	res, err := core.Run(core.Config{NumPE: 4, Transport: core.TransportInproc},
		func(pe *core.PE) error {
			_, err := Parallel(pe, Params{N: 2})
			if err == nil {
				return fmt.Errorf("expected error for N < PEs")
			}
			return nil
		})
	if err != nil || res.FirstErr() != nil {
		t.Fatalf("%v %v", err, res.FirstErr())
	}
}

func TestParallelOnSimulatedClusterChargesTime(t *testing.T) {
	res, err := core.Run(core.Config{NumPE: 4, Platform: platform.PentiumIILinux, Seed: 1},
		func(pe *core.PE) error {
			r, err := Parallel(pe, Params{N: 64, Seed: 1})
			if err != nil {
				return err
			}
			if r.Residual > 1e-5 {
				return fmt.Errorf("residual %v", r.Residual)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if res.Total.ComputeTime <= 0 || res.Total.MsgsSent == 0 {
		t.Fatalf("stats incomplete: %+v", &res.Total)
	}
}

func TestSORConvergesAndOmegaOneIsGaussSeidel(t *testing.T) {
	base := Params{N: 60, Seed: 3}
	plain := Sequential(base)
	omega1 := base
	omega1.Omega = 1
	same := Sequential(omega1)
	if same.Sweeps != plain.Sweeps {
		t.Fatalf("omega=1 changed sweeps: %d vs %d", same.Sweeps, plain.Sweeps)
	}
	for i := range plain.X {
		if same.X[i] != plain.X[i] {
			t.Fatal("omega=1 changed the solution")
		}
	}
	// Under-relaxation still converges to the same solution.
	under := base
	under.Omega = 0.8
	sor := Sequential(under)
	if sor.Residual > 1e-5 {
		t.Fatalf("SOR residual %v", sor.Residual)
	}
	for i := range plain.X {
		if math.Abs(sor.X[i]-plain.X[i]) > 1e-6 {
			t.Fatalf("SOR solution diverges at %d", i)
		}
	}
}

func TestSORRejectsBadOmega(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for omega >= 2")
		}
	}()
	Sequential(Params{N: 10, Omega: 2.5})
}

func TestSORParallelAgrees(t *testing.T) {
	p := Params{N: 48, Seed: 2, Omega: 0.9}
	seq := Sequential(p)
	res, err := core.Run(core.Config{NumPE: 3, Transport: core.TransportInproc},
		func(pe *core.PE) error {
			r, err := Parallel(pe, p)
			if err != nil {
				return err
			}
			if r.Residual > 1e-5 {
				return fmt.Errorf("residual %v", r.Residual)
			}
			for i := range r.X {
				if math.Abs(r.X[i]-seq.X[i]) > 1e-5 {
					return fmt.Errorf("x[%d] differs", i)
				}
			}
			return nil
		})
	if err != nil || res.FirstErr() != nil {
		t.Fatalf("%v %v", err, res.FirstErr())
	}
}
