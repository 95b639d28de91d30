package gauss

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gmem"
	"repro/internal/platform"
)

// denseSystem is the dense generator every solver built before the system
// was partitioned, kept verbatim as the reference the row generator must
// match bit for bit.
func denseSystem(p Params) (a [][]float64, b []float64) {
	p = p.withDefaults()
	n := p.N
	a = make([][]float64, n)
	b = make([]float64, n)
	rng := p.Seed
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>11) / float64(1<<53)
	}
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n)
		sum := 0.0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := i - j
			if d < 0 {
				d = -d
			}
			v := 1.0 / float64(1+d)
			a[i][j] = v
			sum += v
		}
		a[i][i] = 2*sum + 1 + next()
		b[i] = next() * float64(n)
	}
	return a, b
}

// denseResidual is max_i |(Ax)_i - b_i| over a dense system.
func denseResidual(a [][]float64, b, x []float64) float64 {
	worst := 0.0
	for i := range a {
		s := -b[i]
		for j, v := range a[i] {
			s += v * x[j]
		}
		if s < 0 {
			s = -s
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

func TestRowGeneratorMatchesDenseFormula(t *testing.T) {
	for _, n := range []int{1, 2, 3, 240, 360} {
		for _, seed := range []uint64{1, 0x9e3779b97f4a7c15} {
			p := Params{N: n, Seed: seed}
			wantA, wantB := denseSystem(p)
			gotA, gotB := BuildSystem(p)
			for i := 0; i < n; i++ {
				if !sameBits(gotB[i], wantB[i]) {
					t.Fatalf("N=%d seed=%#x: b[%d] = %v, want %v", n, seed, i, gotB[i], wantB[i])
				}
				for j := 0; j < n; j++ {
					if !sameBits(gotA[i][j], wantA[i][j]) {
						t.Fatalf("N=%d seed=%#x: a[%d][%d] = %v, want %v", n, seed, i, j, gotA[i][j], wantA[i][j])
					}
				}
			}
		}
	}
}

func TestPartitionBuildsOnlyOwnRows(t *testing.T) {
	const n = 360
	p := Params{N: n}.withDefaults()
	dense, _ := denseSystem(p)
	for _, npe := range []int{1, 3, 7, 12} {
		for id := 0; id < npe; id++ {
			_, a, lo, hi := partition(p, npe, id)
			if len(a) != n {
				t.Fatalf("p=%d PE %d: %d row slots, want %d", npe, id, len(a), n)
			}
			for i, row := range a {
				if i < lo || i >= hi {
					if row != nil {
						t.Fatalf("p=%d PE %d built row %d outside [%d, %d)", npe, id, i, lo, hi)
					}
					continue
				}
				for j, v := range row {
					if !sameBits(v, dense[i][j]) {
						t.Fatalf("p=%d PE %d: a[%d][%d] = %v, want %v", npe, id, i, j, v, dense[i][j])
					}
				}
			}
		}
	}
}

// Every parallel solver's residual, computed over its own rows plus the
// rows it regenerates, equals the dense residual of the X it returns, on
// every PE.
func TestParallelResidualMatchesDense(t *testing.T) {
	p := Params{N: 60, Seed: 3}
	a, b := denseSystem(p)
	solvers := []struct {
		name  string
		solve func(pe *core.PE) (*Result, error)
	}{
		{"Parallel", func(pe *core.PE) (*Result, error) { return Parallel(pe, p) }},
		{"ParallelFine", func(pe *core.PE) (*Result, error) { return ParallelFine(pe, p, gmem.ModeRelease, 4) }},
		{"ParallelMP", func(pe *core.PE) (*Result, error) { return ParallelMP(pe, p) }},
	}
	for _, s := range solvers {
		for _, npe := range []int{1, 3, 7, 12} {
			t.Run(fmt.Sprintf("%s/p%d", s.name, npe), func(t *testing.T) {
				res, err := core.Run(core.Config{NumPE: npe, Platform: platform.SparcSunOS, Seed: 1},
					func(pe *core.PE) error {
						r, err := s.solve(pe)
						if err != nil {
							return err
						}
						if want := denseResidual(a, b, r.X); !sameBits(r.Residual, want) {
							return fmt.Errorf("PE %d: residual %v, dense %v", pe.ID(), r.Residual, want)
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
}

// BenchmarkPointSet is the gauss family of the sim_figures workload: one
// N=360 solve at each of its processor counts on the simulated SparcSunOS
// cluster. Run with -benchmem; B/op is what each PE's set-up costs.
func BenchmarkPointSet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, npe := range []int{1, 2, 4, 6, 8, 12} {
			res, err := core.Run(core.Config{
				NumPE: npe, Transport: core.TransportSim, Platform: platform.SparcSunOS, Seed: 1,
				KernelShards: 1, DirectReads: -1, WriteRings: -1, GMBlockWords: 256,
			}, func(pe *core.PE) error {
				_, err := Parallel(pe, Params{N: 360, Seed: 1})
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := res.FirstErr(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
