// Package gauss implements the paper's first workload: solving an
// N-dimensional simultaneous linear equation system with the Gauss-Seidel
// method, sequentially and in parallel over the DSE global memory.
//
// The parallel version partitions rows contiguously across PEs. Within a
// sweep each PE updates its own rows in order using its freshest local
// values (Gauss-Seidel within the block) and the previous sweep's values
// for other PEs' rows (Jacobi across blocks) — the standard synchronous
// block hybrid, which converges for the strictly diagonally dominant
// systems generated here. The shared x vector lives in global memory; each
// sweep a PE reads the full vector, updates its block locally, writes its
// block back, and joins a max-reduction on the update delta.
package gauss

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gmem"
	"repro/internal/sim"
)

// tol is the convergence threshold on max |Δx|.
const tol = 1e-8

// Params describes one experiment instance.
type Params struct {
	N         int    // system dimension
	MaxSweeps int    // sweep cap (0 = 200)
	Seed      uint64 // system generator seed

	// Omega is the successive-over-relaxation factor in (0, 2); 0 or 1 is
	// plain Gauss-Seidel (the paper's method). An extension: SOR can cut
	// the sweep count without changing the communication pattern.
	Omega float64
}

func (p Params) withDefaults() Params {
	if p.MaxSweeps == 0 {
		p.MaxSweeps = 200
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Omega == 0 {
		p.Omega = 1
	}
	if p.Omega <= 0 || p.Omega >= 2 {
		panic(fmt.Sprintf("gauss: SOR factor %v outside (0,2)", p.Omega))
	}
	return p
}

// Result reports a solve.
type Result struct {
	X        []float64    // solution vector
	Sweeps   int          // sweeps performed
	Delta    float64      // final max |Δx|
	Residual float64      // max |Ax-b| of the returned solution
	Ops      float64      // counted floating-point operations
	Elapsed  sim.Duration // timed region (parallel runs; excludes setup)
}

// BuildSystem deterministically generates a strictly diagonally dominant
// dense system Ax = b.
func BuildSystem(p Params) (a [][]float64, b []float64) {
	s := newSystem(p.withDefaults())
	return s.rows(0, s.n), s.b
}

// system generates one instance of Ax = b: all of b, and any row of A on
// demand. A is read-only and a pure function of (N, Seed), so a PE builds
// only the rows it updates — its partition, as in a PE's own local memory —
// and regenerates any other row it needs one at a time.
type system struct {
	n    int
	inv  []float64 // inv[k] = 1/(1+k): the entry k places off the diagonal
	draw []float64 // draw[i]: row i's random share of its diagonal
	b    []float64
}

func newSystem(p Params) *system {
	n := p.N
	s := &system{n: n, inv: make([]float64, n), draw: make([]float64, n), b: make([]float64, n)}
	for k := range s.inv {
		s.inv[k] = 1.0 / float64(1+k)
	}
	rng := p.Seed
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>11) / float64(1<<53)
	}
	for i := 0; i < n; i++ {
		s.draw[i] = next()
		s.b[i] = next() * float64(n)
	}
	return s
}

// row writes row i of A into dst (length n) and returns it. The diagonal is
// summed in column order, so every bit matches a dense build.
func (s *system) row(i int, dst []float64) []float64 {
	sum := 0.0
	for j := 0; j < i; j++ {
		v := s.inv[i-j]
		dst[j] = v
		sum += v
	}
	for j := i + 1; j < s.n; j++ {
		v := s.inv[j-i]
		dst[j] = v
		sum += v
	}
	dst[i] = 2*sum + 1 + s.draw[i] // strong strict dominance
	return dst
}

// rows builds rows [lo, hi) of A in one allocation and returns all n row
// slots; the slots outside [lo, hi) stay nil.
func (s *system) rows(lo, hi int) [][]float64 {
	a := make([][]float64, s.n)
	backing := make([]float64, (hi-lo)*s.n)
	for i := lo; i < hi; i++ {
		a[i] = s.row(i, backing[:s.n:s.n])
		backing = backing[s.n:]
	}
	return a
}

// partition is a parallel solver's set-up on PE id of npe: the generator
// and the PE's own row block [lo, hi) of A, every other row slot nil.
func partition(p Params, npe, id int) (s *system, a [][]float64, lo, hi int) {
	s = newSystem(p)
	lo, hi = rowRange(p.N, npe, id)
	return s, s.rows(lo, hi), lo, hi
}

// rowUpdate computes the (over-relaxed) Gauss-Seidel update for row i
// against x and returns the new value; omega=1 is plain Gauss-Seidel.
func rowUpdate(a [][]float64, b []float64, x []float64, i int, omega float64) float64 {
	s := b[i]
	row := a[i]
	for j, v := range row {
		if j != i {
			s -= v * x[j]
		}
	}
	gs := s / row[i]
	if omega == 1 {
		return gs
	}
	return (1-omega)*x[i] + omega*gs
}

// opsPerRow counts the floating-point work of one row update.
func opsPerRow(n int) float64 { return float64(2*n + 2) }

// residual computes max_i |(Ax)_i - b_i| over every row of the system. A
// row a does not hold (nil) is generated into one scratch row.
func (s *system) residual(a [][]float64, x []float64) float64 {
	var scratch []float64
	worst := 0.0
	for i, row := range a {
		if row == nil {
			if scratch == nil {
				scratch = make([]float64, s.n)
			}
			row = s.row(i, scratch)
		}
		r := -s.b[i]
		for j, v := range row {
			r += v * x[j]
		}
		if r < 0 {
			r = -r
		}
		if r > worst {
			worst = r
		}
	}
	return worst
}

// Sequential solves the system on one processor.
func Sequential(p Params) *Result {
	p = p.withDefaults()
	sys := newSystem(p)
	a := sys.rows(0, p.N)
	x := make([]float64, p.N)
	res := &Result{}
	for sweep := 0; sweep < p.MaxSweeps; sweep++ {
		delta := 0.0
		for i := 0; i < p.N; i++ {
			old := x[i]
			x[i] = rowUpdate(a, sys.b, x, i, p.Omega)
			if d := math.Abs(x[i] - old); d > delta {
				delta = d
			}
		}
		res.Ops += float64(p.N) * opsPerRow(p.N)
		res.Sweeps++
		res.Delta = delta
		if delta < tol {
			break
		}
	}
	res.X = x
	res.Residual = sys.residual(a, x)
	return res
}

// rowRange gives PE id's contiguous row block [lo, hi).
func rowRange(n, npe, id int) (lo, hi int) {
	per := n / npe
	rem := n % npe
	lo = id*per + min(id, rem)
	hi = lo + per
	if id < rem {
		hi++
	}
	return lo, hi
}

// Parallel solves the system as an SPMD program over the DSE API; every PE
// returns the same Result. The timed region excludes system generation and
// the initial zeroing of the shared vector.
func Parallel(pe *core.PE, p Params) (*Result, error) {
	p = p.withDefaults()
	if p.N < pe.N() {
		return nil, fmt.Errorf("gauss: N=%d smaller than %d PEs", p.N, pe.N())
	}
	sys, a, lo, hi := partition(p, pe.N(), pe.ID())
	xs := core.AllocArray[float64](pe, p.N)
	x := make([]float64, p.N)

	// Setup: PE 0 zeroes the shared vector.
	if pe.ID() == 0 {
		if err := xs.StoreRange(0, x); err != nil {
			return nil, err
		}
	}
	pe.Barrier()
	start := pe.Now()

	res := &Result{}
	for sweep := 0; sweep < p.MaxSweeps; sweep++ {
		// Fetch the current global vector (previous sweep's values). The
		// vector is block-cyclic over all homes, so this row fetch rides the
		// vectored read path: one OpReadV per remote home instead of one
		// OpRead per block-sized run.
		if err := xs.LoadRange(0, x); err != nil {
			return nil, err
		}
		// Update own rows in order, Gauss-Seidel within the block.
		delta := 0.0
		for i := lo; i < hi; i++ {
			old := x[i]
			x[i] = rowUpdate(a, sys.b, x, i, p.Omega)
			if d := math.Abs(x[i] - old); d > delta {
				delta = d
			}
		}
		pe.Compute(float64(hi-lo) * opsPerRow(p.N))
		res.Ops += float64(hi-lo) * opsPerRow(p.N)
		// Separate the read and write phases so every PE updates against
		// exactly the previous sweep's vector (strictly synchronous — and
		// therefore deterministic on every transport), then publish the
		// block and agree on convergence.
		pe.Barrier()
		if err := xs.StoreRange(lo, x[lo:hi]); err != nil {
			return nil, err
		}
		res.Sweeps++
		res.Delta = pe.AllReduceMax(delta)
		if res.Delta < tol {
			break
		}
	}
	res.Elapsed = pe.Now() - start
	if err := xs.LoadRange(0, x); err != nil {
		return nil, err
	}
	res.X = x
	res.Residual = sys.residual(a, res.X)
	return res, nil
}

// ParallelFine is the fine-grained variant of Parallel behind the
// consistency-tier ablation (DESIGN.md §14): the same numerics, but the
// shared vector is allocated under the given consistency mode, read word by
// word, and each updated row is published with a scalar write — the
// textbook access pattern the weaker tiers exist for. Under release the
// write-combining buffer coalesces the per-row publishes into one flush per
// home per sweep; under lease the per-word reads collapse into one grant
// per block per sweep; strong pays one round trip per remote word both
// ways. The sweep count is fixed (no convergence reduction) so the message
// count is a closed-form function of the mode, and the double barrier keeps
// read and write epochs disjoint: every mode computes bit-identical
// iterates, because release writes flush at the second barrier's entry —
// before any PE starts the next read epoch — and lease caches drop at each
// barrier crossing.
func ParallelFine(pe *core.PE, p Params, mode gmem.Mode, sweeps int) (*Result, error) {
	p = p.withDefaults()
	if p.N < pe.N() {
		return nil, fmt.Errorf("gauss: N=%d smaller than %d PEs", p.N, pe.N())
	}
	sys, a, lo, hi := partition(p, pe.N(), pe.ID())
	xs := core.AllocArrayMode[float64](pe, p.N, mode)
	if pe.ID() == 0 {
		for i := 0; i < p.N; i++ {
			if err := xs.Store(i, 0); err != nil {
				return nil, err
			}
		}
	}
	pe.Barrier()
	start := pe.Now()

	res := &Result{}
	x := make([]float64, p.N)
	var err error
	for sweep := 0; sweep < sweeps; sweep++ {
		for i := range x {
			if x[i], err = xs.Load(i); err != nil {
				return nil, err
			}
		}
		delta := 0.0
		for i := lo; i < hi; i++ {
			old := x[i]
			x[i] = rowUpdate(a, sys.b, x, i, p.Omega)
			if d := math.Abs(x[i] - old); d > delta {
				delta = d
			}
		}
		pe.Compute(float64(hi-lo) * opsPerRow(p.N))
		res.Ops += float64(hi-lo) * opsPerRow(p.N)
		pe.Barrier() // end of read epoch
		for i := lo; i < hi; i++ {
			if err := xs.Store(i, x[i]); err != nil {
				return nil, err
			}
		}
		pe.Barrier() // publication fence: release flushes, leases drop
		res.Sweeps++
		res.Delta = delta
	}
	res.Elapsed = pe.Now() - start
	res.X = make([]float64, p.N)
	for i := range res.X {
		if res.X[i], err = xs.Load(i); err != nil {
			return nil, err
		}
	}
	res.Residual = sys.residual(a, res.X)
	return res, nil
}
