package gauss

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mp"
)

// ParallelMP solves the same system with the same block-hybrid sweep
// structure as Parallel, but using the message-passing library instead of
// global memory: each rank keeps its row block privately, and blocks are
// exchanged through a gather-to-root plus broadcast every sweep — the
// PVM/MPI programming style the paper cites as the portable alternative to
// DSE's shared memory. Numerical results are bit-identical to Parallel
// (the per-sweep arithmetic is the same); only the communication differs.
func ParallelMP(pe *core.PE, p Params) (*Result, error) {
	p = p.withDefaults()
	if p.N < pe.N() {
		return nil, fmt.Errorf("gauss: N=%d smaller than %d PEs", p.N, pe.N())
	}
	c := mp.New(pe)
	sys, a, lo, hi := partition(p, pe.N(), pe.ID())

	const blockTag = 100
	x := make([]float64, p.N)
	start := pe.Now()
	res := &Result{}
	for sweep := 0; sweep < p.MaxSweeps; sweep++ {
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

		// Exchange blocks: gather to rank 0, broadcast the full vector.
		// Cross-sweep messages cannot mix: rank 0 consumes exactly N-1
		// blocks before broadcasting, and no rank starts the next sweep
		// before receiving that broadcast.
		if c.Rank() == 0 {
			for i := 1; i < c.Size(); i++ {
				src, vals := c.RecvF(blockTag)
				sLo, sHi := rowRange(p.N, pe.N(), src)
				if len(vals) != sHi-sLo {
					return nil, fmt.Errorf("gauss: rank %d sent %d rows, want %d", src, len(vals), sHi-sLo)
				}
				copy(x[sLo:sHi], vals)
			}
		} else {
			c.SendF(0, blockTag, x[lo:hi])
		}
		full := c.Bcast(0, encodeVector(x))
		decodeVectorInto(full, x)

		res.Sweeps++
		res.Delta = c.AllReduce(delta, math.Max)
		if res.Delta < p.Tol {
			break
		}
	}
	res.Elapsed = pe.Now() - start
	res.X = append([]float64(nil), x...)
	res.Residual = sys.residual(a, res.X)
	return res, nil
}

// encodeVector and decodeVectorInto move float64 vectors through byte
// payloads (little-endian words).
func encodeVector(x []float64) []byte {
	buf := make([]byte, 8*len(x))
	for i, v := range x {
		bits := math.Float64bits(v)
		for k := 0; k < 8; k++ {
			buf[i*8+k] = byte(bits >> uint(8*k))
		}
	}
	return buf
}

func decodeVectorInto(buf []byte, x []float64) {
	if len(buf) != 8*len(x) {
		panic(fmt.Sprintf("gauss: vector payload %d bytes, want %d", len(buf), 8*len(x)))
	}
	for i := range x {
		var bits uint64
		for k := 0; k < 8; k++ {
			bits |= uint64(buf[i*8+k]) << uint(8*k)
		}
		x[i] = math.Float64frombits(bits)
	}
}
