package sched

import (
	"fmt"
	"sort"

	"repro/internal/apps/dct"
	"repro/internal/apps/gauss"
	"repro/internal/apps/knight"
	"repro/internal/core"
)

// A workloadFn runs one job member. It receives the worker PE inside the
// job's scope (ranks, namespace-bounded memory, private sync ids) and the
// spec's Size knob.
type workloadFn func(p *core.PE, size int) error

// workloads is the registry of programs a job spec can name. Every entry is
// an ordinary PE program, so the same kernels also run as whole-cluster
// programs; sizes are kept small — a scheduler job is a tenant, not a
// dedicated benchmark run.
var workloads = map[string]workloadFn{
	// touch is the micro-workload for load generation: carve a per-rank
	// stripe of size*8 words (default size 4) from the job quota, write it
	// and read it back through global memory, with a gang barrier on both
	// sides.
	"touch": func(p *core.PE, size int) error {
		if size <= 0 {
			size = 4
		}
		stripe := size * 8
		words := core.AllocArray[int64](p, p.N()*stripe)
		mine := p.ID() * stripe
		p.Barrier()
		for i := 0; i < stripe; i++ {
			if err := words.Store(mine+i, int64(p.ID()*1000+i)); err != nil {
				return err
			}
		}
		for i := 0; i < stripe; i++ {
			got, err := words.Load(mine + i)
			if err != nil {
				return err
			}
			if got != int64(p.ID()*1000+i) {
				return fmt.Errorf("touch: word %d: got %d", i, got)
			}
		}
		p.Barrier()
		return nil
	},

	// gauss solves a size×size linear system by parallel Gauss-Seidel
	// (default 24).
	"gauss": func(p *core.PE, size int) error {
		if size <= 0 {
			size = 24
		}
		res, err := gauss.Parallel(p, gauss.Params{N: size})
		if err != nil {
			return err
		}
		if res.Residual > 1e-6 {
			return fmt.Errorf("gauss: residual %g after %d sweeps", res.Residual, res.Sweeps)
		}
		return nil
	},

	// knight runs the knight's-tour search on a size×size board (default 5).
	"knight": func(p *core.PE, size int) error {
		if size <= 0 {
			size = 5
		}
		_, err := knight.Parallel(p, knight.Params{BoardN: size, Jobs: p.N() * 4})
		return err
	},

	// dct compresses a size×size image by blocked DCT (default 32).
	"dct": func(p *core.PE, size int) error {
		if size <= 0 {
			size = 32
		}
		_, err := dct.Parallel(p, dct.Params{ImageN: size, Block: 8, Rate: 0.5})
		return err
	},
}

// lookupWorkload resolves a spec's workload name.
func lookupWorkload(name string) (workloadFn, bool) {
	fn, ok := workloads[name]
	return fn, ok
}

// runWorkload executes the named workload in the job's scope.
func runWorkload(p *core.PE, name string, size int) error {
	fn, ok := lookupWorkload(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownWorkload, name)
	}
	return fn(p, size)
}

// Workloads lists the registered workload names, sorted.
func Workloads() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
