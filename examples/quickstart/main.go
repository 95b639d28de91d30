// Quickstart: the smallest useful DSE program. Six processor elements
// estimate π by numerically integrating 4/(1+x²) over [0,1]: each PE
// integrates its stripe, the partial sums meet in an AllReduce, and global
// memory carries a shared progress counter just to show the DSM at work.
//
// Run it on the simulated SparcStation cluster:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/platform"
)

func main() {
	const (
		pes   = 6
		steps = 1_000_000
	)
	cfg := core.Config{
		NumPE:    pes,
		Platform: platform.SparcSunOS,
		Seed:     1,
	}
	var pi float64
	res, err := core.Run(cfg, func(pe *core.PE) error {
		// A shared counter in global memory: every PE bumps it per chunk.
		progress := core.AllocCounter(pe, 1)

		h := 1.0 / steps
		sum := 0.0
		for i := pe.ID(); i < steps; i += pe.N() {
			x := (float64(i) + 0.5) * h
			sum += 4 / (1 + x*x)
		}
		pe.Compute(float64(steps/pe.N()) * 6) // ~6 flops per step
		if _, err := progress.FetchAdd(0, 1); err != nil {
			return err
		}

		total := pe.AllReduceSum(sum * h)
		if pe.ID() == 0 {
			pi = total
			done, err := progress.Load(0)
			if err != nil {
				return err
			}
			fmt.Printf("all %d PEs reported in (%d chunks)\n", pe.N(), done)
		}
		pe.Barrier()
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := res.FirstErr(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pi ≈ %.9f (virtual time %v on %d simulated %s workstations)\n",
		pi, res.Elapsed, pes, platform.SparcSunOS.Name)
}
