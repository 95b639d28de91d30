package knight

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

// BenchmarkExhaustive5x5 measures the raw backtracking rate: the whole 5×5
// search from a corner, which must count 304 tours in 1 735 079 nodes.
func BenchmarkExhaustive5x5(b *testing.B) {
	b.ReportAllocs()
	p := Params{BoardN: 5, Jobs: 1}
	for i := 0; i < b.N; i++ {
		res, err := Sequential(p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Tours != 304 || res.Nodes != corner5x5Nodes {
			b.Fatalf("%d tours / %d nodes, want 304 / %d", res.Tours, res.Nodes, corner5x5Nodes)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*corner5x5Nodes), "ns/node")
}

// BenchmarkEnumPrefixes measures job splitting at apps_inproc's 1 024 jobs
// and at 64.
func BenchmarkEnumPrefixes(b *testing.B) {
	for _, jobs := range []int{64, 1024} {
		b.Run(fmt.Sprintf("jobs%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			p := Params{BoardN: 5, Jobs: jobs}
			for i := 0; i < b.N; i++ {
				if len(EnumPrefixes(p, jobs)) < jobs {
					b.Fatal("too few prefixes")
				}
			}
		})
	}
}

// jobs16Nodes is what the 5×5 corner search counts split into 16 jobs: the
// 13 interior squares of the breadth-first prefix tree belong to no job.
const jobs16Nodes = 1735066

// BenchmarkKnightPointSet is the knight family of the sim_figures workload:
// the 5×5 board in 16 jobs (Fig. 19) at each of its processor counts on the
// simulated SparcSunOS cluster. Every point must count the whole search.
func BenchmarkKnightPointSet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, npe := range []int{1, 2, 4, 6, 8, 12} {
			var got *Result
			res, err := core.Run(core.Config{
				NumPE: npe, Transport: core.TransportSim, Platform: platform.SparcSunOS, Seed: 1,
				KernelShards: 1, DirectReads: -1, GMBlockWords: 32,
			}, func(pe *core.PE) error {
				r, err := Parallel(pe, Params{BoardN: 5, Jobs: 16})
				if pe.ID() == 0 {
					got = r
				}
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := res.FirstErr(); err != nil {
				b.Fatal(err)
			}
			if got.Tours != 304 || got.Nodes != jobs16Nodes {
				b.Fatalf("p=%d: %d tours / %d nodes, want 304 / %d", npe, got.Tours, got.Nodes, jobs16Nodes)
			}
		}
	}
}
