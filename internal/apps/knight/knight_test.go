package knight

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

func TestValidation(t *testing.T) {
	bad := []Params{
		{BoardN: 2, Jobs: 1},
		{BoardN: 9, Jobs: 1},
		{BoardN: 5, Jobs: 0},
		{BoardN: 5, Jobs: 1, StartX: 5},
	}
	for _, p := range bad {
		if _, err := Sequential(p); err == nil {
			t.Fatalf("params %+v accepted", p)
		}
	}
}

func TestKnown5x5CornerTourCount(t *testing.T) {
	res, err := Sequential(Params{BoardN: 5, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The number of open knight's tours on 5x5 starting from a corner is
	// a classical result: 304.
	if res.Tours != 304 {
		t.Fatalf("5x5 corner tours = %d, want 304", res.Tours)
	}
	if res.Nodes <= res.Tours {
		t.Fatal("node count implausible")
	}
}

func TestNoToursFromMinorityColor5x5(t *testing.T) {
	// On 5x5 open tours exist only from majority-colour squares; (0,1) is
	// minority colour.
	res, err := Sequential(Params{BoardN: 5, Jobs: 1, StartX: 0, StartY: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tours != 0 {
		t.Fatalf("tours from minority colour = %d, want 0", res.Tours)
	}
}

func TestCountInvariantUnderJobSplit(t *testing.T) {
	base, err := Sequential(Params{BoardN: 5, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 8, 16, 64, 256} {
		res, err := Sequential(Params{BoardN: 5, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if res.Tours != base.Tours {
			t.Fatalf("jobs=%d: tours %d, want %d", jobs, res.Tours, base.Tours)
		}
		if res.Jobs < jobs {
			t.Fatalf("jobs=%d: only %d prefixes enumerated", jobs, res.Jobs)
		}
	}
}

func TestEnumPrefixesDeterministic(t *testing.T) {
	p := Params{BoardN: 5, Jobs: 16}
	a, b := EnumPrefixes(p, 16), EnumPrefixes(p, 16)
	if len(a) != len(b) {
		t.Fatal("prefix enumeration not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("prefix enumeration not deterministic")
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	p := Params{BoardN: 5, Jobs: 16}
	seq, err := Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, npe := range []int{1, 3, 6} {
		npe := npe
		t.Run(fmt.Sprintf("p%d", npe), func(t *testing.T) {
			results := make([]*Result, npe)
			res, err := core.Run(core.Config{NumPE: npe, Transport: core.TransportInproc},
				func(pe *core.PE) error {
					r, err := Parallel(pe, p)
					if err != nil {
						return err
					}
					results[pe.ID()] = r
					return nil
				})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := res.FirstErr(); err != nil {
				t.Fatal(err)
			}
			jobs := 0
			for i, r := range results {
				if r.Tours != seq.Tours || r.Nodes != seq.Nodes {
					t.Fatalf("PE %d: %d tours / %d nodes, want %d / %d",
						i, r.Tours, r.Nodes, seq.Tours, seq.Nodes)
				}
				jobs += r.Jobs
			}
			if jobs != seq.Jobs {
				t.Fatalf("jobs %d, want %d", jobs, seq.Jobs)
			}
		})
	}
}

func TestSmallBoardsHaveNoTours(t *testing.T) {
	for _, n := range []int{3, 4} {
		res, err := Sequential(Params{BoardN: n, Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Tours != 0 {
			t.Fatalf("%dx%d has %d tours, want 0", n, n, res.Tours)
		}
	}
}

func TestParallelOnSimulatedCluster(t *testing.T) {
	res, err := core.Run(core.Config{NumPE: 4, Platform: platform.SparcSunOS, Seed: 1},
		func(pe *core.PE) error {
			r, err := Parallel(pe, Params{BoardN: 5, Jobs: 16})
			if err != nil {
				return err
			}
			if r.Tours != 304 {
				return fmt.Errorf("tours = %d", r.Tours)
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
}
