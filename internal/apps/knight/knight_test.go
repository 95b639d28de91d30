package knight

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/transport/simnet"
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
	// The search is exhaustive, so the node count is fixed too; every
	// simulated knight figure charges compute time by it.
	if res.Nodes != corner5x5Nodes {
		t.Fatalf("5x5 corner nodes = %d, want %d", res.Nodes, corner5x5Nodes)
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

// corner5x5Nodes is the size of the 5×5 search tree from a corner.
const corner5x5Nodes = 1735079

// refExtend is the search as it was first written: a closure per node, the
// square's coordinates recovered by division and each of the eight offsets
// bounds-checked. extend must count exactly what it counts.
func refExtend(pre Prefix, n, target int) (tours, nodes int64) {
	var rec func(visited uint64, cur, depth int)
	rec = func(visited uint64, cur, depth int) {
		nodes++
		if depth == target {
			tours++
			return
		}
		x, y := cur%n, cur/n
		for _, o := range offsets {
			nx, ny := x+o[0], y+o[1]
			if nx < 0 || nx >= n || ny < 0 || ny >= n {
				continue
			}
			sq := ny*n + nx
			bit := uint64(1) << uint(sq)
			if visited&bit != 0 {
				continue
			}
			rec(visited|bit, sq, depth+1)
		}
	}
	rec(pre.Visited, pre.Cur, pre.Depth)
	return tours, nodes
}

// refEnumPrefixes is the job split as it was first written, one allocated
// successor list per prefix. EnumPrefixes must return exactly its list: the
// order decides which PE runs which job, and so every simulated figure.
func refEnumPrefixes(p Params, minJobs int) []Prefix {
	frontier := []Prefix{startPrefix(p)}
	for len(frontier) < minJobs {
		var next []Prefix
		grew := false
		for _, pre := range frontier {
			x, y := pre.Cur%p.BoardN, pre.Cur/p.BoardN
			var succ []int
			for _, o := range offsets {
				nx, ny := x+o[0], y+o[1]
				if nx < 0 || nx >= p.BoardN || ny < 0 || ny >= p.BoardN {
					continue
				}
				if sq := ny*p.BoardN + nx; pre.Visited&(1<<uint(sq)) == 0 {
					succ = append(succ, sq)
				}
			}
			if len(succ) == 0 {
				next = append(next, pre)
				continue
			}
			grew = true
			for _, sq := range succ {
				next = append(next, Prefix{Visited: pre.Visited | 1<<uint(sq), Cur: sq, Depth: pre.Depth + 1})
			}
		}
		frontier = next
		if !grew {
			break
		}
	}
	return frontier
}

func checkExtend(t *testing.T, what string, pre Prefix, n int) {
	t.Helper()
	tours, nodes := extend(pre, n, n*n)
	wantTours, wantNodes := refExtend(pre, n, n*n)
	if tours != wantTours || nodes != wantNodes {
		t.Fatalf("%s: %d tours / %d nodes, reference %d / %d", what, tours, nodes, wantTours, wantNodes)
	}
}

func TestExtendMatchesReferenceOnJobPrefixes(t *testing.T) {
	for i, pre := range EnumPrefixes(Params{BoardN: 5, Jobs: 1024}, 1024) {
		checkExtend(t, fmt.Sprintf("5x5 job %d", i), pre, 5)
	}
}

func TestExtendMatchesReferenceFromEveryStart(t *testing.T) {
	for n := 3; n <= 5; n++ {
		for sq := 0; sq < n*n; sq++ {
			pre := startPrefix(Params{BoardN: n, StartX: sq % n, StartY: sq / n})
			checkExtend(t, fmt.Sprintf("%dx%d from %d", n, n, sq), pre, n)
		}
	}
}

// deepPrefix walks a knight from a random square, Warnsdorff's rule with
// random ties, until left squares are unvisited. It reports false if the
// walk gets stuck first.
func deepPrefix(rng *rand.Rand, n, left int) (Prefix, bool) {
	moves := &moveTables[n]
	sq := rng.Intn(n * n)
	pre := Prefix{Visited: 1 << uint(sq), Cur: sq, Depth: 1}
	for pre.Depth < n*n-left {
		best, bestDeg, ties := -1, 9, 0
		for m := moves[pre.Cur] &^ pre.Visited; m != 0; m &= m - 1 {
			next := bits.TrailingZeros64(m)
			deg := bits.OnesCount64(moves[next] &^ (pre.Visited | 1<<uint(next)))
			switch {
			case deg < bestDeg:
				best, bestDeg, ties = next, deg, 1
			case deg == bestDeg:
				if ties++; rng.Intn(ties) == 0 {
					best = next
				}
			}
		}
		if best < 0 {
			return pre, false
		}
		pre = Prefix{Visited: pre.Visited | 1<<uint(best), Cur: best, Depth: pre.Depth + 1}
	}
	return pre, true
}

func TestExtendMatchesReferenceOnDeepPrefixes(t *testing.T) {
	const left, walks = 12, 40
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{6, 8} {
		for i := 0; i < walks; {
			pre, ok := deepPrefix(rng, n, left)
			if !ok {
				continue
			}
			checkExtend(t, fmt.Sprintf("%dx%d walk %d (%+v)", n, n, i, pre), pre, n)
			i++
		}
	}
}

func TestEnumPrefixesMatchesReference(t *testing.T) {
	for _, n := range []int{5, 6} {
		for _, jobs := range []int{1, 16, 64, 1024} {
			p := Params{BoardN: n, Jobs: jobs}
			got, want := EnumPrefixes(p, jobs), refEnumPrefixes(p, jobs)
			if len(got) != len(want) {
				t.Fatalf("%dx%d jobs=%d: %d prefixes, reference %d", n, n, jobs, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%dx%d jobs=%d: prefix %d is %+v, reference %+v", n, n, jobs, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParallelReturnsGMFailure: a GM operation that fails inside the
// application comes back as Parallel's error, not as a panic. Node 2 — home
// of the nodes tally — dies mid-search on simnet with RequestTimeout set;
// each survivor's next FetchAdd there fails, and its Parallel returns the
// *PeerDownError, which is also what the run records for that PE. The
// victim's Parallel fails the same way, and its run records that error, not
// its failed exit.
func TestParallelReturnsGMFailure(t *testing.T) {
	const victim = 2
	cfg := core.Config{NumPE: 4, Platform: platform.SparcSunOS, Seed: 1,
		RequestTimeout: 20 * sim.Millisecond, RequestRetries: 3, PeerLossBudget: 4,
		Kills: []simnet.Kill{{Node: victim, At: sim.Second}}} // the search takes ~4.8 s
	errs := make([]error, cfg.NumPE)
	res, err := core.Run(cfg, func(pe *core.PE) error {
		_, errs[pe.ID()] = Parallel(pe, Params{BoardN: 5, Jobs: 16})
		return errs[pe.ID()]
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, e := range errs {
		var down *core.PeerDownError
		if i == victim {
			// Its exit cannot reach kernel 0 either; the run keeps what the
			// program returned.
			if !errors.As(e, &down) || !errors.Is(res.Errs[i], e) {
				t.Errorf("PE %d (the victim): Parallel returned %v, run recorded %v; want the run to keep Parallel's *PeerDownError",
					i, e, res.Errs[i])
			}
			continue
		}
		if !errors.As(e, &down) || down.Peer != victim || res.Errs[i] != e {
			t.Errorf("PE %d: Parallel returned %v, run recorded %v; want the same *PeerDownError naming peer %d",
				i, e, res.Errs[i], victim)
		}
	}
}
