// Package knight implements the paper's fourth workload: the Knight's Tour
// problem — "find the route which a knight passes all [squares] on the
// surface of an N×N chess board only once" — as an exhaustive backtracking
// count of complete tours.
//
// The parallel version studies computation granularity exactly as the
// paper does: the search tree is split into a configurable number of jobs
// (prefix paths enumerated breadth-first), which PEs claim from a global
// counter. Few jobs mean coarse grains and poor balance; many jobs mean
// fine grains and high communication frequency — the tension behind the
// paper's Figures 19-21.
package knight

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/sim"
)

// Params describes one experiment instance.
type Params struct {
	BoardN int // board edge (paper-scale: 5)
	Jobs   int // minimum number of jobs to split the search into (1 = sequential shape)
	StartX int // starting square (0,0 = corner, the classic setting)
	StartY int
}

func (p Params) validate() error {
	if p.BoardN < 3 || p.BoardN > 8 {
		return fmt.Errorf("knight: board %d outside [3,8]", p.BoardN)
	}
	if p.StartX < 0 || p.StartX >= p.BoardN || p.StartY < 0 || p.StartY >= p.BoardN {
		return fmt.Errorf("knight: start (%d,%d) off the board", p.StartX, p.StartY)
	}
	if p.Jobs < 1 {
		return fmt.Errorf("knight: jobs %d < 1", p.Jobs)
	}
	return nil
}

// Result reports one enumeration.
type Result struct {
	Tours   int64        // complete open tours found
	Nodes   int64        // search-tree nodes visited
	Jobs    int          // jobs processed (per PE for Parallel, total for Sequential)
	Ops     float64      // counted operations
	Elapsed sim.Duration // timed region (parallel runs)
}

// opsPerNode is the counted cost of one search-tree node (move generation
// and bounds checks on period hardware).
const opsPerNode = 25

var offsets = [8][2]int{
	{1, 2}, {2, 1}, {2, -1}, {1, -2},
	{-1, -2}, {-2, -1}, {-2, 1}, {-1, 2},
}

// Prefix is a partial path: the visited-square bitmask, the current square
// and the path length so far.
type Prefix struct {
	Visited uint64
	Cur     int // square index y*N+x
	Depth   int
}

// startPrefix is the root of the search.
func startPrefix(p Params) Prefix {
	sq := p.StartY*p.BoardN + p.StartX
	return Prefix{Visited: 1 << uint(sq), Cur: sq, Depth: 1}
}

// moveTables[n][sq] is the set of squares a knight on square sq of an n×n
// board reaches, one bit per square index y*n+x. validate bounds n to 8, so
// every board fits one word.
var moveTables = func() (t [9][64]uint64) {
	for n := 3; n <= 8; n++ {
		for sq := 0; sq < n*n; sq++ {
			x, y := sq%n, sq/n
			for _, o := range offsets {
				nx, ny := x+o[0], y+o[1]
				if nx >= 0 && nx < n && ny >= 0 && ny < n {
					t[n][sq] |= 1 << uint(ny*n+nx)
				}
			}
		}
	}
	return t
}()

// successors writes the unvisited squares reachable from pre on an n×n
// board into out, in offsets order, and returns how many there are.
func successors(pre Prefix, n int, out *[8]int) int {
	x, y := pre.Cur%n, pre.Cur/n
	k := 0
	for _, o := range offsets {
		nx, ny := x+o[0], y+o[1]
		if nx < 0 || nx >= n || ny < 0 || ny >= n {
			continue
		}
		sq := ny*n + nx
		if pre.Visited&(1<<uint(sq)) != 0 {
			continue
		}
		out[k] = sq
		k++
	}
	return k
}

// EnumPrefixes splits the search into at least minJobs prefix jobs by
// breadth-first expansion from the start square. It is deterministic, so
// every PE computes the identical job list locally. Expansion stops early
// if the frontier cannot grow (tiny boards).
func EnumPrefixes(p Params, minJobs int) []Prefix {
	moves := &moveTables[p.BoardN]
	frontier := []Prefix{startPrefix(p)}
	var succ [8]int
	for len(frontier) < minJobs {
		size, grew := 0, false
		for _, pre := range frontier {
			k := bits.OnesCount64(moves[pre.Cur] &^ pre.Visited)
			size += max(k, 1)
			grew = grew || k > 0
		}
		if !grew {
			break
		}
		next := make([]Prefix, 0, size)
		for _, pre := range frontier {
			k := successors(pre, p.BoardN, &succ)
			if k == 0 {
				next = append(next, pre) // dead end or complete: keep as its own job
				continue
			}
			for _, sq := range succ[:k] {
				next = append(next, Prefix{
					Visited: pre.Visited | 1<<uint(sq),
					Cur:     sq,
					Depth:   pre.Depth + 1,
				})
			}
		}
		frontier = next
	}
	return frontier
}

// search is one exhaustive backtracking walk over a board's move table.
type search struct {
	moves  *[64]uint64
	target int // squares on the board: the depth of a complete tour
	tours  int64
	nodes  int64
}

// walk counts every descendant of the node at square cur and depth whose
// path has taken the visited squares. A child with no onward move is a
// leaf: it is counted here, as a tour if it completes the board, and costs
// no call.
func (s *search) walk(visited uint64, cur, depth int) {
	depth++
	for m := s.moves[cur] &^ visited; m != 0; m &= m - 1 {
		sq := bits.TrailingZeros64(m)
		v := visited | 1<<uint(sq)
		s.nodes++
		if s.moves[sq]&^v == 0 {
			if depth == s.target {
				s.tours++
			}
			continue
		}
		s.walk(v, sq, depth)
	}
}

// extend runs exhaustive backtracking from a prefix, counting complete
// tours and visited nodes (the prefix's own square included).
func extend(pre Prefix, n, target int) (tours, nodes int64) {
	if pre.Depth == target {
		return 1, 1
	}
	s := search{moves: &moveTables[n], target: target, nodes: 1}
	s.walk(pre.Visited, pre.Cur, pre.Depth)
	return s.tours, s.nodes
}

// Sequential counts tours on one processor, splitting into the same jobs
// as the parallel version so node counts match exactly.
func Sequential(p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	prefixes := EnumPrefixes(p, p.Jobs)
	target := p.BoardN * p.BoardN
	res := &Result{Jobs: len(prefixes)}
	for _, pre := range prefixes {
		tours, nodes := extend(pre, p.BoardN, target)
		res.Tours += tours
		res.Nodes += nodes
	}
	res.Ops = float64(res.Nodes) * opsPerNode
	return res, nil
}

// Parallel counts tours as an SPMD program: PEs claim prefix jobs from a
// global counter and accumulate tours/nodes into global cells. Every PE
// returns the same Tours/Nodes (Jobs is per-PE).
func Parallel(pe *core.PE, p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	prefixes := EnumPrefixes(p, p.Jobs) // deterministic, replicated
	target := p.BoardN * p.BoardN
	counter := core.AllocCounter(pe, 1)
	tours := core.AllocCounter(pe, 1)
	nodes := core.AllocCounter(pe, 1)
	pe.Barrier()
	start := pe.Now()

	res := &Result{}
	for {
		j, err := counter.FetchAdd(0, 1)
		if err != nil {
			return nil, err
		}
		if j >= int64(len(prefixes)) {
			break
		}
		t, n := extend(prefixes[j], p.BoardN, target)
		pe.Compute(float64(n) * opsPerNode)
		if _, err := tours.FetchAdd(0, t); err != nil {
			return nil, err
		}
		if _, err := nodes.FetchAdd(0, n); err != nil {
			return nil, err
		}
		res.Jobs++
	}
	pe.Barrier()
	res.Elapsed = pe.Now() - start
	var err error
	if res.Tours, err = tours.Load(0); err != nil {
		return nil, err
	}
	if res.Nodes, err = nodes.Load(0); err != nil {
		return nil, err
	}
	res.Ops = float64(res.Nodes) * opsPerNode
	pe.Barrier()
	return res, nil
}
