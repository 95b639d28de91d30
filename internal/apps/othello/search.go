package othello

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Inf bounds every position value.
const Inf = 1 << 24

// openingPlies is the length of the deterministic opening every search
// starts after: a wide midgame root.
const openingPlies = 10

// Params describes one experiment instance.
type Params struct {
	Depth int // search depth in plies (paper: 3..8)
}

// Result reports one search.
type Result struct {
	BestMove int          // square index of the best root move
	Value    int          // root value from the side to move's perspective
	Nodes    int64        // nodes visited (identical sequential vs parallel)
	Ops      float64      // counted operations
	Jobs     int          // root moves searched by this PE (parallel) or total
	Elapsed  sim.Duration // timed region (parallel runs)
}

// opsPerNode is the counted cost of visiting one node: move generation,
// application and evaluation on period hardware.
const opsPerNode = 60

// negamax is fixed-depth alpha-beta from the side to move's perspective.
// A forced pass consumes a ply, guaranteeing termination.
func negamax(b Board, depth, alpha, beta int, nodes *int64) int {
	*nodes++
	if depth == 0 {
		return Evaluate(b)
	}
	moves := b.Moves()
	if moves == 0 {
		pass := b.Pass()
		if pass.Moves() == 0 {
			own, opp := b.Discs()
			return 1000 * (own - opp) // game over: exact disc difference
		}
		return -negamax(pass, depth-1, -beta, -alpha, nodes)
	}
	best := -Inf
	for _, sq := range MoveList(moves) {
		v := -negamax(b.Apply(sq), depth-1, -beta, -alpha, nodes)
		if v > best {
			best = v
		}
		if v > alpha {
			alpha = v
		}
		if alpha >= beta {
			break
		}
	}
	return best
}

// SearchMove evaluates one root move with a full alpha-beta window on the
// subtree — the unit of work the parallel version distributes. Using a full
// window per root move makes the sequential and parallel node counts
// identical, so measured speed-up reflects distribution only.
func SearchMove(root Board, sq, depth int) (value int, nodes int64) {
	value = -negamax(root.Apply(sq), depth-1, -Inf, Inf, &nodes)
	return value, nodes
}

// Sequential searches every root move on one processor.
func Sequential(p Params) (*Result, error) {
	if p.Depth < 1 {
		return nil, fmt.Errorf("othello: depth %d < 1", p.Depth)
	}
	root := MidgamePosition(openingPlies)
	moves := MoveList(root.Moves())
	if len(moves) == 0 {
		return nil, fmt.Errorf("othello: no legal moves at the root")
	}
	res := &Result{BestMove: -1, Value: -Inf}
	for _, sq := range moves {
		v, nodes := SearchMove(root, sq, p.Depth)
		res.Nodes += nodes
		if v > res.Value {
			res.Value, res.BestMove = v, sq
		}
		res.Jobs++
	}
	res.Ops = float64(res.Nodes) * opsPerNode
	return res, nil
}

// Parallel distributes root moves through a global job pool: each PE claims
// move indices with FetchAdd, searches its subtrees, and publishes values
// into a global result array; PE 0 reduces to the best move. Every PE
// returns the same BestMove/Value/Nodes (Jobs is per-PE).
func Parallel(pe *core.PE, p Params) (*Result, error) {
	if p.Depth < 1 {
		return nil, fmt.Errorf("othello: depth %d < 1", p.Depth)
	}
	root := MidgamePosition(openingPlies)
	moves := MoveList(root.Moves())
	if len(moves) == 0 {
		return nil, fmt.Errorf("othello: no legal moves at the root")
	}
	counter := core.AllocCounter(pe, 1)
	nodes := core.AllocCounter(pe, 1)
	values := core.AllocArray[int64](pe, len(moves))

	pe.Barrier() // everyone has allocated; counters start at zero
	start := pe.Now()

	res := &Result{}
	for {
		j, err := counter.FetchAdd(0, 1)
		if err != nil {
			return nil, err
		}
		if j >= int64(len(moves)) {
			break
		}
		v, n := SearchMove(root, moves[j], p.Depth)
		pe.Compute(float64(n) * opsPerNode)
		res.Jobs++
		if err := values.Store(int(j), int64(v)); err != nil {
			return nil, err
		}
		if _, err := nodes.FetchAdd(0, n); err != nil {
			return nil, err
		}
	}
	pe.Barrier()
	res.Elapsed = pe.Now() - start

	// Reduce: every PE reads the published values (small array) so all
	// return the same answer, as the API library would give each process.
	vals := make([]int64, len(moves))
	if err := values.LoadRange(0, vals); err != nil {
		return nil, err
	}
	res.BestMove, res.Value = -1, -Inf
	for i, v := range vals {
		if int(v) > res.Value {
			res.Value, res.BestMove = int(v), moves[i]
		}
	}
	var err error
	if res.Nodes, err = nodes.Load(0); err != nil {
		return nil, err
	}
	res.Ops = float64(res.Nodes) * opsPerNode
	pe.Barrier()
	return res, nil
}
