// Package othello implements the paper's third workload: the Othello
// (Reversi) game, "a typical search problem application common in
// artificial intelligence research". A bitboard engine feeds a fixed-depth
// alpha-beta search; the parallel version splits the root moves over the
// PEs through a global job pool, so deeper searches (bigger subtrees per
// job) show the speed-up the paper reports while shallow ones drown in
// communication.
package othello

import (
	"fmt"
	"math/bits"
)

// Board is a position with the side to move holding Own.
type Board struct {
	Own, Opp uint64
}

// Square bit layout: bit = x + 8*y, a1 = bit 0, h8 = bit 63.
const (
	notFileA uint64 = 0xfefefefefefefefe // clear column x=0
	notFileH uint64 = 0x7f7f7f7f7f7f7f7f // clear column x=7
	corners  uint64 = 0x8100000000000081
)

// Initial returns the standard Othello starting position (dark to move).
func Initial() Board {
	dark := uint64(1)<<28 | uint64(1)<<35  // e4, d5
	light := uint64(1)<<27 | uint64(1)<<36 // d4, e5
	return Board{Own: dark, Opp: light}
}

// shift moves every disc one step in direction d (0..7), masking wrap.
func shift(bb uint64, d int) uint64 {
	switch d {
	case 0: // east
		return (bb << 1) & notFileA
	case 1: // west
		return (bb >> 1) & notFileH
	case 2: // south (towards y+)
		return bb << 8
	case 3: // north
		return bb >> 8
	case 4: // south-east
		return (bb << 9) & notFileA
	case 5: // south-west
		return (bb << 7) & notFileH
	case 6: // north-east
		return (bb >> 7) & notFileA
	default: // north-west
		return (bb >> 9) & notFileH
	}
}

// Moves returns a bitboard of the side to move's legal moves.
func (b Board) Moves() uint64 {
	empty := ^(b.Own | b.Opp)
	var moves uint64
	for d := 0; d < 8; d++ {
		x := shift(b.Own, d) & b.Opp
		for i := 0; i < 5; i++ {
			x |= shift(x, d) & b.Opp
		}
		moves |= shift(x, d) & empty
	}
	return moves
}

// Apply plays the move on square sq (a legal move of the side to move) and
// returns the resulting position with sides swapped.
func (b Board) Apply(sq int) Board {
	move := uint64(1) << uint(sq)
	if move&(b.Own|b.Opp) != 0 {
		panic(fmt.Sprintf("othello: square %d occupied", sq))
	}
	var flips uint64
	for d := 0; d < 8; d++ {
		line := uint64(0)
		x := shift(move, d)
		for x&b.Opp != 0 {
			line |= x
			x = shift(x, d)
		}
		if x&b.Own != 0 {
			flips |= line
		}
	}
	if flips == 0 {
		panic(fmt.Sprintf("othello: illegal move %d (no flips)", sq))
	}
	own := b.Own | move | flips
	opp := b.Opp &^ flips
	return Board{Own: opp, Opp: own}
}

// Pass swaps the side to move without playing.
func (b Board) Pass() Board { return Board{Own: b.Opp, Opp: b.Own} }

// Discs counts discs of the side to move and the opponent.
func (b Board) Discs() (own, opp int) {
	return bits.OnesCount64(b.Own), bits.OnesCount64(b.Opp)
}

// MoveList expands a move bitboard into ascending square indices.
func MoveList(moves uint64) []int {
	out := make([]int, 0, bits.OnesCount64(moves))
	for moves != 0 {
		sq := bits.TrailingZeros64(moves)
		out = append(out, sq)
		moves &= moves - 1
	}
	return out
}

// Evaluate scores a position from the side to move's perspective:
// weighted corners, mobility and material.
func Evaluate(b Board) int {
	ownMob := bits.OnesCount64(b.Moves())
	oppMob := bits.OnesCount64(b.Pass().Moves())
	ownC := bits.OnesCount64(b.Own & corners)
	oppC := bits.OnesCount64(b.Opp & corners)
	own, opp := b.Discs()
	return 100*(ownC-oppC) + 10*(ownMob-oppMob) + (own - opp)
}

// String renders the position with the side to move as 'o'.
func (b Board) String() string {
	out := make([]byte, 0, 72)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			bit := uint64(1) << uint(x+8*y)
			switch {
			case b.Own&bit != 0:
				out = append(out, 'o')
			case b.Opp&bit != 0:
				out = append(out, 'x')
			default:
				out = append(out, '.')
			}
		}
		out = append(out, '\n')
	}
	return string(out)
}

// MidgamePosition plays plies deterministic half-moves from the start to
// reach a position with a wider root than the four-move opening: each side
// plays the legal move that maximises the opponent's reply mobility (ties
// broken toward the lowest square), which keeps the game open — 13 root
// moves after the default 10 plies. Forced passes do not count as plies.
func MidgamePosition(plies int) Board {
	b := Initial()
	for i := 0; i < plies; i++ {
		moves := MoveList(b.Moves())
		if len(moves) == 0 {
			b = b.Pass()
			if b.Moves() == 0 {
				return b // game ended early (not for small plies)
			}
			moves = MoveList(b.Moves())
		}
		best, bestMob := moves[0], -1
		for _, sq := range moves {
			mob := bits.OnesCount64(b.Apply(sq).Moves())
			if mob > bestMob {
				best, bestMob = sq, mob
			}
		}
		b = b.Apply(best)
	}
	return b
}
