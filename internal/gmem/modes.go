package gmem

import (
	"fmt"
	"sort"
)

// Mode selects the consistency tier of a global-memory allocation. The
// default, ModeStrong, is the paper's home-based strong coherence: every
// remote read and write is a round trip with the home. The other tiers trade
// freshness, or memory, for messages per the mode lattice documented in
// DESIGN.md §14:
//
//   - ModeRelease buffers writes in a per-PE write-combining buffer and
//     publishes them, coalesced, at synchronisation edges (barrier entry,
//     lock release). Reads observe the PE's own buffered
//     writes plus whatever the home last had flushed to it.
//   - ModeLease serves reads from a time-bounded per-block lease: a miss
//     fetches the whole block once and subsequent reads skip the
//     invalidation round until the lease expires or a synchronisation
//     acquire edge (barrier crossing, lock grant) drops it.
//   - ModeCached keeps the strong contract and replicates reads: a scalar
//     read miss fetches the whole block and joins the home's copyset, later
//     reads of the block are local, and every mutation goes to the home as a
//     message and is acknowledged only after each copy has been invalidated.
//
// Atomic operations (fetch-add, CAS) always execute with strong semantics
// at the home regardless of the containing allocation's mode.
type Mode uint8

const (
	// ModeStrong is home-based strong coherence (the default; zero value).
	ModeStrong Mode = iota
	// ModeRelease is release consistency: writes buffered per PE, flushed
	// at sync edges.
	ModeRelease
	// ModeLease is lease-based read caching: reads served from time-bounded
	// block leases, staleness bounded by the grant-to-expiry window.
	ModeLease
	// ModeCached is write-invalidate read caching under the strong contract.
	ModeCached

	// NumModes sizes per-mode tables.
	NumModes = iota
)

// modeNames is the one table of mode names, for String and ParseMode.
var modeNames = [NumModes]string{"strong", "release", "lease", "cached"}

func (m Mode) String() string {
	if m < NumModes {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode is String's inverse. The empty string names the default mode.
func ParseMode(s string) (Mode, error) {
	if s == "" {
		return ModeStrong, nil
	}
	for m, name := range modeNames {
		if s == name {
			return Mode(m), nil
		}
	}
	return ModeStrong, fmt.Errorf("gmem: unknown consistency mode %q", s)
}

// Tag is what a history event of an access in mode m carries: the per-word
// rule set the checker judges it by. A cached word promises what a strong
// one does and is tagged as one.
func (m Mode) Tag() uint8 {
	if m == ModeCached {
		m = ModeStrong
	}
	return uint8(m)
}

// ModeTable maps address ranges to consistency modes. Like the Allocator it
// is pure and deterministic: every PE of an SPMD program records the same
// (base, size, mode) sequence at allocation time and therefore agrees on
// every address's mode with no messages exchanged. Ranges never overlap
// (they come from allocator-disjoint regions) and lookups outside any
// recorded range return the table's default mode.
type ModeTable struct {
	def    Mode
	ranges []modeRange // sorted by base
}

type modeRange struct {
	base, end uint64 // [base, end)
	mode      Mode
}

// NewModeTable returns a table whose unrecorded addresses map to def.
func NewModeTable(def Mode) *ModeTable { return &ModeTable{def: def} }

// Set records that [base, base+n) uses mode m. Recording the default mode
// is a no-op (the table stays small when everything is strong). Overlapping
// an existing range panics: allocations are disjoint by construction, so an
// overlap is a caller bug.
func (t *ModeTable) Set(base uint64, n int, m Mode) {
	if n <= 0 {
		panic("gmem: ModeTable.Set of non-positive size")
	}
	if m == t.def {
		return
	}
	r := modeRange{base: base, end: base + uint64(n), mode: m}
	i := sort.Search(len(t.ranges), func(i int) bool { return t.ranges[i].base >= r.base })
	if i > 0 && t.ranges[i-1].end > r.base {
		panic(fmt.Sprintf("gmem: mode range [%d,%d) overlaps [%d,%d)",
			r.base, r.end, t.ranges[i-1].base, t.ranges[i-1].end))
	}
	if i < len(t.ranges) && t.ranges[i].base < r.end {
		panic(fmt.Sprintf("gmem: mode range [%d,%d) overlaps [%d,%d)",
			r.base, r.end, t.ranges[i].base, t.ranges[i].end))
	}
	t.ranges = append(t.ranges, modeRange{})
	copy(t.ranges[i+1:], t.ranges[i:])
	t.ranges[i] = r
}

// Sole reports the one mode every address maps to when no range is recorded
// — the gate the range operations check before consulting per-address modes.
func (t *ModeTable) Sole() (Mode, bool) { return t.def, len(t.ranges) == 0 }

// Uses reports whether any address maps to mode m.
func (t *ModeTable) Uses(m Mode) bool {
	if t.def == m {
		return true
	}
	for i := range t.ranges {
		if t.ranges[i].mode == m {
			return true
		}
	}
	return false
}

// Lookup returns the mode of addr.
func (t *ModeTable) Lookup(addr uint64) Mode {
	// Tables hold a handful of ranges at most, so a linear scan is cheaper
	// than a binary search on this hot path.
	for i := range t.ranges {
		r := &t.ranges[i]
		if addr < r.base {
			break
		}
		if addr < r.end {
			return r.mode
		}
	}
	return t.def
}

// ModeRuns splits [addr, addr+n) into maximal sub-ranges with a single mode
// each, calling fn(mode, start, count) in ascending address order.
func (t *ModeTable) ModeRuns(addr uint64, n int, fn func(m Mode, start uint64, count int)) {
	if n <= 0 {
		return
	}
	end := addr + uint64(n)
	emit := func(m Mode, start, stop uint64) {
		if stop > start {
			fn(m, start, int(stop-start))
		}
	}
	for _, r := range t.ranges {
		if r.end <= addr {
			continue
		}
		if r.base >= end {
			break
		}
		emit(t.def, addr, r.base) // gap before this range
		lo, hi := r.base, r.end
		if lo < addr {
			lo = addr
		}
		if hi > end {
			hi = end
		}
		emit(r.mode, lo, hi)
		addr = hi
	}
	emit(t.def, addr, end)
}
