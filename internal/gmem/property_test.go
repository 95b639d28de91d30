package gmem

import (
	"math"
	"testing"
	"testing/quick"
)

// A float64 travels through global memory as its IEEE-754 bits in a word
// (core.Array), which must be bit-exact, not merely value-preserving: a
// conversion that canonicalises NaNs or drops the sign of zero would corrupt
// reduction payloads silently. Checked over every special value and all 2^64
// bit patterns by property.
func TestFloatWordBitExact(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1),
		math.NaN(),
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, // denormals
		1.0 / 3.0, -math.Pi,
	}
	for _, x := range specials {
		bits := math.Float64bits(x)
		w := int64(math.Float64bits(x))
		if got := math.Float64bits(math.Float64frombits(uint64(w))); got != bits {
			t.Errorf("word round trip of %v changed bits: %#x -> %#x", x, bits, got)
		}
	}
	// NaN payload bits (signalling vs quiet, sign, mantissa) must survive:
	// quick-check the conversion on raw bit patterns, which reaches every
	// NaN encoding no float64 generator would produce.
	f := func(bits uint64) bool {
		w := int64(bits)
		x := math.Float64frombits(uint64(w))
		return int64(math.Float64bits(x)) == w && math.Float64bits(x) == bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Block-cyclic placement round-trip: block b lives at home b mod N as the
// (b div N)-th block of that home, and (home, ordinal) reconstructs b.
func TestBlockCyclicMappingRoundTrip(t *testing.T) {
	f := func(nRaw, bwRaw uint8, blockRaw uint16) bool {
		s := NewSpace(int(nRaw%8)+1, int(bwRaw%32)+1)
		b := uint64(blockRaw)
		base := b * uint64(s.BlockWords)
		home := s.HomeOf(base)
		if home != int(b%uint64(s.N)) {
			return false
		}
		// Every word of the block maps to the same (home, block).
		for off := 0; off < s.BlockWords; off++ {
			addr := base + uint64(off)
			if s.HomeOf(addr) != home || s.BlockOf(addr) != b {
				return false
			}
		}
		// Consecutive blocks cycle through homes in order.
		if next := s.HomeOf(base + uint64(s.BlockWords)); next != (home+1)%s.N {
			return false
		}
		// Inverse: the ordinal-at-home decomposition reconstructs b.
		ordinal := b / uint64(s.N)
		return ordinal*uint64(s.N)+uint64(home) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Allocator boundary behaviour: regions from any interleaving of Alloc and
// AllocBlocks are pairwise disjoint, block allocations are aligned and
// never skip a boundary the cursor already sits on, and Used() is exact.
func TestAllocatorRegionsDisjointProperty(t *testing.T) {
	f := func(bwRaw uint8, sizes []uint8, blockAligned []bool) bool {
		s := NewSpace(3, int(bwRaw%16)+1)
		a := NewAllocator(s)
		bw := uint64(s.BlockWords)
		type region struct{ base, end uint64 }
		var regions []region
		for i, szRaw := range sizes {
			n := int(szRaw%40) + 1
			var base uint64
			if i < len(blockAligned) && blockAligned[i] {
				wasAligned := a.Used()%bw == 0
				before := a.Used()
				base = a.AllocBlocks(n)
				if base%bw != 0 {
					return false
				}
				if wasAligned && base != before {
					return false // cursor already on a boundary: no padding
				}
			} else {
				base = a.Alloc(n)
			}
			regions = append(regions, region{base, base + uint64(n)})
		}
		for i := 1; i < len(regions); i++ {
			if regions[i].base < regions[i-1].end {
				return false // overlap
			}
		}
		if len(regions) > 0 && a.Used() != regions[len(regions)-1].end {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Alloc(%d) did not panic", n)
				}
			}()
			NewAllocator(NewSpace(2, 8)).Alloc(n)
		}()
	}
}
