package gmem

import (
	"testing"
	"testing/quick"
)

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
