package gmem

import "testing"

// The single-word and into/append accessors agree with Read/Write and avoid
// allocation on the hot path.
func TestWordAccessors(t *testing.T) {
	s := NewSpace(2, 8)
	g := NewSegment(s, 0)
	g.WriteWord(3, -77)
	if got := g.ReadWord(3); got != -77 {
		t.Fatalf("ReadWord = %d, want -77", got)
	}
	if got := g.Read(3, 1)[0]; got != -77 {
		t.Fatalf("Read disagrees with WriteWord: %d", got)
	}
	// Warm the block so the lazy allocation doesn't count.
	g.WriteWord(4, 0)
	allocs := testing.AllocsPerRun(500, func() {
		g.WriteWord(4, 9)
		_ = g.ReadWord(4)
	})
	if allocs > 0 {
		t.Errorf("word accessors allocate %v/op, want 0", allocs)
	}
}

func TestReadIntoAndAppend(t *testing.T) {
	s := NewSpace(2, 8)
	g := NewSegment(s, 0)
	g.Write(2, []int64{10, 20, 30})
	dst := make([]int64, 3)
	g.ReadInto(dst, 2)
	if dst[0] != 10 || dst[2] != 30 {
		t.Fatalf("ReadInto = %v", dst)
	}
	out := g.ReadAppend([]int64{-1}, 2, 3)
	if len(out) != 4 || out[0] != -1 || out[3] != 30 {
		t.Fatalf("ReadAppend = %v", out)
	}
}

// WriteRun and ReadRun, the located forms a served vectored request is applied
// and read through, are inverses over several same-home runs and agree with
// the checked accessors about where a run's words live.
func TestReadVWriteVRoundTrip(t *testing.T) {
	s := NewSpace(2, 8) // kernel 0 homes blocks 0, 2, 4, ... (words 0-7, 16-23, ...)
	g := NewSegment(s, 0)
	type run struct {
		block uint64
		off   int
		words []int64
	}
	runs := []run{{2, 1, []int64{1, 2, 3}}, {0, 2, []int64{4, 5}}, {4, 0, []int64{6, 7, 8, 9}}} // three distinct blocks, out of order
	for _, r := range runs {
		g.WriteRun(r.block, r.off, r.words)
	}
	for _, r := range runs {
		got := make([]int64, len(r.words))
		g.ReadRun(got, r.block, r.off)
		for i, w := range r.words {
			if got[i] != w {
				t.Errorf("block %d word %d: %d, want %d", r.block, r.off+i, got[i], w)
			}
		}
	}
	// Spot-check placement through the scalar path.
	if g.ReadWord(17) != 1 || g.ReadWord(19) != 3 || g.ReadWord(2) != 4 || g.ReadWord(35) != 9 {
		t.Error("WriteRun scattered words to wrong addresses")
	}
	// A run of a block nobody wrote reads as zeros, over whatever dst held.
	fresh := []int64{-5, -5}
	g.ReadRun(fresh, 6, 3)
	if fresh[0] != 0 || fresh[1] != 0 {
		t.Errorf("unwritten block read as %v", fresh)
	}
}

func TestVectorAccessorsRejectForeignAddress(t *testing.T) {
	s := NewSpace(2, 8)
	g := NewSegment(s, 0)
	for _, f := range []func(){
		func() { g.ReadWord(8) }, // block 1 is homed at kernel 1
		func() { g.WriteWord(8, 1) },
		func() { g.ReadInto(make([]int64, 1), 8) },
		func() { g.ReadAppend(nil, 8, 1) },
		func() { g.Write(8, []int64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("foreign address accepted")
				}
			}()
			f()
		}()
	}
}
