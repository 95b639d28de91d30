package gmem

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestHomePlacementBlockCyclic(t *testing.T) {
	s := NewSpace(4, 8)
	for addr := uint64(0); addr < 8; addr++ {
		if s.HomeOf(addr) != 0 {
			t.Fatalf("addr %d homed at %d, want 0", addr, s.HomeOf(addr))
		}
	}
	if s.HomeOf(8) != 1 || s.HomeOf(16) != 2 || s.HomeOf(24) != 3 || s.HomeOf(32) != 0 {
		t.Fatal("block-cyclic placement broken")
	}
}

func TestAllocatorDeterministicSequence(t *testing.T) {
	s := NewSpace(4, 8)
	a1, a2 := NewAllocator(s), NewAllocator(s)
	for i := 1; i < 20; i++ {
		if a1.Alloc(i) != a2.Alloc(i) {
			t.Fatal("allocators diverged on identical sequences")
		}
	}
}

func TestAllocBlocksAligns(t *testing.T) {
	s := NewSpace(4, 8)
	a := NewAllocator(s)
	a.Alloc(3)
	base := a.AllocBlocks(10)
	if base%8 != 0 {
		t.Fatalf("AllocBlocks returned unaligned base %d", base)
	}
	if base != 8 {
		t.Fatalf("base = %d, want 8", base)
	}
}

func TestSegmentReadWriteRoundTrip(t *testing.T) {
	s := NewSpace(2, 8)
	g := NewSegment(s, 0)
	g.Write(2, []int64{10, 20, 30})
	got := g.Read(2, 3)
	if got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("read back %v", got)
	}
	// Unwritten words are zero.
	if g.Read(0, 1)[0] != 0 {
		t.Fatal("fresh word not zero")
	}
}

func TestSegmentRejectsForeignAddress(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for foreign address")
		}
	}()
	s := NewSpace(2, 8)
	NewSegment(s, 0).Write(8, []int64{1}) // block 1 homes at kernel 1
}

func TestSegmentRejectsBlockSpanningRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for spanning range")
		}
	}()
	s := NewSpace(1, 4)
	NewSegment(s, 0).Write(2, []int64{1, 2, 3}) // crosses block boundary
}

// TestSegmentRunsAtReportOwnership pins the ownership-reporting run forms a
// PE's own-home range runs use: a foreign block is refused whole with nothing
// read or materialised, and a write racing the directory flip of a migration
// stores a prefix of whole windows — exactly the words it reports — and leaves
// the rest as they were for the caller to send to the new home.
func TestSegmentRunsAtReportOwnership(t *testing.T) {
	const words = 3 * writeWindowWords
	s := NewSpace(2, words)
	d := NewDirectory(2, 0)
	g := NewSegment(s, 0)
	g.SetDirectory(d)
	own, foreign := s.Locate(0), s.Locate(words) // blocks 0 and 1
	run := make([]int64, words)
	if n := g.WriteRunAt(foreign, run); n != 0 || g.Has(1) {
		t.Fatalf("write to a foreign block stored %d words, materialised %v", n, g.Has(1))
	}
	if g.ReadRunAt(run, foreign) {
		t.Fatal("read of a foreign block reported owned")
	}
	var flipped atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !flipped.Load() {
			runtime.Gosched()
		}
		d.SetOverride(0, 1) // the migration's flip, racing the writer
	}()
	got := make([]int64, words)
	for i := int64(1); ; i++ {
		for j := range run {
			run[j] = i
		}
		n := g.WriteRunAt(own, run)
		if n%writeWindowWords != 0 || n > words {
			t.Fatalf("write %d stored %d words, not a whole number of windows", i, n)
		}
		g.ReadRun(got, 0, 0)
		for j, v := range got {
			want := i - 1 // a refused window keeps the previous write's words
			if j < n {
				want = i
			}
			if v != want {
				t.Fatalf("write %d stored %d words, but word %d = %d, want %d", i, n, j, v, want)
			}
		}
		if n < words {
			break
		}
		if i == 100 {
			flipped.Store(true)
		}
	}
	<-done
	if g.ReadRunAt(got, own) {
		t.Fatal("read of a block whose directory flipped away reported owned")
	}
}

// TestDirectoryCacheHint: a requester's cached redirect hint lands in its
// kernel's directory only where it cannot disown that kernel's blocks — not
// for a hint naming the kernel, and not for a block the kernel homes (one it
// adopted after the NACK carrying the hint was sent).
func TestDirectoryCacheHint(t *testing.T) {
	d := NewDirectory(3, 0)
	d.CacheHint(1, 2, 0) // block 1's static home is kernel 1: cached
	d.CacheHint(0, 2, 0) // kernel 0 homes block 0: left alone
	d.CacheHint(4, 1, 1) // a hint naming the caching kernel: left alone
	if d.HomeOfBlock(1) != 2 || d.HomeOfBlock(0) != 0 || d.HomeOfBlock(4) != 1 {
		t.Fatalf("homes of blocks 0, 1, 4 = %d, %d, %d, want 0, 2, 1", d.HomeOfBlock(0), d.HomeOfBlock(1), d.HomeOfBlock(4))
	}
	d.SetOverride(1, 0) // kernel 0 adopts block 1 and flips
	d.CacheHint(1, 2, 0)
	if d.HomeOfBlock(1) != 0 {
		t.Fatalf("a stale hint disowned an adopted block: home = %d", d.HomeOfBlock(1))
	}
}

// TestNSRegistryTable pins the registry's per-PE table: a binding is looked
// up and enforced for its PE alone, unbinding the last one leaves nobody
// bound, and a PE id outside the cluster is ignored instead of indexing past
// the table.
func TestNSRegistryTable(t *testing.T) {
	nr := NewNSRegistry(3)
	if !nr.Admits(1, 5, 1) || nr.Len() != 0 {
		t.Fatal("empty registry refuses or counts a binding")
	}
	r := Region{Base: 64, Limit: 128}
	nr.Bind(1, r)
	for _, pe := range []int{-1, 3, math.MaxInt} {
		nr.Bind(pe, Region{Base: 0, Limit: 8})
	}
	if got, ok := nr.Lookup(1); !ok || got != r || nr.Len() != 1 {
		t.Fatalf("Lookup(1) = %v, %v with %d bound, want %v, true with 1", got, ok, nr.Len(), r)
	}
	if nr.Admits(1, 5, 1) || !nr.Admits(1, 64, 64) || nr.Admits(1, 127, 2) || !nr.Admits(0, 5, 1) || !nr.Admits(3, 5, 1) {
		t.Fatal("Admits does not hold PE 1 alone to [64,128)")
	}
	nr.Unbind(1)
	if _, ok := nr.Lookup(1); ok || nr.Len() != 0 || !nr.Admits(1, 5, 1) {
		t.Fatal("unbinding left PE 1 bound")
	}
}

func TestFetchAddSequential(t *testing.T) {
	s := NewSpace(1, 8)
	g := NewSegment(s, 0)
	for i := int64(0); i < 10; i++ {
		if old := g.FetchAdd(3, 2); old != 2*i {
			t.Fatalf("FetchAdd returned %d, want %d", old, 2*i)
		}
	}
	if v := g.Read(3, 1)[0]; v != 20 {
		t.Fatalf("final value %d, want 20", v)
	}
}

func TestCASSemantics(t *testing.T) {
	s := NewSpace(1, 8)
	g := NewSegment(s, 0)
	g.Write(0, []int64{5})
	if prev, ok := g.CAS(0, 4, 9); ok || prev != 5 {
		t.Fatalf("CAS with wrong old succeeded: prev=%d ok=%v", prev, ok)
	}
	if prev, ok := g.CAS(0, 5, 9); !ok || prev != 5 {
		t.Fatalf("CAS with right old failed: prev=%d ok=%v", prev, ok)
	}
	if v := g.Read(0, 1)[0]; v != 9 {
		t.Fatalf("value after CAS = %d", v)
	}
}

func TestCacheLifecycle(t *testing.T) {
	s := NewSpace(2, 4)
	c := NewCache(s)
	if _, ok := c.Lookup(5); ok {
		t.Fatal("hit on empty cache")
	}
	c.Insert(5, []int64{10, 11, 12, 13}) // block 1 = addrs 4..7
	if v, ok := c.Lookup(5); !ok || v != 11 {
		t.Fatalf("lookup = %d,%v want 11,true", v, ok)
	}
	if _, ok := c.Lookup(3); ok {
		t.Fatal("hit in a block never inserted")
	}
}

func TestCacheInsertCopiesBlock(t *testing.T) {
	s := NewSpace(1, 2)
	c := NewCache(s)
	src := []int64{1, 2}
	c.Insert(0, src)
	src[0] = 99
	if v, _ := c.Lookup(0); v != 1 {
		t.Fatal("cache aliases caller's slice")
	}
}

// Property: a segment behaves as a linearisable map from address to value
// under any sequence of writes and fetch-adds.
func TestSegmentModelProperty(t *testing.T) {
	f := func(ops []struct {
		Addr  uint16
		Val   int64
		IsAdd bool
	}) bool {
		s := NewSpace(1, 16)
		g := NewSegment(s, 0)
		model := map[uint64]int64{}
		for _, op := range ops {
			addr := uint64(op.Addr % 256)
			if op.IsAdd {
				old := g.FetchAdd(addr, op.Val)
				if old != model[addr] {
					return false
				}
				model[addr] += op.Val
			} else {
				g.Write(addr, []int64{op.Val})
				model[addr] = op.Val
			}
			if g.Read(addr, 1)[0] != model[addr] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestModeNamesRoundTrip: ParseMode inverts String for every mode, the empty
// string is the default, anything else is an error; a mode's history tag is
// its own number.
func TestModeNamesRoundTrip(t *testing.T) {
	for m := Mode(0); m < NumModes; m++ {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
		if want := uint8(m); m.Tag() != want {
			t.Errorf("%v.Tag() = %d, want %d", m, m.Tag(), want)
		}
	}
	if m, err := ParseMode(""); err != nil || m != ModeStrong {
		t.Errorf(`ParseMode("") = %v, %v`, m, err)
	}
	for _, name := range []string{"weird", "cached"} {
		if _, err := ParseMode(name); err == nil {
			t.Errorf("ParseMode accepted the unknown name %q", name)
		}
	}
}
