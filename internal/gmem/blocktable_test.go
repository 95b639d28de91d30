package gmem

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSegmentRefusesRepeatedBlock: a snapshot that lists one block twice is
// refused whole by Import and by Adopt, with an error naming the block,
// instead of keeping whichever copy came last.
func TestSegmentRefusesRepeatedBlock(t *testing.T) {
	held := []int64{1, 2, 3, 4}
	repeated := []BlockSnapshot{
		{Index: 2, Words: []int64{5, 6, 7, 8}},
		{Index: 4, Words: []int64{5, 6, 7, 8}},
		{Index: 2, Words: []int64{9, 9, 9, 9}},
	}
	for name, install := range map[string]func(*Segment, []BlockSnapshot) error{
		"import": (*Segment).Import,
		"adopt":  (*Segment).Adopt,
	} {
		g := NewSegment(NewSpace(2, 4), 0)
		g.Write(0, held)
		if err := install(g, repeated); err == nil || !strings.Contains(err.Error(), "block 2 appears twice") {
			t.Errorf("%s: err = %v, want one naming block 2", name, err)
		}
		if got := g.Export(); len(got) != 1 || got[0].Index != 0 || !slices.Equal(got[0].Words, held) {
			t.Errorf("%s: a refused snapshot changed the segment: %+v", name, got)
		}
	}
}

// TestSegmentFarBlockCostsOneBlock: a segment's storage follows the blocks it
// holds, not their indices — a write at block 2^50 materialises that one block
// and allocates well under 16 KB, and the window read of it allocates nothing.
func TestSegmentFarBlockCostsOneBlock(t *testing.T) {
	const words = 32
	g := NewSegment(NewSpace(2, words), 0)
	g.SetDirectory(NewDirectory(2, 0))
	addr := uint64(1<<50)*words + 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g.WriteWord(addr, 42)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<10 {
		t.Errorf("a write at block 2^50 allocated %d bytes", got)
	}
	if got := g.Export(); len(got) != 1 || got[0].Index != 1<<50 {
		t.Fatalf("materialised blocks: %+v, want block 2^50 alone", got)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if v, ok := g.DirectReadOwned(addr); !ok || v != 42 {
			t.Fatalf("DirectReadOwned = %d, %v", v, ok)
		}
	}); allocs != 0 {
		t.Errorf("a window read allocated %.1f times", allocs)
	}
}

// TestSegmentMaterialiseAllocatesOneBlock: adding a block allocates the block
// and, now and then, a table twice the size (two 32-byte slots per block at
// most) — not a copy of the stripe's index per block, which made filling a
// segment quadratic.
func TestSegmentMaterialiseAllocatesOneBlock(t *testing.T) {
	const blocks, words = 4096, DefaultBlockWords
	g := NewSegment(NewSpace(1, words), 0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for b := uint64(0); b < blocks; b++ {
		g.WriteWord(b*words, 1)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > blocks+blocks/8 {
		t.Errorf("%d new blocks took %d allocations", blocks, n)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 2*blocks*words*8 {
		t.Errorf("%d new blocks of %d bytes took %d bytes", blocks, words*8, n)
	}
}

// TestSegmentStoresEveryBlockIndex: the table's free-slot key is a block of
// another stripe, so every index stays storable — those of the free keys of
// other stripes, and the top of the index range.
func TestSegmentStoresEveryBlockIndex(t *testing.T) {
	for n := 1; n <= 3; n++ {
		g := NewSegment(NewSpace(n, 1), 0)
		var addrs []uint64
		for a := uint64(0); a < 40*uint64(n); a += uint64(n) {
			addrs = append(addrs, a)
		}
		for a := ^uint64(0); len(addrs) < 80; a-- {
			if a%uint64(n) == 0 {
				addrs = append(addrs, a)
			}
		}
		for i, a := range addrs {
			g.WriteWord(a, int64(i+1))
		}
		for i, a := range addrs {
			if v, ok := g.DirectReadOwned(a); !ok || v != int64(i+1) {
				t.Fatalf("N=%d: block %d reads %d, %v; want %d", n, a, v, ok, i+1)
			}
		}
		if got := len(g.Export()); got != len(addrs) {
			t.Fatalf("N=%d: %d blocks exported, want %d", n, got, len(addrs))
		}
	}
}

// TestSegmentBlockTableModel runs a seeded script of writes, extracts, range
// drops, adoptions and imports against the map model (segModel) over 4096
// blocks of all four residues, so that the stripes' tables grow several
// times and hold migrated-in blocks, while two window readers check that
// every value they read was written and that an extracted block never reads
// ok. Run it under -race: the readers share the tables with the script.
func TestSegmentBlockTableModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	script := make([]byte, 30000)
	rng.Read(script)
	m := newSegModel(t, 4096)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			for !stop.Load() {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				addr := x % (m.nblocks * modelWords)
				gone := m.gone[addr/modelWords].Load()
				v, ok := m.seg.DirectReadOwned(addr)
				if !ok {
					continue
				}
				if gone {
					t.Errorf("block %d read ok after it was extracted", addr/modelWords)
					return
				}
				if !m.legal(addr, v) {
					t.Errorf("word %d read %#x, which nobody wrote there", addr, v)
					return
				}
			}
		}(uint64(r)*0x9e3779b9 + 1)
	}
	m.run(script)
	stop.Store(true)
	wg.Wait()
	m.verify()
	if len(m.seen) < 2000 {
		t.Errorf("the script materialised %d distinct blocks, want at least 2000", len(m.seen))
	}
	t.Logf("%d blocks materialised, %d at the end", len(m.seen), len(m.blocks))
}

const (
	modelN     = 4 // kernels
	modelSelf  = 1 // the segment's kernel
	modelWords = 8 // words per block
)

// segModel drives the segment of kernel modelSelf, on a live directory,
// through a script of block-level operations and keeps the map it must agree
// with. Blocks [0, nblocks) of every residue take part: the segment homes
// its own residue's, and those of other residues it adopts, by directory
// override. A block it extracts leaves for good (the override names another
// kernel), so a reader can tell that block must never read ok again.
type segModel struct {
	tb      testing.TB
	dir     *Directory
	seg     *Segment
	nblocks uint64
	blocks  map[uint64][]int64 // the materialised blocks
	owned   []uint64           // blocks the segment homes
	foreign []uint64           // blocks of other residues, not adopted yet
	issued  []atomic.Int64     // per word, the last sequence number written
	gone    []atomic.Bool      // per block, extracted
	seen    map[uint64]bool    // every block ever materialised
}

func newSegModel(tb testing.TB, nblocks uint64) *segModel {
	m := &segModel{
		tb: tb, dir: NewDirectory(modelN, 0), seg: NewSegment(NewSpace(modelN, modelWords), modelSelf),
		nblocks: nblocks, blocks: map[uint64][]int64{},
		issued: make([]atomic.Int64, nblocks*modelWords), gone: make([]atomic.Bool, nblocks),
		seen: map[uint64]bool{},
	}
	m.seg.SetDirectory(m.dir)
	for b := uint64(0); b < nblocks; b++ {
		if b%modelN == modelSelf {
			m.owned = append(m.owned, b)
		} else {
			m.foreign = append(m.foreign, b)
		}
	}
	return m
}

// value returns a fresh value for the word at addr: the address and the
// word's next sequence number, issued before the value is stored anywhere.
func (m *segModel) value(addr uint64) int64 {
	return int64(addr+1)<<24 | m.issued[addr].Add(1)
}

// legal reports whether v can have been stored at addr.
func (m *segModel) legal(addr uint64, v int64) bool {
	return v == 0 || (uint64(v>>24) == addr+1 && v&(1<<24-1) <= m.issued[addr].Load())
}

// modelScript hands out a script's bytes; an exhausted script reads zeros.
type modelScript []byte

func (s *modelScript) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// pick returns a number in [0, n), n > 0.
func (s *modelScript) pick(n int) int { return (int(s.next())<<8 | int(s.next())) % n }

// run plays data: one operation per leading byte, its arguments from the
// bytes that follow.
func (m *segModel) run(data []byte) {
	s := modelScript(data)
	for len(s) > 0 {
		switch op := s.next() % 32; {
		case op < 20:
			m.write(&s)
		case op < 26:
			m.adopt(&s)
		case op < 29:
			m.extract(&s)
		case op < 31:
			m.drop(&s)
		default:
			m.reimport(&s)
		}
		m.spot(&s)
	}
}

func (m *segModel) materialised(b uint64, words []int64) {
	m.blocks[b] = words
	m.seen[b] = true
}

// write stores a fresh value at a word the segment homes.
func (m *segModel) write(s *modelScript) {
	if len(m.owned) == 0 {
		return
	}
	b := m.owned[s.pick(len(m.owned))]
	w := s.pick(modelWords)
	addr := b*modelWords + uint64(w)
	v := m.value(addr)
	m.seg.WriteWord(addr, v)
	blk := m.blocks[b]
	if blk == nil {
		blk = make([]int64, modelWords)
		m.materialised(b, blk)
	}
	blk[w] = v
}

// adopt migrates up to eight foreign blocks in — data first, then the
// directory, as the membership protocol does — after checking that the same
// list with one block repeated is refused whole.
func (m *segModel) adopt(s *modelScript) {
	var in []BlockSnapshot
	for k := 1 + s.pick(8); k > 0 && len(m.foreign) > 0; k-- {
		j := s.pick(len(m.foreign))
		b := m.foreign[j]
		m.foreign[j] = m.foreign[len(m.foreign)-1]
		m.foreign = m.foreign[:len(m.foreign)-1]
		bs := BlockSnapshot{Index: b, Words: make([]int64, modelWords)}
		for w := range bs.Words {
			bs.Words[w] = m.value(b*modelWords + uint64(w))
		}
		in = append(in, bs)
	}
	if len(in) == 0 {
		return
	}
	if s.next()%4 == 0 {
		if err := m.seg.Adopt(append(slices.Clone(in), in[0])); err == nil {
			m.tb.Fatalf("Adopt took block %d twice", in[0].Index)
		}
		for _, bs := range in {
			if m.seg.Has(bs.Index) {
				m.tb.Fatalf("a refused Adopt installed block %d", bs.Index)
			}
		}
	}
	if err := m.seg.Adopt(in); err != nil {
		m.tb.Fatalf("Adopt: %v", err)
	}
	for _, bs := range in {
		m.dir.SetOverride(bs.Index, modelSelf)
		m.owned = append(m.owned, bs.Index)
		m.materialised(bs.Index, slices.Clone(bs.Words))
	}
}

// extract migrates up to four blocks out for good — the directory first,
// then the data, as the membership protocol does — and checks what comes
// out against the model.
func (m *segModel) extract(s *modelScript) {
	leaving := map[uint64]bool{}
	for k := 1 + s.pick(4); k > 0 && len(m.owned) > 0; k-- {
		j := s.pick(len(m.owned))
		b := m.owned[j]
		m.owned[j] = m.owned[len(m.owned)-1]
		m.owned = m.owned[:len(m.owned)-1]
		leaving[b] = true
		m.dir.SetOverride(b, (modelSelf+1)%modelN)
	}
	out := m.seg.Extract(func(b uint64) bool { return leaving[b] })
	var want []uint64
	for b := range leaving {
		if m.blocks[b] != nil {
			want = append(want, b)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(out) != len(want) {
		m.tb.Fatalf("Extract returned %d blocks, want %d", len(out), len(want))
	}
	for i, bs := range out {
		m.checkBlock("Extract", bs, want[i])
	}
	for b := range leaving {
		delete(m.blocks, b)
		m.gone[b].Store(true)
	}
}

// drop tears down a range of up to eight blocks, as a namespace's end does.
func (m *segModel) drop(s *modelScript) {
	first, n := uint64(s.pick(int(m.nblocks))), uint64(1+s.pick(8))
	want := 0
	for b := first; b < first+n; b++ {
		if m.blocks[b] != nil {
			want++
			delete(m.blocks, b)
		}
	}
	if got := m.seg.DropRange(first, n); got != want {
		m.tb.Fatalf("DropRange(%d, %d) dropped %d blocks, want %d", first, n, got, want)
	}
}

// reimport exports the segment, changes a word of the snapshot and maybe
// leaves a block out, and imports it back — after checking that the same
// snapshot with a block repeated is refused and changes nothing.
func (m *segModel) reimport(s *modelScript) {
	snap := m.seg.Export()
	m.checkExport(snap)
	if len(snap) > 0 {
		bs := &snap[s.pick(len(snap))]
		w := s.pick(modelWords)
		bs.Words[w] = m.value(bs.Index*modelWords + uint64(w))
		if s.next()%2 == 0 {
			j := s.pick(len(snap))
			snap = slices.Delete(snap, j, j+1)
		}
	}
	if len(snap) > 0 && s.next()%4 == 0 {
		repeat := BlockSnapshot{Index: snap[0].Index, Words: make([]int64, modelWords)}
		if err := m.seg.Import(append(slices.Clone(snap), repeat)); err == nil {
			m.tb.Fatalf("Import took block %d twice", repeat.Index)
		}
		m.checkExport(m.seg.Export())
	}
	if err := m.seg.Import(snap); err != nil {
		m.tb.Fatalf("Import: %v", err)
	}
	clear(m.blocks)
	for _, bs := range snap {
		m.materialised(bs.Index, slices.Clone(bs.Words))
	}
}

// spot reads one word the segment homes both ways and compares it with the
// model.
func (m *segModel) spot(s *modelScript) {
	if len(m.owned) == 0 {
		return
	}
	b := m.owned[s.pick(len(m.owned))]
	addr := b*modelWords + uint64(s.pick(modelWords))
	var want int64
	if blk := m.blocks[b]; blk != nil {
		want = blk[addr%modelWords]
	}
	if v := m.seg.ReadWord(addr); v != want {
		m.tb.Fatalf("ReadWord(%d) = %#x, want %#x", addr, v, want)
	}
	if v, ok := m.seg.DirectReadOwned(addr); !ok || v != want {
		m.tb.Fatalf("DirectReadOwned(%d) = %#x, %v; want %#x", addr, v, ok, want)
	}
}

func (m *segModel) checkBlock(op string, bs BlockSnapshot, b uint64) {
	if bs.Index != b || !slices.Equal(bs.Words, m.blocks[b]) {
		m.tb.Fatalf("%s: block %d = %v; model block %d = %v",
			op, bs.Index, bs.Words, b, m.blocks[b])
	}
}

// checkExport compares an Export with the model: every block, in index order.
func (m *segModel) checkExport(snap []BlockSnapshot) {
	if len(snap) != len(m.blocks) {
		m.tb.Fatalf("Export holds %d blocks, the model %d", len(snap), len(m.blocks))
	}
	for i, bs := range snap {
		if i > 0 && snap[i-1].Index >= bs.Index {
			m.tb.Fatalf("Export out of order at %d: block %d after %d", i, bs.Index, snap[i-1].Index)
		}
		m.checkBlock("Export", bs, bs.Index)
	}
}

// verify checks the whole segment against the model.
func (m *segModel) verify() {
	m.checkExport(m.seg.Export())
	if got := m.seg.CountRange(0, m.nblocks); got != len(m.blocks) {
		m.tb.Fatalf("CountRange = %d, the model holds %d", got, len(m.blocks))
	}
	for b := uint64(0); b < m.nblocks; b++ {
		if has := m.seg.Has(b); has != (m.blocks[b] != nil) {
			m.tb.Fatalf("Has(%d) = %v, the model says %v", b, has, !has)
		}
	}
}
