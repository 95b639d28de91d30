package gmem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// generations reads every stripe's seqlock generation.
func generations(g *Segment) (gens [SegStripes]uint64) {
	for i := range g.stripes {
		gens[i] = g.stripes[i].wseq.Load()
	}
	return gens
}

// TestWordStoresLeaveGeneration pins the seqlock rule: a store is one atomic
// word store under the stripe mutex and moves no stripe's generation, and
// only what changes a block's storage or owner — table growth, Extract,
// Adopt, Import, DropRange — moves it, by a positive even amount (publish's
// window, opened and closed).
func TestWordStoresLeaveGeneration(t *testing.T) {
	const bw = 64
	space := NewSpace(2, bw)
	g := NewSegment(space, 1)
	g.SetDirectory(NewDirectory(2, 0))
	const b = 1 // homed at kernel 1
	base := uint64(b * bw)
	at := func(off int) Loc { return space.Locate(base + uint64(off)) }
	run := func(n int) []int64 {
		words := make([]int64, n)
		for i := range words {
			words[i] = int64(i + 7)
		}
		return words
	}
	g.WriteWord(base, 1) // materialise the block: no store below adds one

	stores := []struct {
		name string
		do   func()
	}{
		{"WriteWord", func() { g.WriteWord(base+1, 5) }},
		{"WriteWordAt", func() { g.WriteWordAt(at(2), 6) }},
		{"FetchAdd", func() { g.FetchAdd(base+3, 1) }},
		{"FetchAddAt", func() { g.FetchAddAt(at(3), 1) }},
		{"CAS/swap", func() { g.CAS(base+4, 0, 9) }},
		{"CAS/no-swap", func() { g.CAS(base+4, 0, 10) }},
		{"CASAt/swap", func() { g.CASAt(at(4), 9, 11) }},
		{"CASAt/no-swap", func() { g.CASAt(at(4), 9, 12) }},
		{"Write/1", func() { g.Write(base+5, run(1)) }},
		{"Write/32", func() { g.Write(base+8, run(32)) }},
		{"Write/64", func() { g.Write(base, run(64)) }},
		{"WriteRun/1", func() { g.WriteRun(b, 6, run(1)) }},
		{"WriteRun/32", func() { g.WriteRun(b, 32, run(32)) }},
		{"WriteRun/64", func() { g.WriteRun(b, 0, run(64)) }},
		{"WriteRunAt", func() { g.WriteRunAt(at(0), run(64)) }},
		{"ApplyWrites", func() {
			g.ApplyWrites([]RingWrite{{Addr: base + 1, Val: 3}, {Addr: base + 40, Val: 4}})
		}},
	}
	for _, s := range stores {
		before := generations(g)
		s.do()
		if after := generations(g); after != before {
			t.Errorf("%s moved a stripe generation: %v -> %v", s.name, before, after)
		}
	}
	// moves checks that change moves stripe i's generation by a positive even
	// amount and leaves every other stripe's alone unless all is set.
	moves := func(name string, i int, all bool, change func()) {
		t.Helper()
		before := generations(g)
		change()
		after := generations(g)
		for j := range after {
			d := after[j] - before[j]
			switch {
			case j == i && (d == 0 || d%2 != 0):
				t.Errorf("%s moved its stripe %d's generation by %d, want a positive even amount", name, i, d)
			case j != i && d%2 != 0:
				t.Errorf("%s left stripe %d's generation odd (moved by %d)", name, j, d)
			case j != i && !all && d != 0:
				t.Errorf("%s moved stripe %d's generation by %d, not its own stripe's", name, j, d)
			}
		}
	}
	i := g.stripeIndex(b)
	// Block b+2*SegStripes is the next block of b's stripe homed here: the
	// stripe's first table has room for one block, so the second grows it.
	grow := uint64(b + 2*SegStripes)
	moves("growth", i, false, func() { g.WriteWord(grow*bw, 1) })
	var out []BlockSnapshot
	moves("Extract", i, false, func() { out = g.Extract(func(x uint64) bool { return x == b }) })
	if len(out) != 1 {
		t.Fatalf("Extract took %d blocks, want 1", len(out))
	}
	moves("Adopt", i, false, func() {
		if err := g.Adopt(out); err != nil {
			t.Fatal(err)
		}
	})
	moves("DropRange", i, false, func() { g.DropRange(b, 1) })
	moves("Import", i, true, func() {
		if err := g.Import(out); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStoresInPlaceDuringExtract pins the stripe-lock argument that stores in
// place rest on: a store and Extract both hold the stripe mutex, and the store
// checks ownership under it, so a store either lands before the snapshot and
// moves with it, or sees the flipped directory and is refused. Writers run
// FetchAddAt, WriteWordAt and CASAt on one block while a mover migrates it
// out and back — flip the directory away, Extract, Adopt the snapshot, flip
// it back, the holder's side and then the adopter's (data before directory)
// — and readers read it lock-free. No store may be lost across an extract or
// applied while disowned, and no read may come from a dropped block.
func TestStoresInPlaceDuringExtract(t *testing.T) {
	const bw, b, moves = 32, 1, 1000
	space := NewSpace(2, bw)
	dir := NewDirectory(2, 0)
	g := NewSegment(space, 1)
	g.SetDirectory(dir)
	base := uint64(b * bw)
	counter, written, swapped := space.Locate(base), space.Locate(base+1), space.Locate(base+2)

	// issued* count the stores attempted so far, so a reader can tell whether
	// a value can have been stored; owned* count those the segment took.
	var issuedAdds, issuedWrites, issuedCAS, ownedAdds atomic.Int64
	var lastWrite, ownedCAS, refused int64
	var stop, failed atomic.Bool
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		failed.Store(true)
	}
	var writers, readers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		var cur int64 // word 2 as the last owned CAS left it
		for i := int64(1); !stop.Load(); i++ {
			runtime.Gosched() // the workers share the processors with the mover
			issuedAdds.Add(1)
			if _, ok := g.FetchAddAt(counter, 1); ok {
				ownedAdds.Add(1)
			} else {
				refused++
			}
			issuedWrites.Store(i)
			if g.WriteWordAt(written, i) {
				lastWrite = i
			}
			issuedCAS.Add(1)
			if prev, ok, owned := g.CASAt(swapped, cur, cur+1); owned {
				if ok {
					cur++
					ownedCAS++
				} else {
					fail("CAS on word 2 found %d, its last owned CAS left %d", prev, cur)
					return
				}
			}
		}
	}()

	// check reports whether words 0-2 are values some writer stored and the
	// counter and CAS words no older than last, what this reader saw before.
	check := func(who string, words []int64, last *[2]int64) bool {
		switch {
		case words[0] < last[0] || words[2] < last[1]:
			fail("%s read counter %d and CAS word %d after %d and %d: a read from a dropped block",
				who, words[0], words[2], last[0], last[1])
		case words[0] > issuedAdds.Load() || words[1] > issuedWrites.Load() || words[2] > issuedCAS.Load():
			fail("%s read %v, a value nobody stored", who, words[:3])
		default:
			last[0], last[1] = words[0], words[2]
			return true
		}
		return false
	}
	var reads [2]atomic.Int64
	readers.Add(2)
	go func() { // single words, through the window read
		defer readers.Done()
		var last [2]int64
		words := make([]int64, 3)
		for ; !stop.Load(); runtime.Gosched() {
			v0, ok0 := g.DirectReadAt(counter)
			v1, ok1 := g.DirectReadAt(written)
			v2, ok2 := g.DirectReadAt(swapped)
			if !ok0 || !ok1 || !ok2 {
				continue
			}
			words[0], words[1], words[2] = v0, v1, v2
			if !check("DirectReadAt", words, &last) {
				return
			}
			reads[0].Add(1)
		}
	}()
	go func() { // 16-word runs, through the short served run
		defer readers.Done()
		var last [2]int64
		words := make([]int64, 16)
		for ; !stop.Load(); runtime.Gosched() {
			if !g.ReadRunAt(words, counter) {
				continue
			}
			if !check("ReadRunAt", words, &last) {
				return
			}
			for i, v := range words[3:] {
				if v != 0 {
					fail("ReadRunAt read %d at word %d, which nobody writes", v, 3+i)
					return
				}
			}
			reads[1].Add(1)
		}
	}()

	// Between two migrations the mover waits for a store and a read of each
	// kind to land, so that every migration races all of them.
	progress := func() [3]int64 { return [3]int64{ownedAdds.Load(), reads[0].Load(), reads[1].Load()} }
	for m := 0; m < moves && !failed.Load(); m++ {
		dir.SetOverride(b, 0)
		out := g.Extract(func(x uint64) bool { return x == b })
		if err := g.Adopt(out); err != nil {
			t.Fatal(err)
		}
		dir.SetOverride(b, 1)
		for was := progress(); !failed.Load(); runtime.Gosched() {
			if now := progress(); now[0] > was[0] && now[1] > was[1] && now[2] > was[2] {
				break
			}
		}
	}
	stop.Store(true)
	writers.Wait()
	readers.Wait()

	final := make([]int64, 3)
	g.ReadRun(final, b, 0)
	if final[0] != ownedAdds.Load() {
		t.Errorf("counter is %d, but %d fetch-adds reported the block owned", final[0], ownedAdds.Load())
	}
	if final[1] != lastWrite {
		t.Errorf("word 1 is %d, the last owned write stored %d", final[1], lastWrite)
	}
	if final[2] != ownedCAS {
		t.Errorf("word 2 is %d, but %d CASes swapped", final[2], ownedCAS)
	}
	t.Logf("%d fetch-adds owned, %d refused; %d window and %d run reads over %d migrations",
		ownedAdds.Load(), refused, reads[0].Load(), reads[1].Load(), moves)
}
