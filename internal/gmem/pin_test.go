package gmem

import (
	"slices"
	"testing"
)

// TestPinStaleAfterPublish pins the generation rule: after any publish of the
// pinned block's stripe — Extract, Adopt, DropRange, Import, table growth —
// every op through a pin taken before it reports stale and changes nothing,
// neither the storage it pinned nor the block's storage now. The segment
// keeps homing the block throughout, so the refusal is the generation's, not
// the ownership check's; the last case flips the block away, extracts it,
// adopts it back and flips it home again, so ownership has returned but the
// storage is new.
func TestPinStaleAfterPublish(t *testing.T) {
	const bw, b, off = 32, 1, 5 // block 1 is homed at kernel 1 of 2
	space := NewSpace(2, bw)
	at := space.Locate(b*bw + off)
	for _, c := range []struct {
		name    string
		publish func(g *Segment, dir *Directory)
	}{
		{"Extract", func(g *Segment, _ *Directory) { g.Extract(func(x uint64) bool { return x == b }) }},
		{"Adopt", func(g *Segment, _ *Directory) {
			if err := g.Adopt(g.Export()); err != nil {
				t.Fatal(err)
			}
		}},
		{"DropRange", func(g *Segment, _ *Directory) { g.DropRange(b, 1) }},
		{"Import", func(g *Segment, _ *Directory) {
			if err := g.Import(g.Export()); err != nil {
				t.Fatal(err)
			}
		}},
		{"growth", func(g *Segment, _ *Directory) {
			// Blocks b+2k·SegStripes are homed here in b's stripe: materialise
			// them until its table has grown.
			st, before := g.stripeAt(at), g.stripeAt(at).table.Load()
			for k := uint64(1); st.table.Load() == before; k++ {
				g.WriteWord((b+2*k*SegStripes)*bw, 1)
			}
		}},
		{"extract-adopt-back", func(g *Segment, dir *Directory) {
			dir.SetOverride(b, 0)
			out := g.Extract(func(x uint64) bool { return x == b })
			if err := g.Adopt(out); err != nil {
				t.Fatal(err)
			}
			dir.SetOverride(b, 1)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := NewDirectory(2, 0)
			g := NewSegment(space, 1)
			g.SetDirectory(dir)
			g.WriteWord(b*bw+off, 7)
			pin, owned := g.PinAt(at, false)
			if !owned || !pin.Held() {
				t.Fatalf("pinning a written block homed here: owned %v, held %v", owned, pin.Held())
			}
			if v, ok := pin.Read(off); !ok || v != 7 {
				t.Fatalf("fresh pin read %d, %v; want 7, true", v, ok)
			}
			pinned := slices.Clone(pin.blk)
			c.publish(g, dir)
			now := make([]int64, bw)
			g.ReadRun(now, b, 0)

			if v, ok := pin.Read(off); ok {
				t.Errorf("Read through the stale pin returned %d, not stale", v)
			}
			if pin.Store(off, 99) {
				t.Error("Store through the stale pin reported current")
			}
			if old, ok := pin.FetchAdd(off, 5); ok {
				t.Errorf("FetchAdd through the stale pin returned %d, not stale", old)
			}
			if prev, swapped, ok := pin.CAS(off, pinned[off], 77); ok {
				t.Errorf("CAS through the stale pin returned %d, %v, not stale", prev, swapped)
			}
			if !slices.Equal(pin.blk, pinned) {
				t.Errorf("the stale pin's ops changed the storage it pinned: %v, was %v", pin.blk, pinned)
			}
			after := make([]int64, bw)
			g.ReadRun(after, b, 0)
			if !slices.Equal(after, now) {
				t.Errorf("the stale pin's ops changed the block: %v, was %v", after, now)
			}

			// A fresh pin of the block is current again.
			fresh, owned := g.PinAt(at, true)
			if !owned || !fresh.Store(off, 8) {
				t.Fatalf("fresh pin after %s: owned %v, or its store reported stale", c.name, owned)
			}
			if v, ok := fresh.Read(off); !ok || v != 8 {
				t.Errorf("fresh pin read %d, %v after storing 8", v, ok)
			}
		})
	}
}

// TestPinChecksOwnership: a pin whose generation is still current refuses
// every op once the directory stops naming its segment as the block's home —
// the state between a migration's directory flip and its Extract — and
// serves again when the block is homed here once more.
func TestPinChecksOwnership(t *testing.T) {
	const bw, b = 32, 1
	space := NewSpace(2, bw)
	dir := NewDirectory(2, 0)
	g := NewSegment(space, 1)
	g.SetDirectory(dir)
	at := space.Locate(b * bw)
	pin, owned := g.PinAt(at, true)
	if !owned {
		t.Fatal("block 1 is homed at kernel 1")
	}
	dir.SetOverride(b, 0)
	if _, owned := g.PinAt(at, false); owned {
		t.Error("PinAt pinned a block homed elsewhere")
	}
	if _, ok := pin.Read(0); ok {
		t.Error("Read through a pin of a disowned block reported current")
	}
	if pin.Store(0, 3) {
		t.Error("Store through a pin of a disowned block reported current")
	}
	if _, ok := pin.FetchAdd(0, 1); ok {
		t.Error("FetchAdd through a pin of a disowned block reported current")
	}
	if _, _, ok := pin.CAS(0, 0, 1); ok {
		t.Error("CAS through a pin of a disowned block reported current")
	}
	if pin.blk[0] != 0 {
		t.Errorf("a refused op stored %d", pin.blk[0])
	}
	dir.SetOverride(b, 1)
	if !pin.Store(0, 3) {
		t.Error("Store through the pin refused once the block was homed here again")
	}
}

// TestPinUnheldReadsAbsentBlock: a read pin of a block never written holds no
// storage, reads zeros, refuses every mutation, and reads a store made
// through a held pin afterwards — a store adds the block in place and moves no
// generation, so the unheld pin stays current and must look the block up.
func TestPinUnheldReadsAbsentBlock(t *testing.T) {
	space := NewSpace(1, 16)
	g := NewSegment(space, 0)
	at := space.Locate(3)
	read, owned := g.PinAt(at, false)
	if !owned || read.Held() {
		t.Fatalf("read pin of an absent block: owned %v, held %v", owned, read.Held())
	}
	if v, ok := read.Read(at.Off); !ok || v != 0 {
		t.Errorf("absent block read %d, %v; want 0, true", v, ok)
	}
	if read.Store(at.Off, 1) {
		t.Error("Store through an unheld pin reported current")
	}
	if g.Has(0) {
		t.Error("a pin without create materialised the block")
	}
	write, _ := g.PinAt(at, true)
	if !write.Held() || !write.Store(at.Off, 4) {
		t.Fatal("a pin with create does not hold the block, or its store was refused")
	}
	if v, ok := read.Read(at.Off); !ok || v != 4 {
		t.Errorf("unheld pin read %d, %v after a store of 4", v, ok)
	}
}
