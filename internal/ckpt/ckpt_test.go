package ckpt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gmem"
	"repro/internal/sim"
)

func testSlice(pe int) Slice {
	return Slice{
		Epoch:    3,
		MarkTime: sim.Time(42_000_000),
		App:      []byte(fmt.Sprintf("app-state-pe%d", pe)),
		Kernel: EncodeKernelState(8, []gmem.BlockSnapshot{
			{Index: uint64(pe * 4), Words: []int64{1, -2, 3, 0, 5, 6, 7, 8}, Copyset: []int{0, 2}},
			{Index: uint64(pe*4 + 2), Words: []int64{9, 10, 11, 12, 13, 14, 15, 16}, Copyset: nil},
		}),
	}
}

func TestSliceRoundTrip(t *testing.T) {
	want := testSlice(1)
	got, err := DecodeSlice(EncodeSlice(want))
	if err != nil {
		t.Fatalf("DecodeSlice: %v", err)
	}
	if got.Epoch != want.Epoch || got.MarkTime != want.MarkTime {
		t.Fatalf("header mismatch: got %+v want %+v", got, want)
	}
	if !bytes.Equal(got.App, want.App) || !bytes.Equal(got.Kernel, want.Kernel) {
		t.Fatalf("payload mismatch")
	}
	bw, blocks, err := DecodeKernelState(got.Kernel)
	if err != nil {
		t.Fatalf("DecodeKernelState: %v", err)
	}
	if bw != 8 || len(blocks) != 2 {
		t.Fatalf("got blockWords=%d blocks=%d, want 8/2", bw, len(blocks))
	}
	if blocks[0].Index != 4 || blocks[0].Words[1] != -2 || len(blocks[0].Copyset) != 2 {
		t.Fatalf("block 0 mismatch: %+v", blocks[0])
	}
	if blocks[1].Index != 6 || blocks[1].Words[7] != 16 || blocks[1].Copyset != nil {
		t.Fatalf("block 1 mismatch: %+v", blocks[1])
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	full := EncodeSlice(testSlice(0))
	for _, n := range []int{0, 4, 8, 20, len(full) - 1} {
		if _, err := DecodeSlice(full[:n]); err == nil {
			t.Errorf("DecodeSlice accepted %d-byte truncation", n)
		}
	}
	ks := EncodeKernelState(8, []gmem.BlockSnapshot{{Index: 1, Words: make([]int64, 8)}})
	for _, n := range []int{0, 8, 17, len(ks) - 1} {
		if _, _, err := DecodeKernelState(ks[:n]); err == nil {
			t.Errorf("DecodeKernelState accepted %d-byte truncation", n)
		}
	}
}

// TestDecodeRejectsRepeatedBlock: a kernel state that lists one block twice
// is refused with an error naming the block, in both payload versions,
// instead of handing the segment two contents for one block.
func TestDecodeRejectsRepeatedBlock(t *testing.T) {
	blocks := []gmem.BlockSnapshot{
		{Index: 7, Words: []int64{1, 2}},
		{Index: 9, Words: []int64{3, 4}},
		{Index: 7, Words: []int64{5, 6}},
	}
	if _, _, err := DecodeKernelState(EncodeKernelState(2, blocks)); err == nil || !strings.Contains(err.Error(), "block 7 twice") {
		t.Errorf("DecodeKernelState: err = %v, want one naming block 7", err)
	}
	dir := &DirectorySnapshot{Epoch: 1, Members: []MemberSnapshot{{}, {}}}
	if _, _, _, err := DecodeKernelStateDir(EncodeKernelStateDir(2, blocks, dir)); err == nil || !strings.Contains(err.Error(), "block 7 twice") {
		t.Errorf("DecodeKernelStateDir: err = %v, want one naming block 7", err)
	}
}

func openTestStore(t *testing.T) *DirStore {
	t.Helper()
	st, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	return st
}

func commitGen(t *testing.T, st *DirStore, gen uint64, numPE int) {
	t.Helper()
	for pe := 0; pe < numPE; pe++ {
		s := testSlice(pe)
		s.Epoch = gen
		if err := st.WriteSlice(gen, pe, EncodeSlice(s)); err != nil {
			t.Fatalf("WriteSlice(g%d,p%d): %v", gen, pe, err)
		}
	}
	if err := st.Commit(gen, numPE); err != nil {
		t.Fatalf("Commit(g%d): %v", gen, err)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	st := openTestStore(t)
	commitGen(t, st, 1, 3)
	gen, numPE, ok, err := st.Latest()
	if err != nil || !ok || gen != 1 || numPE != 3 {
		t.Fatalf("Latest = (%d,%d,%v,%v), want (1,3,true,nil)", gen, numPE, ok, err)
	}
	for pe := 0; pe < 3; pe++ {
		data, err := st.ReadSlice(1, pe)
		if err != nil {
			t.Fatalf("ReadSlice(1,%d): %v", pe, err)
		}
		s, err := DecodeSlice(data)
		if err != nil {
			t.Fatalf("DecodeSlice: %v", err)
		}
		if string(s.App) != fmt.Sprintf("app-state-pe%d", pe) {
			t.Fatalf("PE %d got wrong app blob %q", pe, s.App)
		}
	}
}

func TestStoreDetectsCorruptObject(t *testing.T) {
	st := openTestStore(t)
	commitGen(t, st, 1, 2)
	// Flip one payload byte in every object; ReadSlice must refuse.
	ents, err := os.ReadDir(filepath.Join(st.Root(), "objects"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		p := filepath.Join(st.Root(), "objects", e.Name())
		buf, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(buf)-1] ^= 0xff
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for pe := 0; pe < 2; pe++ {
		if _, err := st.ReadSlice(1, pe); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("ReadSlice(1,%d) on corrupted object: err=%v, want corrupt-object error", pe, err)
		}
	}
}

func TestCommitRequiresAllSlices(t *testing.T) {
	st := openTestStore(t)
	if err := st.WriteSlice(1, 0, []byte("only pe0")); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(1, 2); err == nil {
		t.Fatal("Commit succeeded with a missing slice")
	}
	if _, _, ok, _ := st.Latest(); ok {
		t.Fatal("failed Commit still became visible to Latest")
	}
}

// An interrupted checkpoint leaves staged slices but no manifest; an
// interrupted manifest write leaves a .tmp- file. Neither may surface.
func TestCrashWindowsInvisible(t *testing.T) {
	st := openTestStore(t)
	commitGen(t, st, 1, 2)

	// Crash after staging gen 2 but before Commit.
	if err := st.WriteSlice(2, 0, []byte("half a checkpoint")); err != nil {
		t.Fatal(err)
	}
	// Crash mid-manifest-write for gen 3: simulate the temp file CreateTemp
	// would leave behind if the process died before rename.
	tmp := filepath.Join(st.Root(), "manifests", ".tmp-123456")
	if err := os.WriteFile(tmp, []byte("ckpt-manifest v1\ngen 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	gen, numPE, ok, err := st.Latest()
	if err != nil || !ok || gen != 1 || numPE != 2 {
		t.Fatalf("Latest = (%d,%d,%v,%v), want committed gen 1 only", gen, numPE, ok, err)
	}
	if _, err := st.ReadSlice(2, 0); err == nil {
		t.Fatal("ReadSlice returned data for an uncommitted generation")
	}
}

func TestGCKeepsNewestGenerations(t *testing.T) {
	st := openTestStore(t)
	for gen := uint64(1); gen <= 4; gen++ {
		// Distinct payload per gen so each gets its own objects.
		for pe := 0; pe < 2; pe++ {
			if err := st.WriteSlice(gen, pe, []byte(fmt.Sprintf("g%d-p%d", gen, pe))); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Commit(gen, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.GC(2); err != nil {
		t.Fatalf("GC: %v", err)
	}
	gens, err := st.generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 3 || gens[1] != 4 {
		t.Fatalf("after GC(2) generations = %v, want [3 4]", gens)
	}
	// Kept generations still read back; dropped ones are gone, and their
	// objects were pruned.
	if _, err := st.ReadSlice(4, 1); err != nil {
		t.Fatalf("kept generation unreadable after GC: %v", err)
	}
	if _, err := st.ReadSlice(1, 0); err == nil {
		t.Fatal("GC'd generation still readable")
	}
	ents, err := os.ReadDir(filepath.Join(st.Root(), "objects"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 4 {
		t.Fatalf("after GC want 4 objects (2 gens x 2 PEs), have %d", len(ents))
	}
}

// Identical payloads from different PEs share one content-addressed object.
func TestObjectsDeduplicated(t *testing.T) {
	st := openTestStore(t)
	for pe := 0; pe < 3; pe++ {
		if err := st.WriteSlice(1, pe, []byte("same bytes")); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(1, 3); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(filepath.Join(st.Root(), "objects"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("want 1 deduplicated object, have %d", len(ents))
	}
}
