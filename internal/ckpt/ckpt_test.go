package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
			{Index: uint64(pe * 4), Words: []int64{1, -2, 3, 0, 5, 6, 7, 8}},
			{Index: uint64(pe*4 + 2), Words: []int64{9, 10, 11, 12, 13, 14, 15, 16}},
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
	bw, blocks, dir, err := DecodeKernelStateDir(got.Kernel)
	if err != nil {
		t.Fatalf("DecodeKernelStateDir: %v", err)
	}
	if bw != 8 || len(blocks) != 2 || dir != nil {
		t.Fatalf("got blockWords=%d blocks=%d dir=%v, want 8/2/nil", bw, len(blocks), dir)
	}
	if blocks[0].Index != 4 || blocks[0].Words[1] != -2 {
		t.Fatalf("block 0 mismatch: %+v", blocks[0])
	}
	if blocks[1].Index != 6 || blocks[1].Words[7] != 16 {
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
		if _, _, _, err := DecodeKernelStateDir(ks[:n]); err == nil {
			t.Errorf("DecodeKernelStateDir accepted %d-byte truncation", n)
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
	if _, _, _, err := DecodeKernelStateDir(EncodeKernelState(2, blocks)); err == nil || !strings.Contains(err.Error(), "block 7 twice") {
		t.Errorf("DecodeKernelStateDir(V1): err = %v, want one naming block 7", err)
	}
	dir := &DirectorySnapshot{Epoch: 1, Members: []MemberSnapshot{{}, {}}}
	if _, _, _, err := DecodeKernelStateDir(EncodeKernelStateDir(2, blocks, dir)); err == nil || !strings.Contains(err.Error(), "block 7 twice") {
		t.Errorf("DecodeKernelStateDir: err = %v, want one naming block 7", err)
	}
}

// TestDecodeRejectsImplausible: a slice with bytes past its kernel state, a
// kernel state with bytes past its directory trailer or a member state gmem
// does not define, and an escrow destination no 32-bit int holds, are
// refused rather than ignored or narrowed to another value.
func TestDecodeRejectsImplausible(t *testing.T) {
	if _, err := DecodeSlice(append(EncodeSlice(testSlice(0)), 0)); err == nil {
		t.Error("DecodeSlice accepted a trailing byte")
	}
	if _, _, _, err := DecodeKernelStateDir(append(EncodeKernelStateDir(2, nil, &DirectorySnapshot{}), 0)); err == nil {
		t.Error("DecodeKernelStateDir accepted a byte past the directory trailer")
	}
	if _, _, _, err := DecodeKernelStateDir(EncodeKernelStateDir(2, nil, &DirectorySnapshot{Members: []MemberSnapshot{{State: 257}}})); err == nil {
		t.Error("DecodeKernelStateDir accepted member state 257, which a gmem.MemberState narrows to 1")
	}
	escrow := EncodeKernelStateDir(2, nil, &DirectorySnapshot{Escrow: []EscrowSnapshot{{Block: gmem.BlockSnapshot{Index: 1, Words: make([]int64, 2)}}}})
	for _, id := range []uint64{1<<32 + 1, 1<<64 - 1} {
		data := bytes.Clone(escrow)
		binary.LittleEndian.PutUint64(data[len(data)-32:], id)
		if _, _, _, err := DecodeKernelStateDir(data); err == nil {
			t.Errorf("escrow destination %d accepted", id)
		}
	}
}

// TestKernelStateDirBytes pins the V2 layout: a fixed snapshot with escrow
// encodes to the bytes below, in which each escrow entry after its Dst is laid
// out exactly like a block of the main list, and those bytes decode back to
// the snapshot.
func TestKernelStateDirBytes(t *testing.T) {
	blocks := []gmem.BlockSnapshot{
		{Index: 3, Words: []int64{1, -2}},
		{Index: 5, Words: []int64{7, 1 << 40}},
	}
	dir := &DirectorySnapshot{
		Epoch:     4,
		Members:   []MemberSnapshot{{State: 1, Gen: 2}, {State: 2, Gen: 3}, {State: 1, Gen: 0}},
		Overrides: [][2]uint64{{5, 1}},
		Escrow: []EscrowSnapshot{
			{Dst: 2, Block: gmem.BlockSnapshot{Index: 8, Words: []int64{-1, 9}}},
			{Dst: 0, Block: gmem.BlockSnapshot{Index: 11, Words: []int64{0, 3}}},
		},
	}
	const want = "0200000000000000020000000000000003000000000000000100000000000000" +
		"feffffffffffffff050000000000000007000000000000000000000000010000" +
		"4453454449523200040000000000000003000000000000000100000000000000" +
		"0200000000000000020000000000000003000000000000000100000000000000" +
		"0000000000000000010000000000000005000000000000000100000000000000" +
		"020000000000000002000000000000000800000000000000ffffffffffffffff" +
		"090000000000000000000000000000000b000000000000000000000000000000" +
		"0300000000000000"
	got := EncodeKernelStateDir(2, blocks, dir)
	if hex.EncodeToString(got) != want {
		t.Fatalf("encoding changed:\n got %x\nwant %s", got, want)
	}
	bw, gotBlocks, gotDir, err := DecodeKernelStateDir(got)
	if err != nil {
		t.Fatalf("DecodeKernelStateDir: %v", err)
	}
	if bw != 2 || !reflect.DeepEqual(gotBlocks, blocks) || !reflect.DeepEqual(gotDir, dir) {
		t.Fatalf("round trip: bw=%d blocks=%+v dir=%+v", bw, gotBlocks, gotDir)
	}
	for _, n := range []int{len(got) - 1, len(got) - 8, len(got) - 40} {
		if _, _, _, err := DecodeKernelStateDir(got[:n]); err == nil {
			t.Errorf("accepted %d-byte truncation", n)
		}
	}
}

func openTestStore(t *testing.T) (*DirStore, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	return st, dir
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
	st, _ := openTestStore(t)
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

// TestStoreDetectsCorruptSlice damages one field of a slice file at a time —
// the header, the payload, and each of the checks over it — and ReadSlice
// must refuse every one.
func TestStoreDetectsCorruptSlice(t *testing.T) {
	st, dir := openTestStore(t)
	commitGen(t, st, 1, 1)
	path := filepath.Join(dir, "g1", "p0")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		at   int
	}{
		{"magic", 0},
		{"generation", 8},
		{"PE", 16},
		{"length", 24},
		{"CRC32", 32},
		{"SHA-256", 36},
		{"payload", len(good) - 1},
	} {
		bad := bytes.Clone(good)
		bad[tc.at] ^= 0xff
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.ReadSlice(1, 0); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("%s flipped: err = %v, want a corrupt-slice error", tc.name, err)
		}
	}
	if err := os.WriteFile(path, good[:len(good)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadSlice(1, 0); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("truncated: err = %v, want a corrupt-slice error", err)
	}
}

// TestStoreRefusesMisplacedSlice copies an intact slice file under another
// PE's name and under another generation's: each still passes its checksums,
// and ReadSlice must refuse it by the names in its frame.
func TestStoreRefusesMisplacedSlice(t *testing.T) {
	st, dir := openTestStore(t)
	commitGen(t, st, 1, 2)
	commitGen(t, st, 2, 2)
	copyFile := func(from, to string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, from))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, to), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile("g2/p0", "g2/p1")
	if _, err := st.ReadSlice(2, 1); err == nil || !strings.Contains(err.Error(), "holds generation 2, PE 0") {
		t.Errorf("PE 0's slice read as PE 1's: err = %v, want a refusal naming PE 0", err)
	}
	copyFile("g1/p0", "g2/p0")
	if _, err := st.ReadSlice(2, 0); err == nil || !strings.Contains(err.Error(), "holds generation 1, PE 0") {
		t.Errorf("generation 1's slice read as generation 2's: err = %v, want a refusal naming generation 1", err)
	}
}

func TestCommitRequiresAllSlices(t *testing.T) {
	st, _ := openTestStore(t)
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

// An interrupted checkpoint leaves slices but no commit marker; an
// interrupted marker write leaves a .tmp- file. Neither may surface.
func TestCrashWindowsInvisible(t *testing.T) {
	st, dir := openTestStore(t)
	commitGen(t, st, 1, 2)

	// Crash after writing gen 2's slice but before Commit.
	if err := st.WriteSlice(2, 0, []byte("half a checkpoint")); err != nil {
		t.Fatal(err)
	}
	// Crash mid-marker-write for gen 3: simulate the temp file CreateTemp
	// would leave behind if the process died before rename.
	if err := os.Mkdir(filepath.Join(dir, "g3"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "g3", ".tmp-123456"), []byte("numpe 2\n"), 0o644); err != nil {
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

// TestCommitKeepsNewestGenerations: after each Commit only the newest two
// committed generations are left, and a generation that never committed
// goes once it is older than both.
func TestCommitKeepsNewestGenerations(t *testing.T) {
	st, dir := openTestStore(t)
	if err := st.WriteSlice(1, 0, []byte("never committed")); err != nil {
		t.Fatal(err)
	}
	for gen := uint64(2); gen <= 5; gen++ {
		commitGen(t, st, gen, 2)
	}
	all, committed, err := st.generations()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(all, []uint64{4, 5}) || !slices.Equal(committed, []uint64{4, 5}) {
		t.Fatalf("after 4 commits: generations %v, committed %v; want [4 5] and [4 5]", all, committed)
	}
	if _, err := st.ReadSlice(5, 1); err != nil {
		t.Fatalf("kept generation unreadable: %v", err)
	}
	if _, err := st.ReadSlice(3, 0); err == nil {
		t.Fatal("dropped generation still readable")
	}
	if _, err := os.Stat(filepath.Join(dir, "g1")); !os.IsNotExist(err) {
		t.Fatalf("uncommitted generation 1 left behind (%v)", err)
	}
}
