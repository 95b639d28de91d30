package ckpt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gmem"
)

// fuzzGen and fuzzPE are the names the fuzz target reads every input under;
// the framed seeds carry them.
const (
	fuzzGen = 1
	fuzzPE  = 0
)

// snapshotSeeds are FuzzSnapshot's committed seeds, each the encoders' output
// for one shape a decoder meets: the slice file of a static cluster, one whose
// kernel state has a directory trailer with escrow, and a block-migration
// payload, which travels unframed.
func snapshotSeeds() map[string][]byte {
	blocks := []gmem.BlockSnapshot{
		{Index: 0, Words: []int64{1, -2, 3, 0}},
		{Index: 3, Words: []int64{5, 6, 7, 1 << 40}},
	}
	static := Slice{Epoch: 4, MarkTime: 1_500_000, App: []byte("app"), Kernel: EncodeKernelStateDir(4, blocks, nil)}
	dir := &DirectorySnapshot{
		Epoch:     3,
		Members:   []MemberSnapshot{{State: 0, Gen: 1}, {State: 2, Gen: 3}, {State: 1}},
		Overrides: [][2]uint64{{3, 0}, {7, 2}},
		Escrow:    []EscrowSnapshot{{Dst: 2, Block: gmem.BlockSnapshot{Index: 7, Words: []int64{9, 8, 7, 6}}}},
	}
	elastic := Slice{Epoch: 5, MarkTime: 2_000_000, Kernel: EncodeKernelStateDir(4, blocks, dir)}
	return map[string][]byte{
		"static-slice":      frame(fuzzGen, fuzzPE, EncodeSlice(static)),
		"escrow-slice":      frame(fuzzGen, fuzzPE, EncodeSlice(elastic)),
		"migration-payload": EncodeKernelState(4, blocks[1:]),
	}
}

// FuzzSnapshot runs the decoders a restart and a handoff apply to bytes they
// read from disk or from a peer: unframe, then DecodeSlice, then
// DecodeKernelStateDir on the slice's kernel state. Whoever can forge a file
// can recompute its checksums, so when the frame is refused the bytes past
// its header go on to DecodeSlice all the same, and the whole input also goes
// to DecodeKernelStateDir as a migration payload would. Oracles: no panic, and
// whatever a decoder accepts encodes back to the very bytes it read. Besides
// snapshotSeeds, the corpus keeps every input the target failed on
// (trailing-bytes-after-trailer: a directory trailer followed by a stray byte
// used to decode).
func FuzzSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := unframe(data, fuzzGen, fuzzPE)
		if err != nil && len(data) >= frameHeader {
			payload = data[frameHeader:]
		}
		if s, err := DecodeSlice(payload); err == nil {
			if !bytes.Equal(EncodeSlice(s), payload) {
				t.Fatalf("slice %x re-encodes differently", payload)
			}
			roundTripKernelState(t, s.Kernel)
		}
		roundTripKernelState(t, data)
	})
}

func roundTripKernelState(t *testing.T, data []byte) {
	bw, blocks, dir, err := DecodeKernelStateDir(data)
	if err == nil && !bytes.Equal(EncodeKernelStateDir(bw, blocks, dir), data) {
		t.Fatalf("kernel state %x re-encodes differently", data)
	}
}

// TestFuzzSnapshotCorpus keeps testdata/fuzz/FuzzSnapshot equal to
// snapshotSeeds. Run with CKPT_WRITE_CORPUS=1 to rewrite the files after
// changing an encoder or a seed.
func TestFuzzSnapshotCorpus(t *testing.T) {
	write := os.Getenv("CKPT_WRITE_CORPUS") != ""
	for name, data := range snapshotSeeds() {
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
		path := filepath.Join("testdata", "fuzz", "FuzzSnapshot", name)
		if write {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: seed corpus file stale or missing (%v); rerun with CKPT_WRITE_CORPUS=1", path, err)
		}
	}
}
