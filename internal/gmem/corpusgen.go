//go:build ignore

// Generates the committed seed corpora for the gmem fuzz targets (the
// submission ring, the write-combining buffer and the segment's block
// storage). Run from the repo root:
//
//	go run internal/gmem/corpusgen.go
package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

func put(dir, name string, data []byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		panic(err)
	}
}

// schedule encodes one FuzzSubmitRing input: ring-size selector, start
// position, then one byte per op (mod 3: 0 push, 1 drain-all, 2 drain-head).
func schedule(sizeSel byte, start uint64, ops ...byte) []byte {
	data := make([]byte, 9, 9+len(ops))
	data[0] = sizeSel
	binary.LittleEndian.PutUint64(data[1:], start)
	return append(data, ops...)
}

func main() {
	dir := "internal/gmem/testdata/fuzz/FuzzSubmitRing"
	// Plain FIFO traffic on an 8-slot ring.
	put(dir, "seed-fifo", schedule(2, 0, 0, 0, 0, 1, 0, 2, 1))
	// Positions wrap uint64 mid-schedule: the slot-state words must keep
	// their modular discipline across the wrap (the newSubmitRingAt
	// misinitialisation this corpus pinned hung Push forever).
	put(dir, "seed-wrap", schedule(2, ^uint64(0)-3, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 2, 2))
	// Overfill a 2-slot ring: pushes beyond capacity must reject cleanly.
	put(dir, "seed-full", schedule(0, ^uint64(0)-1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1))
	// Head-at-a-time drains interleaved with pushes, high start bit set.
	put(dir, "seed-head", schedule(3, 1<<63, 2, 0, 2, 0, 0, 2, 2, 2, 0, 1))

	// FuzzWCBuf schedules: one byte per op (mod 8: 0-4 write, consuming an
	// addr byte (%64) and a value byte; 5-6 drain; 7 discard).
	wdir := "internal/gmem/testdata/fuzz/FuzzWCBuf"
	// Plain writes then one flush.
	put(wdir, "seed-flush", []byte{0, 1, 2, 0, 1, 3, 5})
	// Same-word overwrites across two flush epochs: the LWW seed.
	put(wdir, "seed-lww", []byte{0, 7, 1, 0, 7, 2, 0, 7, 3, 5, 0, 7, 4, 6})
	// Discard mid-stream (the peer-down / skipped-flush fault path).
	put(wdir, "seed-discard", []byte{1, 9, 1, 2, 9, 2, 7, 3, 9, 3, 5})
	// Dense same-block collisions spanning a flush boundary.
	put(wdir, "seed-dense", []byte{0, 0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 5, 4, 0, 5, 0, 0, 6, 6})

	// FuzzSegmentBlocks scripts (segModel.run): one op byte (mod 32: below
	// 20 a write, below 26 an adoption, below 29 an extract, below 31 a range
	// drop, else an export-import), its arguments, then a spot read.
	sdir := "internal/gmem/testdata/fuzz/FuzzSegmentBlocks"
	var fill script
	for i := 0; i < 16; i++ {
		fill.write(i, i%8)
	}
	// Every block of the segment's own residue: each stripe's table grows.
	put(sdir, "seed-fill", fill)
	// Eight blocks migrate in (after a refused repeat), four leave for good.
	migrate := append(script(nil), fill...)
	migrate.op(20, 7, 0, 1, 2, 3, 4, 5, 6, 7).flag(0).spot()
	migrate.op(26, 3, 0, 5, 9, 17).spot()
	migrate.write(3, 1)
	put(sdir, "seed-migrate", migrate)
	// A namespace's blocks torn down mid-script, then written again.
	teardown := append(script(nil), fill...)
	teardown.op(29, 4, 7).spot()
	teardown.write(2, 3)
	put(sdir, "seed-teardown", teardown)
	// Export, change a word, leave a block out, refuse a repeat, import.
	reimport := append(script(nil), migrate...)
	reimport.op(31, 3, 2).flag(0).pick(1).flag(0).spot()
	put(sdir, "seed-reimport", reimport)
}

// script builds a FuzzSegmentBlocks input; pick appends a two-byte choice.
type script []byte

func (s *script) pick(n int) *script  { *s = append(*s, byte(n>>8), byte(n)); return s }
func (s *script) flag(b byte) *script { *s = append(*s, b); return s }
func (s *script) spot() *script       { return s.pick(0).pick(0) }

func (s *script) op(code byte, picks ...int) *script {
	*s = append(*s, code)
	for _, n := range picks {
		s.pick(n)
	}
	return s
}

func (s *script) write(block, word int) { s.op(0, block, word).spot() }
