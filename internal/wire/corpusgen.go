//go:build ignore

// Generates the committed seed corpora for the wire and tcpnet fuzz
// targets from real encoder output. Run from the repo root:
//
//	go run internal/wire/corpusgen.go
package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/wire"
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

func frame(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	copy(out[4:], payload)
	return out
}

func main() {
	read := &wire.Message{Op: wire.OpRead, Src: 0, Dst: 1, Seq: 3, Addr: 16, Arg1: 4}
	wr := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 0, Seq: 9, Addr: 8}
	wr.PutWords([]int64{1, 2, 3})
	rv := &wire.Message{Op: wire.OpReadV, Src: 2, Dst: 0, Seq: 5}
	rv.AppendRange(8, 2)
	rv.AppendRange(512, 7)
	wv := &wire.Message{Op: wire.OpWriteV, Src: 3, Dst: 1, Seq: 11}
	wv.AppendWriteRun(8, []int64{-1, -2})
	wv.AppendWriteRun(1024, []int64{1 << 40})
	// The TakeWriteRun count-overflow shape: one run header claiming 2^61
	// words (count*8 wraps negative as an int64).
	evil := &wire.Message{Op: wire.OpWriteV}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:], 8)
	binary.LittleEndian.PutUint64(hdr[8:], 1<<61)
	evil.Data = hdr[:]

	for dir, msgs := range map[string][]*wire.Message{
		"internal/wire/testdata/fuzz/FuzzDecode":     {read, wr, rv, wv, evil},
		"internal/wire/testdata/fuzz/FuzzDecodeInto": {read, wr, rv, wv, evil},
	} {
		for i, m := range msgs {
			put(dir, fmt.Sprintf("seed-%d", i), m.Encode())
		}
	}
	tdir := "internal/transport/tcpnet/testdata/fuzz/FuzzReadFrame"
	for i, m := range []*wire.Message{read, wr, rv, wv, evil} {
		put(tdir, fmt.Sprintf("seed-%d", i), frame(m.Encode()))
	}
	// Two adversarial streams: truncated mid-frame, and an oversized prefix.
	put(tdir, "seed-truncated", frame(wr.Encode())[:20])
	put(tdir, "seed-bad-size", []byte{0xff, 0xff, 0xff, 0x7f})
}
