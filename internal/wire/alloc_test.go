package wire

import (
	"bytes"
	"testing"
)

// The pooled fast path must be allocation-free in steady state: encode into
// a reused buffer, decode into a pooled message (payload copied to the
// message's own scratch), payload helpers reusing scratch.
func TestPooledRoundTripAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse")
	}
	var frame []byte
	words := []int64{1, -2, 3, -4, 5, -6, 7, -8}
	allocs := testing.AllocsPerRun(2000, func() {
		m := GetMessage()
		m.Op, m.Src, m.Dst, m.Seq, m.Addr = OpWrite, 1, 2, 99, 4096
		m.PutWords(words)
		frame = m.Append(frame[:0])
		PutMessage(m)

		d := GetMessage()
		if err := DecodeInto(d, frame); err != nil {
			t.Fatal(err)
		}
		if d.Op != OpWrite || d.Word(3) != -4 {
			t.Fatalf("corrupt round trip: %v", d)
		}
		PutMessage(d)
	})
	if allocs > 0 {
		t.Errorf("pooled round trip allocates %v/op, want 0", allocs)
	}
}

// DecodeInto must copy the payload so the source buffer can be recycled
// immediately.
func TestDecodeIntoCopiesPayload(t *testing.T) {
	m := &Message{Op: OpUserMsg, Data: []byte("payload")}
	frame := m.Encode()
	d := GetMessage()
	if err := DecodeInto(d, frame); err != nil {
		t.Fatal(err)
	}
	for i := HeaderSize; i < len(frame); i++ {
		frame[i] = 0xFF // clobber the source
	}
	if !bytes.Equal(d.Data, []byte("payload")) {
		t.Errorf("payload aliased the source buffer: %q", d.Data)
	}
	PutMessage(d)
}

func TestDecodeIntoRejectsShortAndHuge(t *testing.T) {
	d := GetMessage()
	defer PutMessage(d)
	if err := DecodeInto(d, make([]byte, HeaderSize-1)); err == nil {
		t.Error("short buffer accepted")
	}
	// A header claiming an over-limit payload via buffer length.
	if err := DecodeInto(d, make([]byte, HeaderSize+MaxDataLen+1)); err == nil {
		t.Error("oversized payload accepted")
	}
}

// Vectored read payloads round-trip: ranges out in order, Arg1 totals the
// word count.
func TestReadVRangesRoundTrip(t *testing.T) {
	m := GetMessage()
	defer PutMessage(m)
	m.Op = OpReadV
	type rng struct {
		addr  uint64
		count int
	}
	in := []rng{{100, 3}, {2000, 32}, {7, 1}}
	for _, r := range in {
		m.AppendRange(r.addr, r.count)
	}
	if m.Arg1 != 36 {
		t.Fatalf("Arg1 = %d, want 36", m.Arg1)
	}
	d := GetMessage()
	defer PutMessage(d)
	if err := DecodeInto(d, m.Encode()); err != nil {
		t.Fatal(err)
	}
	var out []rng
	for p := d.Data; len(p) > 0; {
		addr, count, rest, ok := TakeRange(p)
		if !ok {
			t.Fatalf("range %d did not decode", len(out))
		}
		out = append(out, rng{addr, int(count)})
		p = rest
	}
	if len(out) != len(in) {
		t.Fatalf("%d ranges, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("range %d: %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestTakeRangeRejectsRagged(t *testing.T) {
	m := GetMessage()
	defer PutMessage(m)
	m.AppendRange(1, 2)
	if _, _, _, ok := TakeRange(m.Data[:len(m.Data)-1]); ok {
		t.Error("ragged range payload accepted")
	}
}

// Vectored write payloads round-trip: runs out in order with their words,
// and Arg1 counts the runs.
func TestWriteVRunsRoundTrip(t *testing.T) {
	m := GetMessage()
	defer PutMessage(m)
	m.Op = OpWriteV
	m.AppendWriteRun(50, []int64{1, 2, 3})
	m.AppendWriteRun(9000, []int64{-7})
	m.AppendWriteRun(128, []int64{10, 20, 30, 40})
	if m.Arg1 != 3 {
		t.Fatalf("Arg1 = %d, want 3", m.Arg1)
	}
	d := GetMessage()
	defer PutMessage(d)
	if err := DecodeInto(d, m.Encode()); err != nil {
		t.Fatal(err)
	}
	type run struct {
		addr  uint64
		words []int64
	}
	var out []run
	for p := d.Data; len(p) > 0; {
		addr, enc, rest, ok := TakeWriteRun(p)
		if !ok {
			t.Fatalf("run %d did not decode", len(out))
		}
		words := make([]int64, len(enc)/8)
		DecodeWords(words, enc)
		out = append(out, run{addr, words})
		p = rest
	}
	want := []run{{50, []int64{1, 2, 3}}, {9000, []int64{-7}}, {128, []int64{10, 20, 30, 40}}}
	if len(out) != len(want) {
		t.Fatalf("%d runs, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i].addr != want[i].addr || len(out[i].words) != len(want[i].words) {
			t.Fatalf("run %d: %+v, want %+v", i, out[i], want[i])
		}
		for j := range want[i].words {
			if out[i].words[j] != want[i].words[j] {
				t.Errorf("run %d word %d: %d, want %d", i, j, out[i].words[j], want[i].words[j])
			}
		}
	}
}

func TestTakeWriteRunRejectsTruncation(t *testing.T) {
	m := GetMessage()
	defer PutMessage(m)
	m.AppendWriteRun(4, []int64{1, 2})
	for cut := 1; cut < len(m.Data); cut++ {
		if _, _, _, ok := TakeWriteRun(m.Data[:len(m.Data)-cut]); ok {
			t.Errorf("truncation by %d bytes accepted", cut)
		}
	}
}

// ReserveRuns makes the room once: the helpers that build the payload
// afterwards write into it without moving the scratch.
func TestReserveRunsBuildsInPlace(t *testing.T) {
	m := GetMessage()
	defer PutMessage(m)
	m.PutWord(1) // a payload from the message's earlier life
	m.ReserveRuns(2, 3)
	if m.Data != nil {
		t.Fatalf("ReserveRuns left a payload: %v", m)
	}
	base := &m.buf[:1][0]
	m.AppendWriteRun(8, []int64{1, 2})
	m.AppendWriteRun(64, []int64{3})
	if &m.Data[0] != base || len(m.Data) != 2*rangeBytes+8*3 {
		t.Fatalf("payload of %d bytes moved out of the reserved scratch", len(m.Data))
	}
}

// Word/PutWord/WordsInto agree with the slice-based codecs.
func TestWordHelpers(t *testing.T) {
	m := GetMessage()
	defer PutMessage(m)
	m.PutWord(-12345)
	if m.PayloadWords() != 1 || m.Word(0) != -12345 {
		t.Fatalf("PutWord/Word mismatch: %v", m.Words())
	}
	m.PutWords([]int64{5, 6, 7})
	dst := make([]int64, 0, 8)
	dst = m.WordsInto(dst)
	if len(dst) != 3 || dst[0] != 5 || dst[2] != 7 {
		t.Fatalf("WordsInto = %v", dst)
	}
	m.ResetData()
	if m.Data != nil || m.PayloadWords() != 0 {
		t.Fatal("ResetData left payload")
	}
}

// Recycled messages must come back empty regardless of prior state.
func TestPutMessageResets(t *testing.T) {
	m := GetMessage()
	m.Op, m.Seq, m.Arg1 = OpCAS, 7, 8
	m.PutWords([]int64{1, 2, 3})
	PutMessage(m)
	// The pool may hand back any message; drain a few to likely see ours.
	for i := 0; i < 8; i++ {
		g := GetMessage()
		if g.Op != OpInvalid || g.Seq != 0 || g.Arg1 != 0 || g.Data != nil {
			t.Fatalf("pooled message not reset: %v", g)
		}
		PutMessage(g)
	}
}

// Reset empties a message its owner keeps — header, payload and both stamps —
// but keeps the scratch, so refilling it allocates nothing.
func TestResetKeepsScratch(t *testing.T) {
	var m Message
	m.Op, m.Flags, m.Src, m.Dst, m.Tag = OpReadResp, FlagRetry, 1, 2, 3
	m.Seq, m.Addr, m.Arg1, m.Arg2 = 4, 5, 6, 7
	m.RecvAt, m.SentAt = 8, 9
	m.PutWords(make([]int64, 64))
	scratch := cap(m.buf)
	m.Reset()
	if m.Op != OpInvalid || m.Flags != 0 || m.Src != 0 || m.Dst != 0 || m.Tag != 0 ||
		m.Seq != 0 || m.Addr != 0 || m.Arg1 != 0 || m.Arg2 != 0 || m.Data != nil ||
		m.RecvAt != 0 || m.SentAt != 0 {
		t.Fatalf("Reset left %v, RecvAt %d, SentAt %d", &m, m.RecvAt, m.SentAt)
	}
	if cap(m.buf) != scratch || len(m.buf) != 0 {
		t.Fatalf("Reset left scratch len %d cap %d, want 0 and %d", len(m.buf), cap(m.buf), scratch)
	}
	words := make([]int64, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		m.PutWords(words)
		m.Reset()
	}); allocs != 0 {
		t.Errorf("refilling a reset message allocates %v/op, want 0", allocs)
	}
}
