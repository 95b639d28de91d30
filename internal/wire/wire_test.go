package wire

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

func sampleMessage() *Message {
	return &Message{
		Op: OpRead, Src: 3, Dst: 7, Tag: -2, Seq: 12345,
		Addr: 0xdeadbeef, Arg1: -99, Arg2: 1 << 40,
		Data: []byte{1, 2, 3, 4},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleMessage()
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Op != m.Op || got.Src != m.Src || got.Dst != m.Dst || got.Tag != m.Tag ||
		got.Seq != m.Seq || got.Addr != m.Addr || got.Arg1 != m.Arg1 || got.Arg2 != m.Arg2 {
		t.Fatalf("header mismatch: %v vs %v", got, m)
	}
	if !bytes.Equal(got.Data, m.Data) {
		t.Fatalf("payload mismatch: %v vs %v", got.Data, m.Data)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(op uint8, src, dst, tag int32, seq, addr uint64, a1, a2 int64, data []byte) bool {
		m := &Message{Op: Op(op), Src: src, Dst: dst, Tag: tag, Seq: seq,
			Addr: addr, Arg1: a1, Arg2: a2, Data: data}
		got, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		if got.Op != m.Op || got.Src != src || got.Dst != dst || got.Tag != tag ||
			got.Seq != seq || got.Addr != addr || got.Arg1 != a1 || got.Arg2 != a2 {
			return false
		}
		if len(data) == 0 {
			return len(got.Data) == 0
		}
		return bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWireSizeMatchesEncoding(t *testing.T) {
	m := sampleMessage()
	if got := len(m.Encode()); got != m.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", got, m.WireSize())
	}
	m.Data = nil
	if m.WireSize() != HeaderSize {
		t.Fatalf("empty message WireSize = %d, want %d", m.WireSize(), HeaderSize)
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	if _, err := Decode(make([]byte, HeaderSize-1)); err == nil {
		t.Fatal("expected error for short buffer")
	}
}

func TestAppendReusesBuffer(t *testing.T) {
	m := sampleMessage()
	buf := make([]byte, 0, 256)
	out := m.Append(buf)
	if len(out) != m.WireSize() {
		t.Fatalf("appended %d bytes, want %d", len(out), m.WireSize())
	}
	out2 := m.Append(out)
	if len(out2) != 2*m.WireSize() {
		t.Fatal("second append did not extend")
	}
	if got, err := Decode(out2[m.WireSize():]); err != nil || got.Seq != m.Seq {
		t.Fatalf("second copy corrupt: %v %v", got, err)
	}
}

func TestFlagsRoundTrip(t *testing.T) {
	m := sampleMessage()
	m.Flags = FlagRetry
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Flags != FlagRetry {
		t.Fatalf("Flags = %#x, want %#x", got.Flags, FlagRetry)
	}
	m.Flags = 0
	if got, err = Decode(m.Encode()); err != nil || got.Flags != 0 {
		t.Fatalf("zero Flags not preserved: %#x, %v", got.Flags, err)
	}
}

func TestWordsRoundTrip(t *testing.T) {
	f := func(ws []int64) bool {
		m := &Message{Op: OpReadResp}
		m.PutWords(ws)
		got := m.Words()
		if len(got) != len(ws) {
			return false
		}
		for i := range ws {
			if got[i] != ws[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordsPanicsOnRaggedPayload(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-word payload")
		}
	}()
	m := &Message{Data: []byte{1, 2, 3}}
	m.Words()
}

func TestOpStringsAreNamed(t *testing.T) {
	for op := OpRead; op < numOps; op++ {
		if s := op.String(); s == "" || s[0] == 'O' && s[1] == 'p' && s[2] == '(' {
			t.Fatalf("op %d has no name", op)
		}
	}
	if Op(200).String() != "Op(200)" {
		t.Fatal("unknown op should fall back to numeric form")
	}
}

func TestDecodeRejectsHugePayloadClaim(t *testing.T) {
	buf := make([]byte, HeaderSize+MaxDataLen+1)
	if _, err := Decode(buf); err == nil {
		t.Fatal("expected error for oversized payload")
	}
}

func BenchmarkEncode(b *testing.B) {
	m := sampleMessage()
	m.Data = make([]byte, 1024)
	buf := make([]byte, 0, m.WireSize())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = m.Append(buf[:0])
	}
}

func BenchmarkDecode(b *testing.B) {
	m := sampleMessage()
	m.Data = make([]byte, 1024)
	enc := m.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// blockWords is the payload of the block class of benchmark/: 64 words.
var blockWords = func() []int64 {
	ws := make([]int64, 64)
	for i := range ws {
		ws[i] = int64(i) << 40
	}
	return ws
}()

// BenchmarkAppendWords64 and BenchmarkWordsInto64 time the two word codecs
// every block, gather and scatter passes through, at the block class's size.
func BenchmarkAppendWords64(b *testing.B) {
	buf := make([]byte, 0, 8*len(blockWords))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendWords(buf[:0], blockWords)
	}
	if len(buf) != 8*len(blockWords) {
		b.Fatalf("encoded %d bytes", len(buf))
	}
}

func BenchmarkWordsInto64(b *testing.B) {
	m := &Message{}
	m.PutWords(blockWords)
	dst := make([]int64, 0, len(blockWords))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = m.WordsInto(dst)
	}
	if !slices.Equal(dst, blockWords) {
		b.Fatal("decoded words differ")
	}
}
