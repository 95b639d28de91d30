package wire

import (
	"bytes"
	"testing"
)

// exercise drives every payload accessor a kernel may call on a decoded
// message of unknown shape. None of them may panic on untrusted bytes: a
// malformed payload must surface as an error (counted as a CorruptDrop by
// the kernel), never take the process down.
func exercise(t *testing.T, m *Message) {
	t.Helper()
	_ = m.PayloadWords()
	if len(m.Data)%8 == 0 {
		// WordsInto's whole-words precondition holds; it must not panic.
		m.WordsInto(nil)
	}
	for p, ok := m.Data, true; ok && len(p) > 0; {
		_, _, p, ok = TakeRange(p)
	}
	for p, ok := m.Data, true; ok && len(p) > 0; {
		var words []byte
		if _, words, p, ok = TakeWriteRun(p); ok {
			// A run that decodes holds whole words inside the payload.
			DecodeWords(make([]int64, len(words)/8), words)
		}
	}
}

func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize-1))
	f.Add(make([]byte, HeaderSize))
	m := &Message{Op: OpWrite, Src: 1, Dst: 2, Seq: 7, Addr: 99}
	m.PutWord(42)
	f.Add(m.Encode())
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := Decode(buf)
		if err != nil {
			return
		}
		exercise(t, m)
		// Round-trip: re-encoding a decoded message and decoding it again
		// must reproduce the same header and payload (the two reserved
		// header bytes are not carried, so compare fields, not raw bytes).
		m2, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("re-decoding a re-encoded message: %v", err)
		}
		if m.Op != m2.Op || m.Flags != m2.Flags || m.Src != m2.Src || m.Dst != m2.Dst ||
			m.Tag != m2.Tag || m.Seq != m2.Seq || m.Addr != m2.Addr ||
			m.Arg1 != m2.Arg1 || m.Arg2 != m2.Arg2 || !bytes.Equal(m.Data, m2.Data) {
			t.Fatalf("round trip changed the message:\n  %+v\n  %+v", m, m2)
		}
	})
}

func FuzzDecodeInto(f *testing.F) {
	f.Add(make([]byte, HeaderSize))
	m := &Message{Op: OpWriteV}
	m.AppendWriteRun(8, []int64{1, 2, 3})
	m.AppendWriteRun(64, []int64{4})
	f.Add(m.Encode())
	f.Fuzz(func(t *testing.T, buf []byte) {
		m := GetMessage()
		defer PutMessage(m)
		err := DecodeInto(m, buf)
		ma, erra := Decode(buf)
		if (err == nil) != (erra == nil) {
			t.Fatalf("DecodeInto err=%v but Decode err=%v", err, erra)
		}
		if err != nil {
			return
		}
		// DecodeInto must produce exactly what Decode does, with the payload
		// copied out of buf rather than aliasing it.
		if m.Op != ma.Op || m.Seq != ma.Seq || m.Addr != ma.Addr || !bytes.Equal(m.Data, ma.Data) {
			t.Fatalf("DecodeInto disagrees with Decode:\n  %+v\n  %+v", m, ma)
		}
		if len(buf) > HeaderSize {
			buf[HeaderSize] ^= 0xff
			if bytes.Equal(m.Data, buf[HeaderSize:]) && len(m.Data) > 0 {
				t.Fatal("DecodeInto payload aliases the caller's buffer")
			}
		}
		exercise(t, m)
	})
}
