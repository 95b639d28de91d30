package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/wire"
)

// roundTripFrame pushes m through writeFrame/readFrame over an in-memory
// pipe and returns the decoded copy.
func roundTripFrame(t *testing.T, m *wire.Message) *wire.Message {
	t.Helper()
	c1, c2 := newPipe()
	defer c1.Close()
	defer c2.Close()
	errc := make(chan error, 1)
	go func() { errc <- writeFrame(c1, m) }()
	got, err := readFrame(c2)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	return got
}

func TestFrameZeroLengthPayload(t *testing.T) {
	m := &wire.Message{Op: wire.OpPing, Src: 1, Dst: 0, Seq: 42}
	got := roundTripFrame(t, m)
	defer wire.PutMessage(got)
	if got.Op != wire.OpPing || got.Seq != 42 || len(got.Data) != 0 {
		t.Fatalf("zero-payload frame corrupted: %v", got)
	}
}

func TestFrameAtMaxDataLen(t *testing.T) {
	if testing.Short() {
		t.Skip("16 MiB frame")
	}
	data := make([]byte, wire.MaxDataLen)
	data[0], data[len(data)-1] = 0xAB, 0xCD
	m := &wire.Message{Op: wire.OpUserMsg, Data: data}
	got := roundTripFrame(t, m)
	defer wire.PutMessage(got)
	if len(got.Data) != wire.MaxDataLen || got.Data[0] != 0xAB || got.Data[len(got.Data)-1] != 0xCD {
		t.Fatalf("limit-sized frame corrupted: len=%d", len(got.Data))
	}
}

// A frame prefix claiming one byte more than the limit must be rejected
// before any payload allocation.
func TestFrameOverMaxDataLenRejected(t *testing.T) {
	c1, c2 := newPipe()
	defer c1.Close()
	defer c2.Close()
	var pre [4]byte
	binary.LittleEndian.PutUint32(pre[:], uint32(wire.HeaderSize+wire.MaxDataLen+1))
	go c1.Write(pre[:])
	if _, err := readFrame(c2); err == nil {
		t.Fatal("over-limit frame size accepted")
	}
}

// A frame shorter than a header is garbage regardless of payload limits.
func TestFrameUnderHeaderSizeRejected(t *testing.T) {
	c1, c2 := newPipe()
	defer c1.Close()
	defer c2.Close()
	var pre [4]byte
	binary.LittleEndian.PutUint32(pre[:], wire.HeaderSize-1)
	go c1.Write(pre[:])
	if _, err := readFrame(c2); err == nil {
		t.Fatal("under-header frame size accepted")
	}
}

// The reader goroutine reads frames through one bufio.Reader: frames that
// arrived back to back in one segment, a frame larger than the buffer and a
// frame cut off by the peer's death must each decode exactly as unbuffered.
func TestFramesThroughBufferedReader(t *testing.T) {
	var stream bytes.Buffer
	sizes := []int{0, 8, 512, readBufSize - wire.HeaderSize - 4, 3 * readBufSize, 8}
	for i, size := range sizes {
		m := &wire.Message{Op: wire.OpUserMsg, Seq: uint64(i), Data: bytes.Repeat([]byte{byte(i + 1)}, size)}
		if err := writeFrame(&stream, m); err != nil {
			t.Fatalf("writeFrame %d: %v", i, err)
		}
	}
	stream.Truncate(stream.Len() - 3) // the last frame is cut short
	br := bufio.NewReaderSize(&stream, readBufSize)
	for i, size := range sizes[:len(sizes)-1] {
		m, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.Seq != uint64(i) || !bytes.Equal(m.Data, bytes.Repeat([]byte{byte(i + 1)}, size)) {
			t.Fatalf("frame %d corrupted: seq %d, %d bytes", i, m.Seq, len(m.Data))
		}
		wire.PutMessage(m)
	}
	if _, err := readFrame(br); err != io.ErrUnexpectedEOF {
		t.Fatalf("short last frame: %v, want io.ErrUnexpectedEOF", err)
	}
}
