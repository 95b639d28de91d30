package tcpnet

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// byteConn is a read-only net.Conn over an in-memory buffer: exactly what
// readFrame sees when a peer sends garbage (or a truncated stream) before
// the connection drops.
type byteConn struct{ r *bytes.Reader }

func (c byteConn) Read(p []byte) (int, error)         { return c.r.Read(p) }
func (c byteConn) Write(p []byte) (int, error)        { return len(p), nil }
func (c byteConn) Close() error                       { return nil }
func (c byteConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c byteConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c byteConn) SetDeadline(t time.Time) error      { return nil }
func (c byteConn) SetReadDeadline(t time.Time) error  { return nil }
func (c byteConn) SetWriteDeadline(t time.Time) error { return nil }

// frame wraps payload in the 4-byte length prefix writeFrame uses.
func frame(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	copy(out[4:], payload)
	return out
}

func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(frame(make([]byte, wire.HeaderSize)))
	f.Add(frame(make([]byte, wire.HeaderSize-1))) // size below header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})         // absurd size prefix
	m := &wire.Message{Op: wire.OpWriteV, Src: 1, Seq: 42}
	m.AppendWriteRun(16, []int64{7, 8})
	f.Add(frame(m.Encode()))
	f.Fuzz(func(t *testing.T, stream []byte) {
		conn := byteConn{r: bytes.NewReader(stream)}
		for {
			m, err := readFrame(conn)
			if err != nil {
				return // any malformed stream must end in an error, not a panic
			}
			// A frame that decodes must survive the kernel-side accessors.
			_ = m.PayloadWords()
			for p, ok := m.Data, true; ok && len(p) > 0; {
				_, _, p, ok = wire.TakeRange(p)
			}
			for p, ok := m.Data, true; ok && len(p) > 0; {
				_, _, p, ok = wire.TakeWriteRun(p)
			}
			wire.PutMessage(m)
		}
	})
}
