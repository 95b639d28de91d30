package tcpnet

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestLocalMeshExchange(t *testing.T) {
	net, err := NewLocal(3)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	defer net.Stop()

	// Every node sends one message to every other; every node receives two.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := map[int32]bool{}
			for len(seen) < 2 {
				m, ok := net.Node(i).Recv()
				if !ok {
					t.Errorf("node %d: recv closed early", i)
					return
				}
				seen[m.Src] = true
			}
		}()
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			net.Node(i).App().Send(j, &wire.Message{Op: wire.OpUserMsg, Src: int32(i), Dst: int32(j)})
		}
	}
	wg.Wait()
}

func TestPayloadSurvivesTCP(t *testing.T) {
	net, err := NewLocal(2)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	defer net.Stop()
	data := make([]byte, 100_000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	done := make(chan *wire.Message, 1)
	go func() {
		m, _ := net.Node(1).Recv()
		done <- m
	}()
	net.Node(0).App().Send(1, &wire.Message{Op: wire.OpUserMsg, Src: 0, Dst: 1, Seq: 5, Data: data})
	m := <-done
	if m.Seq != 5 || len(m.Data) != len(data) {
		t.Fatalf("message corrupted: seq=%d len=%d", m.Seq, len(m.Data))
	}
	for i := range data {
		if m.Data[i] != data[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
}

func TestSelfSend(t *testing.T) {
	net, err := NewLocal(2)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	defer net.Stop()
	done := make(chan *wire.Message, 1)
	go func() {
		m, _ := net.Node(0).Recv()
		done <- m
	}()
	net.Node(0).App().Send(0, &wire.Message{Op: wire.OpPing, Src: 0, Dst: 0, Tag: 3})
	if m := <-done; m.Tag != 3 {
		t.Fatalf("self-send corrupted: %v", m)
	}
}

func TestKillUnblocksRecvAndFailsSends(t *testing.T) {
	net, err := NewLocal(2)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	defer net.Stop()
	done := make(chan bool, 1)
	go func() {
		_, ok := net.TCPNode(1).Recv()
		done <- ok
	}()
	net.TCPNode(1).Kill()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Recv returned ok after Kill")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock after Kill")
	}
	// Sends to the dead node must not hang; they eventually error.
	deadline := time.Now().Add(5 * time.Second)
	for net.TCPNode(0).Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("send to dead node never errored")
		}
		net.Node(0).App().Send(1, &wire.Message{Op: wire.OpPing})
	}
}

func TestSequencePreservedPerSender(t *testing.T) {
	net, err := NewLocal(2)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	defer net.Stop()
	const n = 500
	got := make([]uint64, 0, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for len(got) < n {
			m, ok := net.Node(1).Recv()
			if !ok {
				return
			}
			got = append(got, m.Seq)
		}
	}()
	for i := 0; i < n; i++ {
		net.Node(0).App().Send(1, &wire.Message{Op: wire.OpUserMsg, Seq: uint64(i)})
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if got[i] != uint64(i) {
			t.Fatalf("TCP reordered messages at %d: %v", i, got[i])
		}
	}
}

func TestOpenRejectsBadFrameSizes(t *testing.T) {
	// Covered indirectly: a frame claiming a giant size must error, not
	// allocate. Exercise readFrame via a crafted in-memory connection.
	c1, c2 := newPipe()
	defer c1.Close()
	defer c2.Close()
	go func() {
		c1.Write([]byte{0xff, 0xff, 0xff, 0xff}) // absurd length prefix
	}()
	if _, err := readFrame(c2); err == nil {
		t.Fatal("expected error for absurd frame size")
	}
}

// TestOpenRefusesOtherProtocolVersion forges a hello from rank 1 that
// announces protocol version 1, whose op numbering differs: node 0 must fail
// its Open with an error naming the version instead of taking the peer into
// the mesh.
func TestOpenRefusesOtherProtocolVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr().String(), "127.0.0.1:0"}
	done := make(chan error, 1)
	go func() {
		nd, err := open(0, addrs, ln)
		if nd != nil {
			nd.Kill()
		}
		done <- err
	}()
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, &wire.Message{Op: wire.OpHello, Src: 1, Arg1: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "protocol version 1") {
			t.Fatalf("Open = %v, want a protocol version error", err)
		}
	case <-time.After(meshTimeout):
		t.Fatal("Open did not return after a hello of another version")
	}
}
