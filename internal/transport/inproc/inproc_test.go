package inproc

import (
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

func TestSendRecvBetweenNodes(t *testing.T) {
	net := New(2)
	defer net.Stop()
	var got *wire.Message
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m, ok := net.Node(1).Recv()
		if !ok {
			t.Error("recv failed")
			return
		}
		got = m
	}()
	net.Node(0).App().Send(1, &wire.Message{Op: wire.OpUserMsg, Src: 0, Dst: 1, Tag: 9, Data: []byte("hi")})
	wg.Wait()
	if got == nil || got.Tag != 9 || string(got.Data) != "hi" {
		t.Fatalf("got %v", got)
	}
}

func TestSelfSendDelivers(t *testing.T) {
	net := New(1)
	defer net.Stop()
	done := make(chan *wire.Message, 1)
	go func() {
		m, _ := net.Node(0).Recv()
		done <- m
	}()
	net.Node(0).App().Send(0, &wire.Message{Op: wire.OpPing, Src: 0, Dst: 0})
	if m := <-done; m.Op != wire.OpPing {
		t.Fatalf("got %v", m)
	}
}

func TestCloseRecvUnblocks(t *testing.T) {
	net := New(1)
	done := make(chan bool, 1)
	go func() {
		_, ok := net.Node(0).Recv()
		done <- ok
	}()
	net.Node(0).CloseRecv()
	if ok := <-done; ok {
		t.Fatal("Recv returned ok after close")
	}
}

func TestSendToClosedNodeDoesNotBlock(t *testing.T) {
	net := New(2)
	net.Node(1).CloseRecv()
	// Fill beyond any queue without blocking forever.
	for i := 0; i < 100; i++ {
		net.Node(0).App().Send(1, &wire.Message{Op: wire.OpPing})
	}
}

func TestStatsCount(t *testing.T) {
	net := New(2)
	defer net.Stop()
	recvd := make(chan struct{})
	go func() {
		for i := 0; i < 3; i++ {
			net.Node(1).Recv()
		}
		close(recvd)
	}()
	m := &wire.Message{Op: wire.OpUserMsg, Data: make([]byte, 100)}
	for i := 0; i < 3; i++ {
		net.Node(0).App().Send(1, m)
	}
	<-recvd
	s0, s1 := net.Node(0).Stats(), net.Node(1).Stats()
	if s0.MsgsSent != 3 || s0.BytesSent != 3*uint64(m.WireSize()) {
		t.Fatalf("sender stats %+v", s0)
	}
	if s1.MsgsRecv != 3 {
		t.Fatalf("receiver stats %+v", s1)
	}
}

func TestMailbox(t *testing.T) {
	net := New(1)
	defer net.Stop()
	mb := net.Node(0).NewMailbox(2)
	mb.Put(&wire.Message{Seq: 1})
	mb.Put(&wire.Message{Seq: 2})
	if m, ok := mb.Take(); !ok || m.Seq != 1 {
		t.Fatalf("first take: %v %v", m, ok)
	}
	if m, ok := mb.Take(); !ok || m.Seq != 2 {
		t.Fatalf("second take: %v %v", m, ok)
	}
	if _, _, timedOut := mb.TakeTimeout(sim.Millisecond); !timedOut {
		t.Fatal("expected timeout on empty mailbox")
	}
	mb.Close()
	if _, ok := mb.Take(); ok {
		t.Fatal("take succeeded after close")
	}
}

func TestManyConcurrentSenders(t *testing.T) {
	net := New(4)
	defer net.Stop()
	const each = 200
	var wg sync.WaitGroup
	total := 3 * each
	got := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for got < total {
			if _, ok := net.Node(0).Recv(); !ok {
				return
			}
			got++
		}
	}()
	for s := 1; s < 4; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				net.Node(s).App().Send(0, &wire.Message{Op: wire.OpUserMsg, Src: int32(s), Arg1: int64(i)})
			}
		}()
	}
	wg.Wait()
	if got != total {
		t.Fatalf("received %d, want %d", got, total)
	}
}

// TestLocalSinkTakesSelfSends: the local sink is offered a node's messages to
// itself and nothing else, on the sending goroutine, and what it declines
// queues for Recv; the sink proper is never offered a self-send.
func TestLocalSinkTakesSelfSends(t *testing.T) {
	net := New(2)
	defer net.Stop()
	nd := net.nodes[0]
	var local, remote []int32
	nd.SetLocalSink(func(m *wire.Message) bool {
		local = append(local, m.Tag)
		return m.Tag == 1
	})
	nd.SetSink(func(m *wire.Message) bool {
		remote = append(remote, m.Tag)
		return true
	})
	nd.App().Send(0, &wire.Message{Op: wire.OpUserMsg, Tag: 1})
	nd.App().Send(0, &wire.Message{Op: wire.OpUserMsg, Tag: 2})
	net.Node(1).App().Send(0, &wire.Message{Op: wire.OpUserMsg, Tag: 3})
	if len(local) != 2 || local[0] != 1 || local[1] != 2 || len(remote) != 1 || remote[0] != 3 {
		t.Fatalf("local sink offered tags %v, sink %v; want [1 2] and [3]", local, remote)
	}
	if m, ok := nd.Recv(); !ok || m.Tag != 2 {
		t.Fatalf("Recv = %v, %v; want the declined self-send, tag 2", m, ok)
	}
	if msgs, _ := nd.in.Received(); msgs != 3 {
		t.Fatalf("MsgsRecv = %d, want 3: a message the local sink takes is counted", msgs)
	}
}
