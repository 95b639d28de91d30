// Package transporttest is a conformance suite for transport
// implementations whose ports may be driven from ordinary goroutines
// (inproc, tcpnet). It checks the contract the DSE kernel relies on:
// addressing, self-delivery, per-sender FIFO, payload integrity, mailbox
// semantics and shutdown behaviour; RunSink adds the receive-side delivery
// hook (transport.SinkNode) and shutdown with a full receive queue. The
// simulated transport has its own in-engine tests.
package transporttest

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Network is the minimal constructor contract the suite needs.
type Network interface {
	N() int
	Node(i int) transport.Node
	Stop()
}

// Factory builds a fresh n-node network.
type Factory func(t *testing.T, n int) Network

// Run executes the whole conformance suite against the factory.
func Run(t *testing.T, factory Factory) {
	t.Helper()
	t.Run("Identity", func(t *testing.T) { testIdentity(t, factory) })
	t.Run("SelfSend", func(t *testing.T) { testSelfSend(t, factory) })
	t.Run("CrossSendAllPairs", func(t *testing.T) { testCrossSend(t, factory) })
	t.Run("PerSenderFIFO", func(t *testing.T) { testFIFO(t, factory) })
	t.Run("PayloadIntegrity", func(t *testing.T) { testPayload(t, factory) })
	t.Run("StatsCount", func(t *testing.T) { testStats(t, factory) })
	t.Run("MailboxOrderAndTimeout", func(t *testing.T) { testMailbox(t, factory) })
	t.Run("CloseRecvUnblocks", func(t *testing.T) { testClose(t, factory) })
	t.Run("ConcurrentLoad", func(t *testing.T) { testConcurrent(t, factory) })
	t.Run("ConcurrentSvcSend", func(t *testing.T) { testConcurrentSvcSend(t, factory) })
	t.Run("PeerDownNotification", func(t *testing.T) { testPeerDown(t, factory) })
}

func testIdentity(t *testing.T, factory Factory) {
	net := factory(t, 3)
	defer net.Stop()
	if net.N() != 3 {
		t.Fatalf("N = %d", net.N())
	}
	for i := 0; i < 3; i++ {
		nd := net.Node(i)
		if nd.ID() != i || nd.N() != 3 {
			t.Fatalf("node %d identity: ID=%d N=%d", i, nd.ID(), nd.N())
		}
		if nd.Hostname() == "" {
			t.Fatalf("node %d has no hostname", i)
		}
	}
}

func testSelfSend(t *testing.T, factory Factory) {
	net := factory(t, 2)
	defer net.Stop()
	done := make(chan *wire.Message, 1)
	go func() {
		m, _ := net.Node(0).Recv()
		done <- m
	}()
	net.Node(0).App().Send(0, &wire.Message{Op: wire.OpPing, Src: 0, Dst: 0, Tag: 7})
	select {
	case m := <-done:
		if m.Tag != 7 {
			t.Fatalf("self-send corrupted: %v", m)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("self-send never delivered")
	}
}

func testCrossSend(t *testing.T, factory Factory) {
	const n = 4
	net := factory(t, n)
	defer net.Stop()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := map[int32]bool{}
			for len(seen) < n-1 {
				m, ok := net.Node(i).Recv()
				if !ok {
					t.Errorf("node %d: closed early", i)
					return
				}
				if seen[m.Src] {
					t.Errorf("node %d: duplicate from %d", i, m.Src)
				}
				seen[m.Src] = true
			}
		}()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				net.Node(i).App().Send(j, &wire.Message{Op: wire.OpUserMsg, Src: int32(i), Dst: int32(j)})
			}
		}
	}
	wg.Wait()
}

func testFIFO(t *testing.T, factory Factory) {
	net := factory(t, 2)
	defer net.Stop()
	const count = 300
	got := make([]uint64, 0, count)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for len(got) < count {
			m, ok := net.Node(1).Recv()
			if !ok {
				return
			}
			got = append(got, m.Seq)
		}
	}()
	for i := 0; i < count; i++ {
		net.Node(0).App().Send(1, &wire.Message{Op: wire.OpUserMsg, Seq: uint64(i)})
	}
	wg.Wait()
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("reordered at %d: got seq %d", i, seq)
		}
	}
}

func testPayload(t *testing.T, factory Factory) {
	net := factory(t, 2)
	defer net.Stop()
	sizes := []int{0, 1, 7, 48, 1499, 1500, 1501, 65536}
	done := make(chan error, 1)
	go func() {
		for _, size := range sizes {
			m, ok := net.Node(1).Recv()
			if !ok {
				done <- fmt.Errorf("closed early")
				return
			}
			if len(m.Data) != size {
				done <- fmt.Errorf("size %d arrived as %d", size, len(m.Data))
				return
			}
			for i, b := range m.Data {
				if b != byte(i*7) {
					done <- fmt.Errorf("size %d corrupted at byte %d", size, i)
					return
				}
			}
		}
		done <- nil
	}()
	for _, size := range sizes {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i * 7)
		}
		net.Node(0).App().Send(1, &wire.Message{Op: wire.OpUserMsg, Data: data})
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func testStats(t *testing.T, factory Factory) {
	net := factory(t, 2)
	defer net.Stop()
	const count = 5
	m := &wire.Message{Op: wire.OpUserMsg, Data: bytes.Repeat([]byte{1}, 64)}
	recvd := make(chan struct{})
	go func() {
		for i := 0; i < count; i++ {
			net.Node(1).Recv()
		}
		close(recvd)
	}()
	for i := 0; i < count; i++ {
		net.Node(0).App().Send(1, m)
	}
	<-recvd
	if s := net.Node(0).Stats(); s.MsgsSent != count || s.BytesSent != count*uint64(m.WireSize()) {
		t.Fatalf("sender stats %+v", s)
	}
	if s := net.Node(1).Stats(); s.MsgsRecv != count {
		t.Fatalf("receiver stats %+v", s)
	}
}

func testMailbox(t *testing.T, factory Factory) {
	net := factory(t, 1)
	defer net.Stop()
	mb := net.Node(0).NewMailbox(8)
	for i := uint64(1); i <= 3; i++ {
		mb.Put(&wire.Message{Seq: i})
	}
	for i := uint64(1); i <= 3; i++ {
		m, ok := mb.Take()
		if !ok || m.Seq != i {
			t.Fatalf("take %d: %v %v", i, m, ok)
		}
	}
	if _, _, timedOut := mb.TakeTimeout(10 * sim.Millisecond); !timedOut {
		t.Fatal("expected timeout on empty mailbox")
	}
	mb.Close()
	if _, ok := mb.Take(); ok {
		t.Fatal("take succeeded after close")
	}
}

func testClose(t *testing.T, factory Factory) {
	net := factory(t, 1)
	done := make(chan bool, 1)
	go func() {
		_, ok := net.Node(0).Recv()
		done <- ok
	}()
	net.Node(0).CloseRecv()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Recv ok after CloseRecv")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv did not unblock")
	}
	net.Stop()
}

// testPeerDown checks the SetPeerDown contract the reliability layer leans
// on: a node that keeps sending to a dead peer gets exactly one callback
// naming that peer, and a callback registered after the death is replayed
// into immediately.
func testPeerDown(t *testing.T, factory Factory) {
	net := factory(t, 3)
	defer net.Stop()
	died := make(chan int, 16)
	net.Node(0).SetPeerDown(func(peer int) { died <- peer })
	net.Node(2).CloseRecv() // the victim goes dark

	// Keep sending until the transport notices (tcpnet may need a few
	// writes before the broken connection surfaces).
	deadline := time.After(10 * time.Second)
	var reported bool
	for !reported {
		net.Node(0).App().Send(2, &wire.Message{Op: wire.OpPing, Src: 0, Dst: 2})
		select {
		case p := <-died:
			if p != 2 {
				t.Fatalf("peer-down reported peer %d, want 2", p)
			}
			reported = true
		case <-deadline:
			t.Fatal("peer death never reported")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// At-most-once: further sends to the dead peer must not re-report.
	for i := 0; i < 5; i++ {
		net.Node(0).App().Send(2, &wire.Message{Op: wire.OpPing, Src: 0, Dst: 2})
	}
	select {
	case p := <-died:
		t.Fatalf("duplicate peer-down report for %d", p)
	case <-time.After(100 * time.Millisecond):
	}
	// Late registration: a callback set after the death learns of it now.
	replay := make(chan int, 1)
	net.Node(0).SetPeerDown(func(peer int) { replay <- peer })
	select {
	case p := <-replay:
		if p != 2 {
			t.Fatalf("replayed peer %d, want 2", p)
		}
	case <-time.After(time.Second):
		t.Fatal("already-dead peer not replayed into late callback")
	}
}

// testConcurrentSvcSend pins the contract the sharded kernel leans on: Send
// on ONE node's Svc port must be safe and lossless when called from many
// goroutines at once (requesters serving their own GM requests at this
// home, replying in parallel with its serial serve loop). Every message must arrive intact and per-goroutine order
// need not be global order, but nothing may be lost or duplicated.
func testConcurrentSvcSend(t *testing.T, factory Factory) {
	const (
		workers = 8
		each    = 200
	)
	net := factory(t, 2)
	defer net.Stop()
	svc := net.Node(0).Svc()
	seen := make(map[uint64]int)
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for i := 0; i < workers*each; i++ {
			m, ok := net.Node(1).Recv()
			if !ok {
				t.Errorf("receiver closed after %d messages", i)
				return
			}
			if len(m.Data) != 16 {
				t.Errorf("message %d: payload %d bytes, want 16", m.Seq, len(m.Data))
			}
			seen[m.Seq]++
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w)}, 16)
			for i := 0; i < each; i++ {
				svc.Send(1, &wire.Message{
					Op: wire.OpReadResp, Src: 0, Dst: 1,
					Seq:  uint64(w)<<32 | uint64(i),
					Data: payload,
				})
			}
		}()
	}
	wg.Wait()
	select {
	case <-recvDone:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent Svc sends: not all messages delivered")
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < each; i++ {
			if c := seen[uint64(w)<<32|uint64(i)]; c != 1 {
				t.Fatalf("message w=%d i=%d delivered %d times", w, i, c)
			}
		}
	}
}

func testConcurrent(t *testing.T, factory Factory) {
	const (
		n    = 4
		each = 100
	)
	net := factory(t, n)
	defer net.Stop()
	var wg sync.WaitGroup
	for dst := 0; dst < n; dst++ {
		dst := dst
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := (n - 1) * each
			for i := 0; i < want; i++ {
				if _, ok := net.Node(dst).Recv(); !ok {
					t.Errorf("node %d closed early", dst)
					return
				}
			}
		}()
	}
	for src := 0; src < n; src++ {
		src := src
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				for dst := 0; dst < n; dst++ {
					if dst != src {
						net.Node(src).App().Send(dst, &wire.Message{Op: wire.OpUserMsg, Src: int32(src)})
					}
				}
			}
		}()
	}
	wg.Wait()
}

// RunSink executes the delivery-hook cases against the factory, whose nodes
// must implement transport.SinkNode.
func RunSink(t *testing.T, factory Factory) {
	t.Helper()
	t.Run("InstalledBeforeTraffic", func(t *testing.T) { testSinkBefore(t, factory) })
	t.Run("InstalledAfterTraffic", func(t *testing.T) { testSinkAfter(t, factory) })
	t.Run("DeclineFallsThroughInOrder", func(t *testing.T) { testSinkDecline(t, factory) })
	t.Run("CloseRecvFullQueue", func(t *testing.T) { testCloseRecvFull(t, factory) })
}

// collector is a sink that keeps what it accepts, from any goroutine. got
// must be deep enough for everything the case sends: a sink may not block.
type collector struct {
	got    chan *wire.Message
	accept func(m *wire.Message) bool // nil accepts everything
}

func (c *collector) sink(m *wire.Message) bool {
	if c.accept != nil && !c.accept(m) {
		return false
	}
	c.got <- m
	return true
}

// wait returns the next n messages the sink accepted, in acceptance order.
func (c *collector) wait(t *testing.T, n int) []*wire.Message {
	t.Helper()
	out := make([]*wire.Message, 0, n)
	timeout := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case m := <-c.got:
			out = append(out, m)
		case <-timeout:
			t.Fatalf("sink accepted %d of %d messages", len(out), n)
		}
	}
	return out
}

func sinkNode(t *testing.T, net Network, i int) transport.SinkNode {
	t.Helper()
	sn, ok := net.Node(i).(transport.SinkNode)
	if !ok {
		t.Fatalf("node %d (%T) does not implement transport.SinkNode", i, net.Node(i))
	}
	return sn
}

// testSinkBefore: with a sink installed first, every message from another
// node is handed to it on arrival, counted, and it owns what it
// accepts: the sender recycling its own message right after Send (as the
// kernel does) must not reach the delivered copy. A node's messages to itself
// are never offered: they queue for Recv, so a serve loop that sends itself
// something from inside a handler sees it only after the handler returns.
func testSinkBefore(t *testing.T, factory Factory) {
	net := factory(t, 2)
	defer net.Stop()
	const count = 50
	c := collector{got: make(chan *wire.Message, count)}
	sinkNode(t, net, 1).SetSink(c.sink)
	m := wire.GetMessage()
	for i := 0; i < count; i++ {
		src := i % 2 // alternate remote and self sends
		m.Op, m.Src, m.Dst, m.Seq = wire.OpReadResp, int32(src), 1, uint64(i)
		m.PutWords([]int64{int64(i), int64(-i)})
		net.Node(src).Svc().Send(1, m)
	}
	wire.PutMessage(m)
	got := c.wait(t, count/2)
	for i := 0; i < count/2; i++ {
		g, ok := net.Node(1).Recv()
		if !ok {
			t.Fatalf("Recv closed after %d of %d self-sent messages", i, count/2)
		}
		got = append(got, g)
	}
	next := [2]uint64{0, 1}
	for i, g := range got {
		if want := int32(i / (count / 2)); g.Src != want {
			t.Fatalf("message %d came from node %d: the sink takes node 0's, Recv node 1's own", i, g.Src)
		}
		if g.Seq != next[g.Src] {
			t.Fatalf("sender %d: seq %d delivered, want %d", g.Src, g.Seq, next[g.Src])
		}
		next[g.Src] += 2
		if ws := g.Words(); len(ws) != 2 || ws[0] != int64(g.Seq) || ws[1] != -int64(g.Seq) {
			t.Fatalf("seq %d: delivered payload %v does not survive the sender's recycle", g.Seq, ws)
		}
		// Recv stamps what it hands the serve loop, which times a service
		// from it; what a sink takes is not stamped — most of it is only
		// routed, and a sink that serves reads the clock itself.
		if fromRecv := g.Src == 1; fromRecv != (g.RecvAt > 0) {
			t.Fatalf("seq %d from node %d: RecvAt = %d", g.Seq, g.Src, g.RecvAt)
		}
	}
	select {
	case g := <-c.got:
		t.Fatalf("sink was offered a self-sent message: %v", g)
	default:
	}
	if s := net.Node(1).Stats(); s.MsgsRecv != count || s.BytesRecv != count*uint64(got[0].WireSize()) {
		t.Fatalf("receiver stats MsgsRecv=%d BytesRecv=%d, want %d messages", s.MsgsRecv, s.BytesRecv, count)
	}
	if s := net.Node(0).Stats(); s.MsgsSent != count/2 || s.ByOp[wire.OpReadResp].Msgs != count/2 {
		t.Fatalf("sender stats MsgsSent=%d ByOp=%d, want %d", s.MsgsSent, s.ByOp[wire.OpReadResp].Msgs, count/2)
	}
}

// testSinkAfter: installation is opt-in and may follow traffic. What
// arrived first is read from Recv as on a bare node; only later arrivals
// reach the sink.
func testSinkAfter(t *testing.T, factory Factory) {
	net := factory(t, 2)
	defer net.Stop()
	for i := 0; i < 3; i++ {
		net.Node(0).App().Send(1, &wire.Message{Op: wire.OpPong, Seq: uint64(i)})
	}
	for i := 0; i < 3; i++ {
		if m, ok := net.Node(1).Recv(); !ok || m.Seq != uint64(i) {
			t.Fatalf("before install: Recv %d = %v %v", i, m, ok)
		}
	}
	c := collector{got: make(chan *wire.Message, 3)}
	sinkNode(t, net, 1).SetSink(c.sink)
	for i := 3; i < 6; i++ {
		net.Node(0).App().Send(1, &wire.Message{Op: wire.OpPong, Seq: uint64(i)})
	}
	for i, g := range c.wait(t, 3) {
		if g.Seq != uint64(3+i) {
			t.Fatalf("after install: sink message %d has seq %d", i, g.Seq)
		}
	}
}

// testSinkDecline: a declined message goes to Recv in arrival order while
// accepted ones around it are taken, with several senders calling the sink
// at once.
func testSinkDecline(t *testing.T, factory Factory) {
	const senders, each = 2, 400
	net := factory(t, senders+1)
	defer net.Stop()
	dst := senders
	c := collector{
		got:    make(chan *wire.Message, senders*each),
		accept: func(m *wire.Message) bool { return m.Op == wire.OpReadResp },
	}
	sinkNode(t, net, dst).SetSink(c.sink)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				op := wire.OpRead // declined
				if i%3 == 0 {
					op = wire.OpReadResp
				}
				net.Node(s).App().Send(dst, &wire.Message{Op: op, Src: int32(s), Dst: int32(dst), Seq: uint64(i)})
			}
		}()
	}
	declined := senders * (each - (each+2)/3)
	var next [senders]uint64
	for i := 0; i < declined; i++ {
		m, ok := net.Node(dst).Recv()
		if !ok {
			t.Fatalf("Recv closed after %d of %d declined messages", i, declined)
		}
		if m.Op != wire.OpRead {
			t.Fatalf("Recv returned %v, which the sink accepts", m)
		}
		if next[m.Src]%3 == 0 {
			next[m.Src]++
		}
		if m.Seq != next[m.Src] {
			t.Fatalf("sender %d: Recv saw seq %d, want %d", m.Src, m.Seq, next[m.Src])
		}
		next[m.Src]++
	}
	wg.Wait()
	var nextAcc [senders]uint64
	for _, g := range c.wait(t, senders*each-declined) {
		if g.Seq != nextAcc[g.Src] {
			t.Fatalf("sender %d: sink saw seq %d, want %d", g.Src, g.Seq, nextAcc[g.Src])
		}
		nextAcc[g.Src] += 3
	}
}

// testCloseRecvFull shuts a node down while its receive queue is full and a
// sender is still pushing: the sender must be released, the peer must be
// reported down, and Recv must drain what was queued — in order — and then
// report closed instead of parking.
func testCloseRecvFull(t *testing.T, factory Factory) {
	net := factory(t, 2)
	defer net.Stop()
	died := make(chan int, 4)
	net.Node(0).SetPeerDown(func(peer int) { died <- peer })
	const total = transport.DefaultDepth + 512
	queueFull := make(chan struct{})
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		m := &wire.Message{Op: wire.OpUserMsg, Src: 0, Dst: 1, Data: make([]byte, 1024)}
		for i := 0; i < total; i++ {
			if i == transport.DefaultDepth {
				close(queueFull) // the next Send finds inproc's queue full
			}
			m.Seq = uint64(i)
			net.Node(0).App().Send(1, m)
		}
	}()
	select {
	case <-queueFull:
	case <-time.After(20 * time.Second):
		t.Fatal("sender stalled before filling the receive queue")
	}
	net.Node(1).CloseRecv()
	select {
	case <-senderDone:
	case <-time.After(10 * time.Second):
		t.Fatal("sender still blocked after the peer's CloseRecv")
	}
	select {
	case p := <-died:
		if p != 1 {
			t.Fatalf("peer-down reported peer %d, want 1", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("peer death never reported to the sender")
	}
	drained := make(chan error, 1)
	go func() {
		for want := uint64(0); ; want++ {
			m, ok := net.Node(1).Recv()
			if !ok {
				drained <- nil
				return
			}
			if m.Seq != want {
				drained <- fmt.Errorf("drain: seq %d, want %d", m.Seq, want)
				return
			}
		}
	}()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv parked on a closed node")
	}
}

// RetainPayloads are the payload lengths of the send-retains-nothing case:
// frames from a bare header to 4 KiB, straddling 128 bytes of frame (inproc
// encodes a frame up to that long on its own stack and a longer one in a
// pooled buffer).
var RetainPayloads = []int{0, 8, 72, 79, 80, 81, 88, 1500, 4096}

// FillRetained makes m message i of the send-retains-nothing case: every
// header field and payload byte derived from i, the payload in a buffer the
// sender keeps (not m's scratch), so that overwriting it after Send is what
// a sender that reuses its buffers does.
func FillRetained(m *wire.Message, i int, src, dst int32) {
	m.Op, m.Flags, m.Src, m.Dst = wire.OpUserMsg, wire.FlagRetry, src, dst
	m.Tag, m.Seq, m.Addr = int32(i+1), uint64(i)<<40|7, uint64(i)*1000+3
	m.Arg1, m.Arg2 = -int64(i)-1, int64(i)<<33
	data := make([]byte, RetainPayloads[i])
	for j := range data {
		data[j] = byte(i + 3*j)
	}
	m.Data = data
}

// Scribble overwrites m's header and, in place, its payload, as a sender
// reusing m for its next message does the moment Send returns.
func Scribble(m *wire.Message) {
	m.Op, m.Flags, m.Src, m.Dst = wire.OpInvalid, 0, -1, -1
	m.Tag, m.Seq, m.Addr, m.Arg1, m.Arg2 = 0, 0, 0, 0, 0
	for j := range m.Data {
		m.Data[j] = 0xEE
	}
	m.Data = m.Data[:0]
}

// CheckRetained reports how got, the delivered copy of message i, differs
// from what FillRetained made before the send.
func CheckRetained(got *wire.Message, i int, src, dst int32) error {
	var want wire.Message
	FillRetained(&want, i, src, dst)
	if got.Op != want.Op || got.Flags != want.Flags || got.Src != want.Src || got.Dst != want.Dst ||
		got.Tag != want.Tag || got.Seq != want.Seq || got.Addr != want.Addr ||
		got.Arg1 != want.Arg1 || got.Arg2 != want.Arg2 {
		return fmt.Errorf("message %d: header delivered as %v, sent as %v", i, got, &want)
	}
	if !bytes.Equal(got.Data, want.Data) {
		return fmt.Errorf("message %d: %d-byte payload changed after the sender overwrote its own", i, len(want.Data))
	}
	return nil
}

// RunRetain checks the contract of transport.Port.Send that lets a sender
// keep its messages: Send retains nothing of m. Right after each Send the
// sender overwrites the header and payload of the one message it reuses for
// all of them, and every delivered copy must still be what was sent — on the
// Recv path and, for a SinkNode, on the sink path, for every length of
// RetainPayloads.
func RunRetain(t *testing.T, factory Factory) {
	t.Helper()
	t.Run("Recv", func(t *testing.T) {
		net := factory(t, 2)
		defer net.Stop()
		got := make(chan *wire.Message, len(RetainPayloads))
		go func() {
			for range RetainPayloads {
				m, ok := net.Node(1).Recv()
				if !ok {
					close(got)
					return
				}
				got <- m
			}
		}()
		sendRetained(net.Node(0).App())
		checkRetained(t, got)
	})
	t.Run("Sink", func(t *testing.T) {
		net := factory(t, 2)
		defer net.Stop()
		c := collector{got: make(chan *wire.Message, len(RetainPayloads))}
		sinkNode(t, net, 1).SetSink(c.sink)
		sendRetained(net.Node(0).Svc())
		checkRetained(t, c.got)
	})
}

// sendRetained sends every message of the case from node 0 to node 1 through
// pt, reusing one message and scribbling over it after each Send.
func sendRetained(pt transport.Port) {
	var m wire.Message
	for i := range RetainPayloads {
		FillRetained(&m, i, 0, 1)
		pt.Send(1, &m)
		Scribble(&m)
	}
}

// checkRetained takes the delivered copies from got, in send order.
func checkRetained(t *testing.T, got <-chan *wire.Message) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for i := range RetainPayloads {
		select {
		case m, ok := <-got:
			if !ok {
				t.Fatalf("receiver closed after %d of %d messages", i, len(RetainPayloads))
			}
			if err := CheckRetained(m, i, 0, 1); err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatalf("%d of %d messages delivered", i, len(RetainPayloads))
		}
	}
}
