// Package inproc is a loopback transport: kernels exchange encoded wire
// messages over in-process queues (transport.Inbox) with no cost model. It
// exists for fast unit/integration testing of the runtime logic, independent
// of both the simulator and real sockets.
//
// A message is encoded and decoded on the sending goroutine, which is
// therefore the receive-side delivery context: it hands the decoded message
// to the destination's transport.Inbox, which counts it, offers it to the
// destination's sink (transport.SinkNode) and queues what the sink declines
// for the destination's Recv.
package inproc

import (
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Net is an in-process cluster.
type Net struct {
	nodes []*Node
	start time.Time
}

// New creates a cluster of n nodes.
func New(n int) *Net {
	if n <= 0 {
		panic("inproc: need at least one node")
	}
	net := &Net{start: time.Now()}
	for i := 0; i < n; i++ {
		net.nodes = append(net.nodes, &Node{net: net, id: i, in: transport.NewInbox(net.now)})
	}
	return net
}

// stackFrame is the largest frame Send encodes in an array on its own
// stack: every scalar request and reply fits (a header and a few words), so
// only range transfers and other long payloads take a pooled buffer.
const stackFrame = 128

// encBuf is a pooled encoded-frame buffer for a frame longer than
// stackFrame: Send serialises into one and decodes straight back out of it
// (copying the payload into a pooled message), so the receiver sees the same
// ownership rules as over a real wire and steady-state traffic allocates
// nothing.
type encBuf struct{ b []byte }

var bufPool = sync.Pool{New: func() interface{} { return new(encBuf) }}

// N implements transport.Network.
func (n *Net) N() int { return len(n.nodes) }

// Node implements transport.Network.
func (n *Net) Node(i int) transport.Node { return n.nodes[i] }

// Stop unblocks every receiver.
func (n *Net) Stop() {
	for _, nd := range n.nodes {
		nd.CloseRecv()
	}
}

// Node is one in-process endpoint. App and Svc share a single context.
type Node struct {
	net *Net
	id  int
	in  *transport.Inbox

	mu    sync.Mutex
	stats trace.PEStats // send side; the inbox counts arrivals

	pd transport.PeerDownNotifier
}

var _ transport.SinkNode = (*Node)(nil)

// ID implements transport.Node.
func (nd *Node) ID() int { return nd.id }

// N implements transport.Node.
func (nd *Node) N() int { return len(nd.net.nodes) }

// Hostname implements transport.Node; every inproc node is its own host.
func (nd *Node) Hostname() string { return "localhost" }

// Stats implements transport.Node: live counters, the arrival counts as of
// this call.
func (nd *Node) Stats() *trace.PEStats {
	nd.mu.Lock()
	nd.stats.MsgsRecv, nd.stats.BytesRecv = nd.in.Received()
	nd.mu.Unlock()
	return &nd.stats
}

// App implements transport.Node.
func (nd *Node) App() transport.Port { return (*port)(nd) }

// Svc implements transport.Node.
func (nd *Node) Svc() transport.Port { return (*port)(nd) }

// Recv implements transport.Node.
func (nd *Node) Recv() (*wire.Message, bool) { return nd.in.Recv() }

// CloseRecv implements transport.Node.
func (nd *Node) CloseRecv() { nd.in.Close() }

// SetPeerDown implements transport.Node.
func (nd *Node) SetPeerDown(fn func(peer int)) { nd.pd.Set(fn) }

// SetSink implements transport.SinkNode.
func (nd *Node) SetSink(fn transport.Sink) { nd.in.SetSink(fn) }

// NewMailbox implements transport.Node.
func (nd *Node) NewMailbox(capacity int) transport.Mailbox {
	return transport.NewChanMailbox(capacity)
}

// port implements transport.Port for a node; computation is free here.
type port Node

// Send encodes m and decodes the frame into a pooled copy, which is what
// the destination receives: nothing of m is retained. Both nodes read the one
// Net clock, so m's SentAt is handed on as the copy's RecvAt.
func (pt *port) Send(dst int, m *wire.Message) {
	nd := (*Node)(pt)
	dec := wire.GetMessage()
	size := m.WireSize()
	var err error
	if size <= stackFrame {
		var frame [stackFrame]byte
		err = wire.DecodeInto(dec, m.Append(frame[:0]))
	} else {
		eb := bufPool.Get().(*encBuf)
		eb.b = m.Append(eb.b[:0])
		err = wire.DecodeInto(dec, eb.b)
		bufPool.Put(eb)
	}
	if err != nil {
		panic("inproc: corrupt message: " + err.Error())
	}
	dec.RecvAt = m.SentAt
	var delivered bool
	if dst == nd.id {
		delivered = nd.in.DeliverLocal(dec)
	} else {
		delivered = nd.net.nodes[dst].in.Deliver(dec)
	}
	if !delivered {
		// Peer shut down: drop, as a real network would, and declare it dead.
		wire.PutMessage(dec)
		nd.pd.Report(dst)
		return
	}
	nd.mu.Lock()
	nd.stats.MsgsSent++
	nd.stats.BytesSent += uint64(size)
	nd.stats.CountSent(m.Op, size)
	nd.mu.Unlock()
}

func (pt *port) Compute(ops float64) {}

func (pt *port) LocalAccess() {}

func (pt *port) LegacyIPC() {}

func (pt *port) Sleep(d sim.Duration) { time.Sleep(time.Duration(d) / 1000) } // compressed real sleep

func (pt *port) Now() sim.Time { return (*Node)(pt).net.now() }

// now is the cluster's clock: wall time since New.
func (n *Net) now() sim.Time { return sim.Time(time.Since(n.start)) }
