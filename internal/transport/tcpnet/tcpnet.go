// Package tcpnet is the real-network transport: DSE kernels exchange
// length-prefixed wire messages over TCP sockets from the standard library.
// It demonstrates the paper's portability claim — the identical parallel
// application and runtime run over an actual protocol stack, between
// separate OS processes if desired (see cmd/dsenode).
//
// Each peer connection has one reader goroutine, which owns the
// connection's buffered reader and is the receive-side delivery context: it
// decodes a frame and hands the message to the node's transport.Inbox, which
// counts it, offers it to the node's sink (transport.SinkNode) and queues
// what the sink declines for Recv.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// handshake deadline for assembling the full mesh. A variable so failure
// tests can shorten it.
var meshTimeout = 10 * time.Second

// listen is the listener factory; a variable so tests can inject failures.
var listen = net.Listen

// Net is a TCP cluster whose nodes all live in this process (each with its
// own listener and sockets). For multi-process clusters use Open directly.
type Net struct {
	nodes []*Node
}

// NewLocal builds an n-node cluster on loopback TCP.
func NewLocal(n int) (*Net, error) {
	if n <= 0 {
		return nil, errors.New("tcpnet: need at least one node")
	}
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, prev := range lns[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("tcpnet: listen: %w", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*Node, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			nodes[i], errs[i] = open(i, addrs, lns[i])
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		// Partial failure: tear down every node that did come up, and close
		// the listener of every slot that has no node to own it (open closes
		// its own listener on its error paths; net.Listener.Close is
		// idempotent, so double-closing is harmless).
		for _, nd := range nodes {
			if nd != nil {
				nd.Kill()
			}
		}
		for i, ln := range lns {
			if nodes[i] == nil {
				ln.Close()
			}
		}
		return nil, err
	}
	return &Net{nodes: nodes}, nil
}

// Open joins a (possibly multi-process) cluster as node id. addrs lists the
// listen address of every node, in rank order; Open listens on addrs[id],
// dials every lower rank, accepts every higher rank, and returns once the
// full mesh is up.
func Open(id int, addrs []string) (*Node, error) {
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addrs[id], err)
	}
	return open(id, addrs, ln)
}

// open assembles node id's half of the mesh.
func open(id int, addrs []string, ln net.Listener) (*Node, error) {
	n := len(addrs)
	nd := newNode(id, n, ln)
	expected := n - 1
	ready := make(chan error, n)
	// Snapshot the deadline here: goroutines below may outlive open (a test
	// restoring the meshTimeout hook must not race with them).
	timeout := meshTimeout
	// Accept higher ranks: the loop runs until the node dies, registering
	// whoever says hello.
	go nd.acceptLoop(ln, ready)
	// Dial lower ranks, retrying while they come up.
	for j := 0; j < id; j++ {
		j := j
		go func() {
			deadline := time.Now().Add(timeout)
			for {
				select {
				case <-nd.done:
					ready <- fmt.Errorf("tcpnet: node %d dial %d: node killed", id, j)
					return
				default:
				}
				conn, err := net.Dial("tcp", addrs[j])
				if err != nil {
					if time.Now().After(deadline) {
						ready <- fmt.Errorf("tcpnet: node %d dial %d: %w", id, j, err)
						return
					}
					time.Sleep(20 * time.Millisecond)
					continue
				}
				if err := nd.writeHello(conn); err != nil {
					ready <- err
					return
				}
				nd.register(j, conn)
				ready <- nil
				return
			}
		}()
	}
	for i := 0; i < expected; i++ {
		select {
		case err := <-ready:
			if err != nil {
				nd.Kill()
				return nil, err
			}
		case <-time.After(timeout):
			nd.Kill()
			return nil, fmt.Errorf("tcpnet: node %d mesh timeout", id)
		}
	}
	return nd, nil
}

// acceptLoop serves the node's listener for its whole life: mesh-forming
// peers land here first (signalled on ready, which open consumes), and
// hellos arriving after the mesh is up register silently (the buffered
// ready send is dropped).
func (nd *Node) acceptLoop(ln net.Listener, ready chan<- error) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-nd.done:
			default:
				select {
				case ready <- fmt.Errorf("tcpnet: node %d accept: %w", nd.id, err):
				default:
				}
			}
			return
		}
		go func(conn net.Conn) {
			peer, err := nd.readHello(conn)
			if err != nil {
				conn.Close()
				select {
				case ready <- err:
				default:
				}
				return
			}
			nd.register(peer, conn)
			select {
			case ready <- nil:
			default:
			}
		}(conn)
	}
}

// N implements transport.Network.
func (net *Net) N() int { return len(net.nodes) }

// Node implements transport.Network.
func (net *Net) Node(i int) transport.Node { return net.nodes[i] }

// TCPNode returns the concrete node (for Kill in failure tests).
func (net *Net) TCPNode(i int) *Node { return net.nodes[i] }

// Stop shuts down every node.
func (net *Net) Stop() {
	for _, nd := range net.nodes {
		nd.Kill()
	}
}

// Node is one TCP endpoint.
type Node struct {
	id    int
	n     int
	ln    net.Listener
	conns []net.Conn
	wmu   []sync.Mutex
	in    *transport.Inbox
	done  chan struct{} // closed by Kill: stops mesh assembly and the accept loop
	start time.Time

	closeOnce sync.Once
	mu        sync.Mutex
	stats     trace.PEStats // send side; the inbox counts arrivals
	err       error

	pd transport.PeerDownNotifier
}

var _ transport.SinkNode = (*Node)(nil)

func newNode(id, n int, ln net.Listener) *Node {
	nd := &Node{
		id:    id,
		n:     n,
		ln:    ln,
		conns: make([]net.Conn, n),
		wmu:   make([]sync.Mutex, n),
		done:  make(chan struct{}),
		start: time.Now(),
	}
	nd.in = transport.NewInbox((*port)(nd).Now)
	return nd
}

func (nd *Node) writeHello(conn net.Conn) error {
	hello := &wire.Message{Op: wire.OpHello, Src: int32(nd.id), Arg1: 1}
	return writeFrame(conn, hello)
}

func (nd *Node) readHello(conn net.Conn) (int, error) {
	m, err := readFrame(conn)
	if err != nil {
		return 0, fmt.Errorf("tcpnet: handshake: %w", err)
	}
	if m.Op != wire.OpHello {
		return 0, fmt.Errorf("tcpnet: unexpected handshake op %v", m.Op)
	}
	peer := int(m.Src)
	wire.PutMessage(m)
	if peer < 0 || peer >= nd.n {
		return 0, fmt.Errorf("tcpnet: hello from out-of-range rank %d", peer)
	}
	return peer, nil
}

func (nd *Node) register(peer int, conn net.Conn) {
	nd.wmu[peer].Lock()
	nd.conns[peer] = conn
	nd.wmu[peer].Unlock()
	go nd.reader(peer, conn)
}

// readBufSize is the per-connection read buffer: large enough that the size
// prefix and the frame behind it — a scalar op, or a block of up to ~2k words
// — arrive in one read(2); larger frames are read straight into their own
// buffer.
const readBufSize = 16 << 10

// reader is peer's receive-side delivery context: it owns the connection's
// read buffer, decodes each frame and delivers it to the inbox.
func (nd *Node) reader(peer int, conn net.Conn) {
	br := bufio.NewReaderSize(conn, readBufSize)
	for {
		m, err := readFrame(br)
		if err != nil {
			// Peer gone (EOF or reset); Recv keeps serving other peers. If we
			// are not ourselves shutting down, declare the peer dead so the
			// kernel can fail its pending requests immediately instead of
			// waiting out the request timeout.
			select {
			case <-nd.done:
			default:
				nd.pd.Report(peer)
			}
			return
		}
		if !nd.in.Deliver(m) {
			wire.PutMessage(m)
			return
		}
	}
}

// framePool recycles encode/read buffers across frames; steady-state
// traffic neither allocates frames nor pays a second syscall for the
// 4-byte size prefix (prefix and frame go out in one Write).
var framePool = sync.Pool{New: func() interface{} { return new([]byte) }}

func writeFrame(w io.Writer, m *wire.Message) error {
	bp := framePool.Get().(*[]byte)
	buf := append((*bp)[:0], 0, 0, 0, 0)
	buf = m.Append(buf)
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	_, err := w.Write(buf)
	*bp = buf
	framePool.Put(bp)
	return err
}

func readFrame(r io.Reader) (*wire.Message, error) {
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint32(pre[:])
	if size < wire.HeaderSize || size > wire.HeaderSize+wire.MaxDataLen {
		return nil, fmt.Errorf("tcpnet: bad frame size %d", size)
	}
	bp := framePool.Get().(*[]byte)
	buf := *bp
	if cap(buf) < int(size) {
		buf = make([]byte, size)
	} else {
		buf = buf[:size]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		*bp = buf
		framePool.Put(bp)
		return nil, err
	}
	m := wire.GetMessage()
	err := wire.DecodeInto(m, buf)
	*bp = buf
	framePool.Put(bp)
	if err != nil {
		wire.PutMessage(m)
		return nil, err
	}
	return m, nil
}

// ID implements transport.Node.
func (nd *Node) ID() int { return nd.id }

// N implements transport.Node.
func (nd *Node) N() int { return nd.n }

// Hostname implements transport.Node.
func (nd *Node) Hostname() string { return nd.ln.Addr().String() }

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
func (nd *Node) CloseRecv() { nd.Kill() }

// SetPeerDown implements transport.Node.
func (nd *Node) SetPeerDown(fn func(peer int)) { nd.pd.Set(fn) }

// SetSink implements transport.SinkNode. Readers may already be delivering:
// register starts them before any kernel exists.
func (nd *Node) SetSink(fn transport.Sink) { nd.in.SetSink(fn) }

// Kill tears the node down: listener, sockets and receivers. Used both for
// orderly shutdown and for failure injection in tests.
func (nd *Node) Kill() {
	nd.closeOnce.Do(func() {
		close(nd.done)
		nd.in.Close()
		if nd.ln != nil {
			nd.ln.Close()
		}
		for i := range nd.conns {
			nd.wmu[i].Lock()
			if nd.conns[i] != nil {
				nd.conns[i].Close()
			}
			nd.wmu[i].Unlock()
		}
	})
}

// Err reports the first send failure, if any.
func (nd *Node) Err() error {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.err
}

// NewMailbox implements transport.Node.
func (nd *Node) NewMailbox(capacity int) transport.Mailbox {
	return transport.NewChanMailbox(capacity)
}

// port implements transport.Port; App and Svc share it.
type port Node

func (pt *port) Send(dst int, m *wire.Message) {
	nd := (*Node)(pt)
	if dst == nd.id {
		// Own-node message: deliver through an encode/decode round-trip so
		// the receiver sees the same ownership rules as for remote messages.
		bp := framePool.Get().(*[]byte)
		*bp = m.Append((*bp)[:0])
		dec := wire.GetMessage()
		err := wire.DecodeInto(dec, *bp)
		framePool.Put(bp)
		if err != nil {
			panic("tcpnet: self-send encode round-trip failed: " + err.Error())
		}
		if !nd.in.DeliverLocal(dec) {
			wire.PutMessage(dec)
		}
		return
	}
	nd.wmu[dst].Lock()
	conn := nd.conns[dst]
	var err error
	if conn == nil {
		err = fmt.Errorf("tcpnet: no connection to node %d", dst)
	} else {
		err = writeFrame(conn, m)
	}
	nd.wmu[dst].Unlock()
	nd.mu.Lock()
	if err != nil {
		if nd.err == nil {
			nd.err = err
		}
	} else {
		nd.stats.MsgsSent++
		nd.stats.BytesSent += uint64(m.WireSize())
		nd.stats.CountSent(m.Op, m.WireSize())
	}
	nd.mu.Unlock()
	if err != nil {
		select {
		case <-nd.done:
		default:
			nd.pd.Report(dst)
		}
	}
}

func (pt *port) Compute(ops float64) {}

func (pt *port) LocalAccess() {}

func (pt *port) LegacyIPC() {}

func (pt *port) Sleep(d sim.Duration) { time.Sleep(time.Duration(d)) }

func (pt *port) Now() sim.Time { return sim.Time(time.Since((*Node)(pt).start)) }
