// Package transport abstracts how DSE kernels exchange wire messages.
//
// The paper's reorganised DSE "eliminates dependency on a specific
// communication protocol"; this package is that seam. Three implementations
// exist:
//
//   - simnet:  over the simulated CSMA/CD Ethernet with per-platform OS
//     cost models (used for all paper experiments),
//   - inproc:  direct in-process queues (fast unit testing),
//   - tcpnet:  real TCP sockets via the standard library (the portability
//     demonstration: the same application binary runs over a real
//     protocol stack).
//
// Each cluster endpoint is a Node with two execution contexts: the App port
// (the DSE process running user code) and the Svc port (the DSE kernel
// service loop, the paper's "parallel processing mechanism" that fields
// requests from other nodes). On the simulated transport the two contexts
// are distinct cooperative processes, mirroring the asynchronous-I/O
// interleaving of kernel and process inside one UNIX process.
//
// Delivery contexts and ordering. A message reaches the kernel one of two
// ways. Recv hands it to the Svc context (the serve loop) in per-sender
// arrival order. A node that implements SinkNode additionally offers every
// arriving message to an installed Sink first, on the context that already
// holds the decoded message — the sending goroutine on inproc, the per-peer
// reader goroutine on tcpnet — and only what the sink declines goes on to
// Recv. The kernel's sink takes replies and synchronisation grants straight
// to the mailbox the application is parked on, and on inproc serves an
// application's global-memory request on the spot, so such a message may
// overtake an earlier message of another kind from the same sender that is
// still queued for Recv. Per-sender FIFO therefore holds among the messages
// Recv returns and among the messages a sink accepts, not across the two;
// simnet has no sink and keeps one order (DESIGN.md §17). A node's messages
// to itself are never offered to its sink: they queue for Recv, so what a
// serve loop sends its own node from inside a handler is routed only after
// that handler has returned (Inbox.DeliverLocal). Only inproc's node offers
// them to a local sink first (Inbox.SetLocalSink), whose owner takes only
// what it has ordered against the rest of its sends.
//
// Queues and memory. Every queue of the real transports — the receive queue
// behind Recv and each mailbox NewMailbox makes — is one type, ChanMailbox: a
// bounded FIFO whose capacity (DefaultDepth unless the caller names one) is
// the point at which a putter blocks, not an allocation. Its storage follows
// its occupancy, so a kernel's handful of queues cost a few hundred bytes
// each until something actually piles up in one; a putter blocks only at
// capacity and never after Close, the one taker only on an empty open queue.
// simnet's mailbox is a sim.Chan, which behaves the same way.
package transport

import (
	"sort"
	"sync"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Port is an execution context bound to one node: everything a running
// piece of DSE code may do that costs (virtual) time.
type Port interface {
	// Send transmits m to kernel dst, charging send-side overhead to the
	// caller and blocking until the message has left the node.
	//
	// Send retains nothing of m: what is delivered is a copy made before Send
	// returns, so the caller may recycle m, or overwrite its header and
	// payload for the next message, the moment Send is back.
	//
	// Concurrency: on the real transports (inproc, tcpnet) Send on the Svc
	// port is safe from multiple goroutines concurrently — on inproc every
	// requester serves its own GM request and replies through the home's
	// Svc port, in parallel with the home's serve loop. On simnet every port
	// call must come from the port's own cooperative process.
	Send(dst int, m *wire.Message)
	// Compute charges the cost of ops application operations.
	Compute(ops float64)
	// Sleep idles the context for d.
	Sleep(d sim.Duration)
	// LocalAccess charges the cost of a library-level access to a global
	// memory word homed at this node (a few microseconds of virtual time
	// on the simulated transport; free on real transports). Charging it
	// also guarantees that busy-wait loops over local words advance
	// virtual time.
	LocalAccess()
	// LegacyIPC charges one application-to-kernel IPC round trip of the
	// paper's *old* DSE organisation (kernel and process as separate UNIX
	// processes). The reorganised runtime never calls it; core's Legacy
	// mode uses it to reproduce the old-vs-new comparison.
	LegacyIPC()
	// Now is the context's clock (virtual time on simnet, elapsed wall
	// time on real transports).
	Now() sim.Time
}

// Mailbox is a queue the kernel service uses to hand messages to code
// blocked in the App context.
type Mailbox interface {
	// Put enqueues m; callable from the Svc context. It blocks only when the
	// mailbox holds its full capacity — mailboxes are bounded amply, so that
	// a putter never waits on a taker that is making progress — and never
	// once the mailbox is closed.
	Put(m *wire.Message)
	// Take blocks the App context until a message arrives. ok is false if
	// the mailbox was closed.
	Take() (*wire.Message, bool)
	// TakeTimeout is Take with a deadline.
	TakeTimeout(d sim.Duration) (m *wire.Message, ok bool, timedOut bool)
	// Close wakes blocked takers with ok=false.
	Close()
}

// Node is one cluster endpoint (one DSE kernel's view of the network).
type Node interface {
	ID() int
	N() int
	// Hostname names the physical machine hosting this kernel; co-located
	// kernels in a virtual cluster share it.
	Hostname() string
	// App is the DSE-process context, Svc the DSE-kernel context.
	App() Port
	Svc() Port
	// Recv blocks the Svc context until a message arrives; ok is false
	// once the node is shut down. Receive-side overhead is charged here.
	Recv() (m *wire.Message, ok bool)
	// CloseRecv unblocks Recv with ok=false (idempotent).
	CloseRecv()
	// NewMailbox creates a reply queue usable between this node's contexts.
	NewMailbox(capacity int) Mailbox
	// Stats exposes this node's accumulating counters. The pointer is to
	// the node's live struct on every transport: read it while the node is
	// quiescent, and call again rather than holding it — the real transports
	// count arrivals on their delivering contexts and fold them in here.
	Stats() *trace.PEStats
	// SetPeerDown registers the peer-failure callback: the transport calls
	// fn(peer) at most once per peer it declares dead (tcpnet: a broken
	// connection; simnet: a run of consecutive undelivered frames; inproc:
	// a send to a stopped node). Peers already declared dead before
	// registration are replayed into fn immediately, so a kernel built
	// after a failure still learns about it. fn may be invoked from any
	// goroutine or context and must not block.
	SetPeerDown(fn func(peer int))
}

// Sink receives a message on the transport's delivering context. It returns
// true to take ownership of m (the transport must not touch it again) and
// false to decline, leaving m to be queued for Recv. It must not block and
// is called with no transport lock held, possibly from several goroutines
// at once.
type Sink func(m *wire.Message) bool

// SinkNode is implemented by nodes that can deliver on the receiving
// context (inproc, tcpnet; both through Inbox). Installation is opt-in and
// may race with traffic: messages arriving before SetSink, like declined
// ones and the node's own messages to itself, go to Recv, and a node without
// a sink behaves exactly as a plain Node. Accepted messages are counted
// (MsgsRecv/BytesRecv) like received ones but not stamped: RecvAt is the
// start of a service, which Recv stamps for the serve loop. What a sink takes
// carries only what the sending transport handed on (inproc: the sender's
// SentAt), and a sink that serves a message with no stamp reads the clock
// itself.
type SinkNode interface {
	Node
	SetSink(fn Sink)
}

// Network is a constructed cluster of nodes sharing a medium.
type Network interface {
	N() int
	Node(i int) Node
}

// PeerDownNotifier implements the SetPeerDown contract shared by every
// transport: at-most-once reporting per peer, and replay of peers that went
// down before the callback was registered. The zero value is ready to use.
type PeerDownNotifier struct {
	mu   sync.Mutex
	fn   func(peer int)
	down map[int]bool
}

// Set registers fn and immediately replays every already-recorded dead peer
// into it (in ascending peer order, for determinism).
func (n *PeerDownNotifier) Set(fn func(peer int)) {
	n.mu.Lock()
	n.fn = fn
	replay := make([]int, 0, len(n.down))
	for p := range n.down {
		replay = append(replay, p)
	}
	n.mu.Unlock()
	sort.Ints(replay)
	for _, p := range replay {
		fn(p)
	}
}

// Report records peer as dead and invokes the callback unless this peer was
// already reported. Safe from any goroutine.
func (n *PeerDownNotifier) Report(peer int) {
	n.mu.Lock()
	if n.down == nil {
		n.down = make(map[int]bool)
	}
	if n.down[peer] {
		n.mu.Unlock()
		return
	}
	n.down[peer] = true
	fn := n.fn
	n.mu.Unlock()
	if fn != nil {
		fn(peer)
	}
}
