package transport

import (
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/wire"
)

// Inbox is the receive side of a real transport's node (inproc, tcpnet),
// written once: the queue behind Recv, the opt-in sink in front of it and
// the arrival counters. Deliver runs on whichever context holds the decoded
// message — several at once — so the counters are atomics, not fields of the
// node's lock-guarded stats.
type Inbox struct {
	rx    *ChanMailbox
	now   func() sim.Time
	sink  atomic.Pointer[Sink]
	msgs  atomic.Uint64
	bytes atomic.Uint64
}

// NewInbox creates a node's receive side; now is the node's clock.
func NewInbox(now func() sim.Time) *Inbox {
	return &Inbox{rx: NewChanMailbox(0), now: now}
}

// SetSink implements SinkNode.SetSink. Deliveries may already be running,
// hence the atomic store.
func (in *Inbox) SetSink(fn Sink) { in.sink.Store(&fn) }

// Deliver takes delivery of a message from another node: counted and offered
// to the sink, queued for Recv if there is none or it declines. It reports
// false, m still the caller's, when the node has shut down. Deliver stamps
// nothing: RecvAt exists to time a service, and most of what a sink takes
// (replies, grants) is never serviced. A message reaches the sink with the
// RecvAt its transport gave it — inproc hands on the sender's SentAt, the
// request engine's stamp taken just before the send — and a sink that starts
// a service on a message without one reads the clock itself.
func (in *Inbox) Deliver(m *wire.Message) bool {
	if in.rx.closed.Load() {
		return false
	}
	in.count(m)
	if sink := in.sink.Load(); sink != nil && (*sink)(m) {
		return true
	}
	return in.rx.offer(m)
}

// DeliverLocal takes delivery of a node's message to itself. It is never
// offered to the sink: a kernel's serve loop sends to its own node from inside
// a handler (kernel 0 releasing a barrier to every waiter, its own
// application among them), and the local wake-up must not overtake what that
// handler has yet to send — once released, the application may shut the node
// down. Queued, it is routed by the serve loop after the handler returns.
func (in *Inbox) DeliverLocal(m *wire.Message) bool {
	if in.rx.closed.Load() {
		return false
	}
	in.count(m)
	return in.rx.offer(m)
}

// count runs before m is handed on: afterwards it is the receiver's.
func (in *Inbox) count(m *wire.Message) {
	in.msgs.Add(1)
	in.bytes.Add(uint64(m.WireSize()))
}

// Recv implements Node.Recv. The stamp taken here, when the serve loop takes
// the message up, is the one service times are measured from.
func (in *Inbox) Recv() (*wire.Message, bool) {
	m, ok := in.rx.Take()
	if ok {
		m.RecvAt = in.now()
	}
	return m, ok
}

// Close implements Node.CloseRecv.
func (in *Inbox) Close() { in.rx.Close() }

// Received reports the arrival counters (MsgsRecv, BytesRecv).
func (in *Inbox) Received() (msgs, bytes uint64) {
	return in.msgs.Load(), in.bytes.Load()
}
