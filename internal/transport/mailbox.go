package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// ChanMailbox is the Mailbox of the real transports (inproc, tcpnet) and the
// receive queue behind their Recv (Inbox): a buffered channel with one taker and any
// number of putters. Both sides park on a plain channel operation — no
// select against a done channel on the hot path. Close is an atomic flag
// plus a nil sentinel that wakes a parked taker; the done channel is
// consulted only by a putter that found the queue full and by TakeTimeout.
//
// Contract: Put never blocks or panics after Close; Close wakes a parked
// Take with ok=false; messages queued before Close are still drained.
type ChanMailbox struct {
	ch     chan *wire.Message
	closed atomic.Bool
	done   chan struct{}
	once   sync.Once
}

var _ Mailbox = (*ChanMailbox)(nil)

// DefaultDepth is the capacity NewChanMailbox gives a mailbox that asks for
// none, and so the depth of a real transport's receive queue: deep enough
// that a putter never waits on a taker that is itself making progress.
const DefaultDepth = 1 << 14

// NewChanMailbox creates a mailbox holding up to capacity messages
// (capacity <= 0 selects DefaultDepth).
func NewChanMailbox(capacity int) *ChanMailbox {
	if capacity <= 0 {
		capacity = DefaultDepth
	}
	return &ChanMailbox{ch: make(chan *wire.Message, capacity), done: make(chan struct{})}
}

// Put implements Mailbox: offer with a closed mailbox's refusal dropped.
func (mb *ChanMailbox) Put(m *wire.Message) { mb.offer(m) }

// offer enqueues m, waiting for room if the queue is full. It reports false
// — m not enqueued, still the caller's — once the mailbox is closed.
func (mb *ChanMailbox) offer(m *wire.Message) bool {
	if mb.closed.Load() {
		return false
	}
	select {
	case mb.ch <- m:
		return true
	default:
	}
	select {
	case mb.ch <- m:
		return true
	case <-mb.done:
		return false
	}
}

// Take implements Mailbox.
func (mb *ChanMailbox) Take() (*wire.Message, bool) {
	if mb.closed.Load() {
		// The sentinel may not have fit (queue full at Close) or may already
		// be consumed: drain without parking.
		select {
		case m := <-mb.ch:
			return m, m != nil
		default:
			return nil, false
		}
	}
	m := <-mb.ch
	return m, m != nil
}

// TakeTimeout implements Mailbox. Only lossy configurations set a timeout,
// so the timer select stays off the default hot path.
func (mb *ChanMailbox) TakeTimeout(d sim.Duration) (*wire.Message, bool, bool) {
	if mb.closed.Load() {
		m, ok := mb.Take()
		return m, ok, false
	}
	t := time.NewTimer(time.Duration(d))
	defer t.Stop()
	select {
	case m := <-mb.ch:
		return m, m != nil, false
	case <-t.C:
		return nil, false, true
	}
}

// Close implements Mailbox (idempotent).
func (mb *ChanMailbox) Close() {
	mb.once.Do(func() {
		mb.closed.Store(true)
		close(mb.done)
		select {
		case mb.ch <- nil:
		default:
			// Full: nobody is parked in Take, and the flag ends the drain.
		}
	})
}
