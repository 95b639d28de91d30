package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// ChanMailbox is the Mailbox of the real transports (inproc, tcpnet) and the
// receive queue behind their Recv (Inbox): a bounded FIFO with one taker and
// any number of putters.
//
// Memory contract: capacity is a bound, not an allocation. The queue is a
// power-of-two ring that starts at ringStart slots and doubles when it is
// full, up to the capacity, so a mailbox costs what it has held at once — a
// few hundred bytes for one that is emptied as fast as it fills, which is
// nearly all of them — and keeps what it grew to.
//
// Who blocks where: a putter blocks only at capacity, until the taker makes
// room or the mailbox closes; the taker blocks only on an empty open mailbox.
// A taker that finds the ring empty parks on wake, and the next putter hands
// its message over through that channel — one channel operation, no lock:
// the same hand-off a bare channel makes to a parked receiver. The ring is
// empty for as long as the taker is parked, so the hand-off keeps the order.
//
// Contract: Put never blocks or panics after Close; Close wakes a parked
// Take with ok=false; messages queued before Close are still drained, in
// order; messages of one putter are taken in the order it put them.
type ChanMailbox struct {
	mu       sync.Mutex
	ring     []*wire.Message // len is a power of two; guarded by mu
	head, n  int             // oldest slot and occupancy; guarded by mu
	capacity int
	// parked is set by the taker, under mu and with the ring empty, before it
	// waits on wake. Whoever clears it (claim) owns the one send that wait
	// receives: a putter its message, Close a nil; a TakeTimeout that clears
	// it itself leaves with nothing owed.
	parked atomic.Bool
	wake   chan *wire.Message // capacity 1: the owner of a cleared parked never blocks
	closed atomic.Bool        // written under mu
	// notFull is where putters wait at capacity; waiting counts them, so that
	// a Take signals one putter per slot it frees and pays nothing otherwise.
	notFull sync.Cond
	waiting int
}

var _ Mailbox = (*ChanMailbox)(nil)

// DefaultDepth is the capacity NewChanMailbox gives a mailbox that asks for
// none, and so the depth of a real transport's receive queue: deep enough
// that a putter never waits on a taker that is itself making progress.
const DefaultDepth = 1 << 14

// ringStart is the ring a new mailbox allocates.
const ringStart = 8

// NewChanMailbox creates a mailbox holding up to capacity messages
// (capacity <= 0 selects DefaultDepth).
func NewChanMailbox(capacity int) *ChanMailbox {
	if capacity <= 0 {
		capacity = DefaultDepth
	}
	mb := &ChanMailbox{
		ring:     make([]*wire.Message, ringStart),
		capacity: capacity,
		wake:     make(chan *wire.Message, 1),
	}
	mb.notFull.L = &mb.mu
	return mb
}

// Put implements Mailbox: offer with a closed mailbox's refusal dropped.
func (mb *ChanMailbox) Put(m *wire.Message) { mb.offer(m) }

// offer enqueues m, waiting for room if the queue is full. It reports false
// — m not enqueued, still the caller's — once the mailbox is closed.
func (mb *ChanMailbox) offer(m *wire.Message) bool {
	if mb.closed.Load() {
		return false
	}
	if mb.claim() {
		mb.wake <- m
		return true
	}
	mb.mu.Lock()
	for {
		if mb.closed.Load() {
			mb.mu.Unlock()
			return false
		}
		// The taker may have parked since the check above, or emptied the
		// ring and parked while this putter waited for room.
		if mb.claim() {
			mb.mu.Unlock()
			mb.wake <- m
			return true
		}
		if mb.n < mb.capacity {
			mb.push(m)
			mb.mu.Unlock()
			return true
		}
		mb.waiting++
		mb.notFull.Wait()
		mb.waiting--
	}
}

// claim clears parked if it is set and reports whether the caller did so, and
// therefore owes the parked taker its one send. The load in front keeps the
// common miss — the taker is not parked — from costing a locked instruction.
func (mb *ChanMailbox) claim() bool {
	return mb.parked.Load() && mb.parked.CompareAndSwap(true, false)
}

// push appends m, doubling a full ring. The caller holds mu and has checked
// the capacity.
func (mb *ChanMailbox) push(m *wire.Message) {
	if mb.n == len(mb.ring) {
		grown := make([]*wire.Message, 2*len(mb.ring))
		k := copy(grown, mb.ring[mb.head:])
		copy(grown[k:], mb.ring[:mb.head])
		mb.ring, mb.head = grown, 0
	}
	mb.ring[(mb.head+mb.n)&(len(mb.ring)-1)] = m
	mb.n++
}

// take is the taker's first step: the oldest queued message, or else closed
// reported, or else the taker marked parked, which obliges the caller to
// wait on wake. It leaves mu unlocked.
func (mb *ChanMailbox) take() (m *wire.Message, closed bool) {
	mb.mu.Lock()
	if mb.n > 0 {
		m = mb.ring[mb.head]
		mb.ring[mb.head] = nil
		mb.head = (mb.head + 1) & (len(mb.ring) - 1)
		mb.n--
		if mb.waiting > 0 {
			mb.notFull.Signal()
		}
	} else if closed = mb.closed.Load(); !closed {
		mb.parked.Store(true)
	}
	mb.mu.Unlock()
	return m, closed
}

// Take implements Mailbox.
func (mb *ChanMailbox) Take() (*wire.Message, bool) {
	m, closed := mb.take()
	if m == nil && !closed {
		m = <-mb.wake
	}
	return m, m != nil
}

// TakeTimeout implements Mailbox. Only lossy configurations set a timeout,
// and the timer exists only while the taker is parked.
func (mb *ChanMailbox) TakeTimeout(d sim.Duration) (*wire.Message, bool, bool) {
	m, closed := mb.take()
	if m != nil || closed {
		return m, m != nil, false
	}
	t := time.NewTimer(time.Duration(d))
	defer t.Stop()
	select {
	case m = <-mb.wake:
	case <-t.C:
		if mb.claim() {
			return nil, false, true
		}
		// A putter or Close claimed this wait as the timer fired: what it
		// owes is on its way, and is delivered rather than lost.
		m = <-mb.wake
	}
	return m, m != nil, false
}

// Close implements Mailbox (idempotent).
func (mb *ChanMailbox) Close() {
	mb.mu.Lock()
	first := !mb.closed.Swap(true)
	mb.mu.Unlock()
	if !first {
		return
	}
	mb.notFull.Broadcast()
	if mb.claim() {
		mb.wake <- nil
	}
}
