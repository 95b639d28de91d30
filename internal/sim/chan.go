package sim

import "slices"

// Chan is a simulated channel carrying values of type T between processes.
// Semantics mirror Go channels — FIFO delivery, optional buffering, blocking
// send when full and blocking receive when empty — except that transfers are
// instantaneous in virtual time. Network latency is modelled separately (by
// the Ethernet bus), not by the channel.
//
// Chan methods must be called from process context (they take the calling
// Proc), with the exception of Len and Close-from-event usage noted below.
type Chan[T any] struct {
	eng    *Engine
	buf    Queue[T]
	cap    int
	sendq  Queue[*chanWaiter[T]]
	recvq  Queue[*chanWaiter[T]]
	free   []*chanWaiter[T] // waiters of completed Send/Recv calls, for reuse
	closed bool
}

type chanWaiter[T any] struct {
	p     *Proc
	val   T
	ok    bool
	ready bool
}

// Queue is a FIFO that keeps its backing array: draining it rewinds it, and
// it slides down instead of growing once half the array is spent, so a queue
// in steady state allocates nothing. The zero value is an empty queue.
type Queue[E any] struct {
	s    []E
	head int
}

// Len reports the number of queued values.
func (q *Queue[E]) Len() int { return len(q.s) - q.head }

// Push appends v.
func (q *Queue[E]) Push(v E) {
	if len(q.s) == cap(q.s) && q.head > 0 && 2*q.head >= len(q.s) {
		n := copy(q.s, q.s[q.head:])
		clear(q.s[n:])
		q.s, q.head = q.s[:n], 0
	}
	q.s = append(q.s, v)
}

// Pop removes and returns the oldest value; the queue must not be empty.
func (q *Queue[E]) Pop() E {
	v := q.s[q.head]
	var zero E
	q.s[q.head] = zero
	if q.head++; q.head == len(q.s) {
		q.s, q.head = q.s[:0], 0
	}
	return v
}

// wait parks p on q until a peer marks its waiter ready, and returns what the
// peer left in it. The waiter goes back to the free list: once ready, no
// queue refers to it any more.
func (c *Chan[T]) wait(p *Proc, q *Queue[*chanWaiter[T]], v T) (T, bool) {
	var w *chanWaiter[T]
	if n := len(c.free); n > 0 {
		w, c.free = c.free[n-1], c.free[:n-1]
	} else {
		w = new(chanWaiter[T])
	}
	*w = chanWaiter[T]{p: p, val: v}
	q.Push(w)
	for !w.ready {
		p.Park()
	}
	v, ok := w.val, w.ok
	*w = chanWaiter[T]{}
	c.free = append(c.free, w)
	return v, ok
}

// wake completes w with (v, ok) and schedules its process.
func (w *chanWaiter[T]) wake(v T, ok bool) {
	w.val, w.ok, w.ready = v, ok, true
	w.p.Unpark()
}

// NewChan returns a channel with the given buffer capacity (0 = rendezvous).
func NewChan[T any](e *Engine, capacity int) *Chan[T] {
	if capacity < 0 {
		capacity = 0
	}
	return &Chan[T]{eng: e, cap: capacity}
}

// Len reports the number of buffered values.
func (c *Chan[T]) Len() int { return c.buf.Len() }

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

// Send delivers v, blocking p while the buffer is full (or, for an
// unbuffered channel, until a receiver arrives). Send on a closed channel
// panics, as with native channels.
func (c *Chan[T]) Send(p *Proc, v T) {
	if c.closed {
		panic("sim: send on closed Chan")
	}
	if c.TrySend(v) {
		return
	}
	// Block until a receiver takes our value.
	if _, ok := c.wait(p, &c.sendq, v); c.closed && !ok {
		panic("sim: Chan closed while send in flight")
	}
}

// TrySend delivers v without blocking; it reports whether delivery happened.
// Unlike Send, trying to send on a closed channel is not a programming
// error: it reports false, so fire-and-forget deliveries (frames to a dead
// station, mailbox puts racing a shutdown) degrade instead of panicking.
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed {
		return false
	}
	// Direct handoff to a waiting receiver.
	if c.recvq.Len() > 0 {
		c.recvq.Pop().wake(v, true)
		return true
	}
	if c.buf.Len() < c.cap {
		c.buf.Push(v)
		return true
	}
	return false
}

// Recv returns the next value. ok is false only if the channel is closed and
// drained, mirroring the native comma-ok receive.
func (c *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	if v, ok, got := c.tryRecvLocked(); got {
		return v, ok
	}
	var zero T
	return c.wait(p, &c.recvq, zero)
}

// RecvTimeout is Recv with a deadline: if no value arrives within d, it
// returns ok=false with timedOut=true. A close also wakes the receiver
// (ok=false, timedOut=false).
func (c *Chan[T]) RecvTimeout(p *Proc, d Duration) (v T, ok bool, timedOut bool) {
	if v, ok, got := c.tryRecvLocked(); got {
		return v, ok, false
	}
	// Not from the free list: the timer below refers to w after we return.
	w := &chanWaiter[T]{p: p}
	c.recvq.Push(w)
	fired := false
	c.eng.After(d, func() {
		if w.ready {
			return
		}
		fired = true
		c.removeRecvWaiter(w)
		var zero T
		w.wake(zero, false)
	})
	for !w.ready {
		p.Park()
	}
	return w.val, w.ok, fired
}

// TryRecv returns a buffered or immediately-available value without blocking.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	v, ok, got := c.tryRecvLocked()
	if !got {
		var zero T
		return zero, false
	}
	return v, ok
}

// tryRecvLocked pops a value if one is available now. got=false means the
// caller must block; ok=false with got=true means closed-and-drained.
func (c *Chan[T]) tryRecvLocked() (v T, ok bool, got bool) {
	if c.buf.Len() > 0 {
		v = c.buf.Pop()
		// A blocked sender can now slot its value into the freed space.
		if c.sendq.Len() > 0 {
			s := c.sendq.Pop()
			c.buf.Push(s.val)
			s.wake(s.val, true)
		}
		return v, true, true
	}
	if c.sendq.Len() > 0 { // unbuffered rendezvous
		s := c.sendq.Pop()
		v = s.val
		s.wake(v, true)
		return v, true, true
	}
	// Closed and drained, or the caller must block.
	return v, false, c.closed
}

func (c *Chan[T]) removeRecvWaiter(w *chanWaiter[T]) {
	q := &c.recvq
	for i := q.head; i < len(q.s); i++ {
		if q.s[i] == w {
			q.s = slices.Delete(q.s, i, i+1)
			return
		}
	}
}

// Close marks the channel closed and wakes all blocked receivers with
// ok=false. Close may be called from process or event context. Closing with
// senders blocked is a programming error and panics at the sender.
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	var zero T
	for c.recvq.Len() > 0 {
		c.recvq.Pop().wake(zero, false)
	}
}
