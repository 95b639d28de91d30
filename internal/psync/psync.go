// Package psync holds the synchronisation state machines of the DSE
// parallel processing library: the centralised barrier and lock managers
// (hosted by kernel 0) and the distributed tree barrier used as an
// ablation, gathered per kernel into a Set whose Serve is the one entry point
// a kernel's synchronisation service calls. The state machines are pure — they
// consume "PE x arrived/asked" events and emit lists of PEs to notify — so the
// same code drives every transport and is unit-testable without a cluster.
// Every event is a message from another node: what a well-behaved PE cannot
// have sent is refused (ok false, nothing recorded), never trusted.
//
// These sync operations are also release consistency's ordering edges
// (DESIGN.md §14). The edges are not plumbed here: the PE side drives every
// verb through one table (syncVerbs in internal/core/pe.go, DESIGN.md "The
// synchronisation pipeline") whose row says what is sent, what answers it and
// which edge goes with it. A new primitive is a new row there and a new case
// in Set.Serve.
package psync

import (
	"slices"

	"repro/internal/wire"
)

// BarrierManager implements the central barrier: kernels send arrive
// messages to the manager, which releases everyone when the count is full.
// Barriers are identified by a small integer id; each id cycles through
// epochs independently.
type BarrierManager struct {
	n       int
	arrived map[int32][]int
}

// NewBarrierManager creates a manager for an n-kernel cluster.
func NewBarrierManager(n int) *BarrierManager {
	if n <= 0 {
		panic("psync: barrier over empty cluster")
	}
	return &BarrierManager{n: n, arrived: make(map[int32][]int)}
}

// Arrive records that src reached barrier id. When the epoch completes it
// returns the kernels to release (in arrival order) and resets the epoch;
// otherwise it returns nil. The list is the epoch's own storage, which the
// id's next epoch fills again: it is valid until the next arrival at id.
func (bm *BarrierManager) Arrive(src int, id int32) []int {
	release, _ := bm.ArriveSized(src, id, 0)
	return release
}

// ArriveSized is Arrive with an explicit epoch size: the barrier releases
// after size arrivals instead of the full cluster count. Job-scoped group
// barriers use this — a job's gang spans a PE subset, so its barriers
// complete at the group size. size <= 0 (or > n) falls back to the cluster
// count, so a zeroed wire field means the classic full barrier. size keeps the
// wire's int64 until it is known to be in range, so 2³²+1 cannot narrow to 1
// on a 32-bit build.
//
// An arrival is a message from another node, so two kinds are refused — ok
// false, nothing recorded — instead of trusted: one from a source already
// waiting on id (a duplicate would be counted toward the barrier and release
// it before everyone has reached it) and one that finds the epoch already at
// or past its size (arrivals that disagree about the size).
func (bm *BarrierManager) ArriveSized(src int, id int32, size int64) (release []int, ok bool) {
	epoch := bm.n
	if size > 0 && size < int64(bm.n) {
		epoch = int(size)
	}
	waiters := bm.arrived[id]
	if len(waiters) >= epoch || slices.Contains(waiters, src) {
		return nil, false
	}
	waiters = append(waiters, src)
	if len(waiters) == epoch {
		bm.arrived[id] = waiters[:0]
		return waiters, true
	}
	bm.arrived[id] = waiters
	return nil, true
}

// LockManager implements the central distributed lock manager. Locks are
// granted FIFO.
type LockManager struct {
	holder map[int32]int
	waitq  map[int32][]int
}

// NewLockManager creates an empty manager.
func NewLockManager() *LockManager {
	return &LockManager{holder: make(map[int32]int), waitq: make(map[int32][]int)}
}

// Acquire asks for lock id on behalf of src. It reports whether the lock
// was granted immediately; otherwise src is queued. A request is a message
// from another node: one from a source that already holds the lock or already
// waits for it is refused — ok false, nothing recorded — instead of trusted (a
// second place in the queue is a second grant somebody else is waiting for).
func (lm *LockManager) Acquire(src int, id int32) (granted, ok bool) {
	h, held := lm.holder[id]
	if !held {
		lm.holder[id] = src
		return true, true
	}
	if h == src || slices.Contains(lm.waitq[id], src) {
		return false, false
	}
	lm.waitq[id] = append(lm.waitq[id], src)
	return false, true
}

// Release releases lock id held by src and returns the next kernel to grant
// it to (granted false when the queue is empty). A release by anyone but the
// holder is refused: ok false, the lock stays where it is.
func (lm *LockManager) Release(src int, id int32) (next int, granted, ok bool) {
	if h, held := lm.holder[id]; !held || h != src {
		return 0, false, false
	}
	q := lm.waitq[id]
	switch len(q) {
	case 0:
		delete(lm.holder, id)
		return 0, false, true
	case 1:
		delete(lm.waitq, id)
	default:
		lm.waitq[id] = q[1:]
	}
	lm.holder[id] = q[0]
	return q[0], true, true
}

// TreeBarrier is the distributed alternative to the central barrier: each
// kernel combines arrivals from its tree children, forwards one message to
// its parent, and the root broadcasts release back down. One TreeBarrier
// lives at each kernel.
type TreeBarrier struct {
	self    int
	arity   int
	kids    int              // children: kernels self*arity+1 .. self*arity+kids
	arrived map[int32]uint64 // per id: bit 0 = own PE, bit i = i-th child
}

// NewTreeBarrier builds the node-local state for kernel self of n with the
// given fan-in (arity in [2, 63]: one bit per child in the arrival mask).
func NewTreeBarrier(self, n, arity int) *TreeBarrier {
	if arity < 2 {
		arity = 2
	}
	kids := min(arity, max(0, n-1-self*arity)) // those that exist among n kernels
	return &TreeBarrier{self: self, arity: arity, kids: kids, arrived: make(map[int32]uint64)}
}

// Parent returns this kernel's tree parent (ok=false at the root).
func (tb *TreeBarrier) Parent() (int, bool) {
	if tb.self == 0 {
		return 0, false
	}
	return (tb.self - 1) / tb.arity, true
}

// Children returns this kernel's tree children.
func (tb *TreeBarrier) Children() []int {
	var cs []int
	for i := 1; i <= tb.kids; i++ {
		cs = append(cs, tb.self*tb.arity+i)
	}
	return cs
}

// Arrive records the arrival of src — the kernel's own PE, or the combined
// arrival of a child's subtree — at barrier id. When the whole subtree has
// arrived it resets the epoch and reports complete=true: a non-root kernel
// must then notify its parent, the root must broadcast release. An arrival is
// a message from another node: one from anybody but this kernel's own PE or
// one of its children, or a second one from the same source within an epoch,
// is refused — ok false, nothing recorded — where counting it would complete
// the subtree before everybody in it has arrived.
func (tb *TreeBarrier) Arrive(src int, id int32) (complete, ok bool) {
	slot := 0
	if src != tb.self {
		slot = src - tb.self*tb.arity
		if slot < 1 || slot > tb.kids {
			return false, false
		}
	}
	have := tb.arrived[id]
	if have&(1<<slot) != 0 {
		return false, false
	}
	have |= 1 << slot
	if have == 1<<(tb.kids+1)-1 {
		delete(tb.arrived, id)
		return true, true
	}
	tb.arrived[id] = have
	return false, true
}

// Grant is one message a Set asks its kernel to emit: Op to kernel Dst about
// id, Size in the wire's size field, Seq the wait of Dst's PE it answers (0
// for what one kernel of the tree tells another).
type Grant struct {
	Dst  int
	Op   wire.Op
	ID   int32
	Size int64
	Seq  uint64
}

// Set is the synchronisation state of one kernel: the central barrier and
// lock managers (kernel 0 only), this kernel's node of the combining tree
// (tree barriers only) and, per source, the PE's last wait. Like the
// managers it has no lock of its own: whoever calls it serialises the calls.
type Set struct {
	barrier *BarrierManager
	locks   *LockManager
	tree    *TreeBarrier
	waits   []wait  // by source
	wake    []Grant // Serve's result, overwritten by the next call
}

// wait is a source's last wait at a Set, which is all the duplicate
// suppression a wait needs: a PE awaits one sync at a time.
type wait struct {
	seq  uint64
	id   int32
	open bool
}

// NewSet builds kernel self's set for an n-kernel cluster; tree says whether
// unsized barriers run over the combining tree (of fan-in 2).
func NewSet(self, n int, tree bool) *Set {
	s := &Set{waits: make([]wait, n)}
	if self == 0 {
		s.barrier, s.locks = NewBarrierManager(n), NewLockManager()
	}
	if tree {
		s.tree = NewTreeBarrier(self, n, 2)
	}
	return s
}

// Serve applies one synchronisation message — op from src about id, size the
// wire's size field (a sized barrier's gang size, else 0), seq its Seq — and
// returns the messages to emit in order, valid until the next call. The
// caller has checked that src names a kernel.
//
// A PE's wait (a lock acquire, a central arrival, a tree arrival of the
// kernel's own PE) is answered under its Seq. Its retry is absorbed while it
// is open and answered again once it is not, and a Seq below the source's
// last is a stale copy: dup reports either, which reaches no manager. ok is
// false for what is refused: a wait without a Seq or while the source's last
// is open, what a manager refuses (see their methods) or a kernel does not
// host, and what is no synchronisation request. What the tree's kernels send
// each other and an unlock are one-way and unnumbered.
//
// Sized arrivals (job-group barriers over a PE subset) are always central —
// the tree combines whole-cluster counts and cannot complete a subset — and
// their releases carry the size, which is what routes them to the arriving
// PE's application instead of down a tree.
func (s *Set) Serve(src int, op wire.Op, id int32, size int64, seq uint64) (wake []Grant, dup, ok bool) {
	s.wake = s.wake[:0]
	tree := op == wire.OpBarrierArrive && size == 0 && s.tree != nil
	w, prev := &s.waits[src], s.waits[src]
	waits := op == wire.OpLockAcquire || op == wire.OpBarrierArrive && (!tree || src == s.tree.self)
	if waits {
		switch {
		case seq == 0 || seq > w.seq && w.open:
			return nil, false, false
		case seq == w.seq && !w.open && op == wire.OpLockAcquire:
			s.answer(src, wire.OpLockGrant, id, 0)
		case seq == w.seq && !w.open:
			s.answer(src, wire.OpBarrierRelease, id, size)
		}
		if seq <= w.seq {
			return s.wake, true, true
		}
		*w = wait{seq: seq, id: id, open: true}
	}
	switch {
	case tree:
		var complete bool
		if complete, ok = s.tree.Arrive(src, id); complete {
			if parent, has := s.tree.Parent(); has {
				s.emit(parent, wire.OpBarrierArrive, id, 0, 0)
			} else {
				s.releaseDown(id)
			}
		}
	case op == wire.OpBarrierRelease && s.tree != nil:
		// Only a tree release is served (a central one goes straight to the
		// application), and only the parent sends one.
		if parent, has := s.tree.Parent(); has && src == parent {
			s.releaseDown(id)
			ok = true
		}
	case s.barrier == nil:
	case op == wire.OpBarrierArrive:
		var waiters []int
		waiters, ok = s.barrier.ArriveSized(src, id, size)
		for _, w := range waiters {
			s.answer(w, wire.OpBarrierRelease, id, size)
		}
	case op == wire.OpLockAcquire:
		var granted bool
		if granted, ok = s.locks.Acquire(src, id); granted {
			s.answer(src, wire.OpLockGrant, id, 0)
		}
	case op == wire.OpLockRelease:
		var next int
		var granted bool
		if next, granted, ok = s.locks.Release(src, id); granted {
			s.answer(next, wire.OpLockGrant, id, 0)
		}
	}
	if !ok && waits {
		*w = prev
	}
	return s.wake, false, ok
}

func (s *Set) emit(dst int, op wire.Op, id int32, size int64, seq uint64) {
	s.wake = append(s.wake, Grant{Dst: dst, Op: op, ID: id, Size: size, Seq: seq})
}

// answer emits op about id to the PE of kernel dst under the Seq of its wait,
// which it closes.
func (s *Set) answer(dst int, op wire.Op, id int32, size int64) {
	s.waits[dst].open = false
	s.emit(dst, op, id, size, s.waits[dst].seq)
}

// releaseDown forwards a tree release to the children and answers the own
// PE last: the kernel hands that release over itself (sent to itself, it
// would come back to Serve and go down the tree again).
func (s *Set) releaseDown(id int32) {
	for _, c := range s.tree.Children() {
		s.emit(c, wire.OpBarrierRelease, id, 0, 0)
	}
	s.answer(s.tree.self, wire.OpBarrierRelease, id, 0)
}

// Purge forgets every barrier epoch and lock whose id lies in [lo, hi):
// teardown for a job whose members may have died mid-barrier or holding or
// awaiting a lock, so that a later job reusing the id range finds it clean.
// A wait about such an id is closed: its PE, whose wait failed, may wait
// again. (Job barriers are sized, hence central: the tree holds nothing of a
// job's.)
func (s *Set) Purge(lo, hi int32) {
	for i := range s.waits {
		if w := &s.waits[i]; w.id >= lo && w.id < hi {
			w.open = false
		}
	}
	if s.barrier == nil {
		return
	}
	dropRange(s.barrier.arrived, lo, hi)
	dropRange(s.locks.holder, lo, hi)
	dropRange(s.locks.waitq, lo, hi)
}

func dropRange[V any](m map[int32]V, lo, hi int32) {
	for id := range m {
		if id >= lo && id < hi {
			delete(m, id)
		}
	}
}

// Residue reports the leak gauges of job teardown, all zero after a quiesced
// one: arrivals parked in open barrier epochs, and locks held plus lock
// waiters queued.
func (s *Set) Residue() (barrierPend, lockResidue int) {
	if s.barrier == nil {
		return 0, 0
	}
	return queued(s.barrier.arrived), len(s.locks.holder) + queued(s.locks.waitq)
}

func queued(m map[int32][]int) (n int) {
	for _, q := range m {
		n += len(q)
	}
	return n
}
