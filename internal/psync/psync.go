// Package psync holds the synchronisation state machines of the DSE
// parallel processing library: the centralised barrier, lock and semaphore
// managers (hosted by kernel 0) and the distributed tree barrier used as an
// ablation. The state machines are pure — they consume "PE x arrived/asked"
// events and emit lists of PEs to notify — so the same code drives every
// transport and is unit-testable without a cluster.
//
// These sync operations are also release consistency's ordering edges
// (DESIGN.md §14): a PE publishes its write-combining buffer before a
// barrier arrival, a lock release or a semaphore post, and drops its lease
// cache after a barrier crossing, a lock grant or a semaphore grant. The
// managers themselves need no changes for that — the PE-side core plumbs
// the flush/drop around the messages they already exchange — but any new
// sync primitive added here must get the same treatment in internal/core.
package psync

import "slices"

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
// otherwise it returns nil.
func (bm *BarrierManager) Arrive(src int, id int32) []int {
	release, _ := bm.ArriveSized(src, id, bm.n)
	return release
}

// ArriveSized is Arrive with an explicit epoch size: the barrier releases
// after size arrivals instead of the full cluster count. Job-scoped group
// barriers use this — a job's gang spans a PE subset, so its barriers
// complete at the group size. size <= 0 (or > n) falls back to the cluster
// count, so a zeroed wire field means the classic full barrier.
//
// An arrival is a message from another node, so two kinds are refused — ok
// false, nothing recorded — instead of trusted: one from a source already
// waiting on id (a duplicate would be counted toward the barrier and release
// it before everyone has reached it) and one that finds the epoch already at
// or past its size (arrivals that disagree about the size).
func (bm *BarrierManager) ArriveSized(src int, id int32, size int) (release []int, ok bool) {
	if size <= 0 || size > bm.n {
		size = bm.n
	}
	waiters := bm.arrived[id]
	if len(waiters) >= size || slices.Contains(waiters, src) {
		return nil, false
	}
	waiters = append(waiters, src)
	if len(waiters) == size {
		delete(bm.arrived, id)
		return waiters, true
	}
	bm.arrived[id] = waiters
	return nil, true
}

// Pending reports how many kernels are waiting at barrier id.
func (bm *BarrierManager) Pending(id int32) int { return len(bm.arrived[id]) }

// PendingTotal reports how many arrivals are parked across ALL open barrier
// epochs — a leak gauge: after a quiesced teardown it must be zero.
func (bm *BarrierManager) PendingTotal() int {
	total := 0
	for _, w := range bm.arrived {
		total += len(w)
	}
	return total
}

// DropRange discards every partial epoch whose barrier id lies in [lo, hi):
// namespace teardown for a cancelled job whose members died mid-barrier, so
// the job's id range is clean when a later job reuses it.
func (bm *BarrierManager) DropRange(lo, hi int32) {
	for id := range bm.arrived {
		if id >= lo && id < hi {
			delete(bm.arrived, id)
		}
	}
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
	if len(q) == 0 {
		delete(lm.holder, id)
		return 0, false, true
	}
	next = q[0]
	if len(q) == 1 {
		delete(lm.waitq, id)
	} else {
		lm.waitq[id] = q[1:]
	}
	lm.holder[id] = next
	return next, true, true
}

// Holder reports the current holder of lock id.
func (lm *LockManager) Holder(id int32) (int, bool) {
	h, ok := lm.holder[id]
	return h, ok
}

// Residue reports how many locks are held plus how many waiters are queued
// across all ids — a leak gauge for job teardown.
func (lm *LockManager) Residue() int {
	total := len(lm.holder)
	for _, q := range lm.waitq {
		total += len(q)
	}
	return total
}

// DropRange forgets holders and wait queues of every lock id in [lo, hi):
// teardown for a job that aborted while holding or awaiting its locks.
func (lm *LockManager) DropRange(lo, hi int32) {
	for id := range lm.holder {
		if id >= lo && id < hi {
			delete(lm.holder, id)
		}
	}
	for id := range lm.waitq {
		if id >= lo && id < hi {
			delete(lm.waitq, id)
		}
	}
}

// SemManager implements central counting semaphores.
type SemManager struct {
	val   map[int32]int64
	waitq map[int32][]int
}

// NewSemManager creates an empty manager; unknown semaphores start at 0.
func NewSemManager() *SemManager {
	return &SemManager{val: make(map[int32]int64), waitq: make(map[int32][]int)}
}

// Init sets semaphore id to v (only meaningful before any waiter queues).
func (sm *SemManager) Init(id int32, v int64) { sm.val[id] = v }

// Wait decrements semaphore id for src. It reports whether the down
// succeeded immediately; otherwise src is queued.
func (sm *SemManager) Wait(src int, id int32) bool {
	if sm.val[id] > 0 {
		sm.val[id]--
		return true
	}
	sm.waitq[id] = append(sm.waitq[id], src)
	return false
}

// Post increments semaphore id and returns the kernel to grant a pending
// wait to, if any.
func (sm *SemManager) Post(id int32) (next int, ok bool) {
	q := sm.waitq[id]
	if len(q) > 0 {
		next = q[0]
		if len(q) == 1 {
			delete(sm.waitq, id)
		} else {
			sm.waitq[id] = q[1:]
		}
		return next, true
	}
	sm.val[id]++
	return 0, false
}

// Value reports the semaphore's current value.
func (sm *SemManager) Value(id int32) int64 { return sm.val[id] }

// WaitersTotal reports how many waiters are queued across all semaphores —
// a leak gauge for job teardown.
func (sm *SemManager) WaitersTotal() int {
	total := 0
	for _, q := range sm.waitq {
		total += len(q)
	}
	return total
}

// DropRange forgets values and wait queues of every semaphore id in
// [lo, hi): teardown for a job's private semaphore range.
func (sm *SemManager) DropRange(lo, hi int32) {
	for id := range sm.val {
		if id >= lo && id < hi {
			delete(sm.val, id)
		}
	}
	for id := range sm.waitq {
		if id >= lo && id < hi {
			delete(sm.waitq, id)
		}
	}
}

// TreeBarrier is the distributed alternative to the central barrier: each
// kernel combines arrivals from its tree children, forwards one message to
// its parent, and the root broadcasts release back down. One TreeBarrier
// lives at each kernel.
type TreeBarrier struct {
	self  int
	n     int
	arity int
	count map[int32]int
}

// NewTreeBarrier builds the node-local state for kernel self of n with the
// given fan-in (arity >= 2).
func NewTreeBarrier(self, n, arity int) *TreeBarrier {
	if arity < 2 {
		arity = 2
	}
	return &TreeBarrier{self: self, n: n, arity: arity, count: make(map[int32]int)}
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
	for i := 1; i <= tb.arity; i++ {
		c := tb.self*tb.arity + i
		if c < tb.n {
			cs = append(cs, c)
		}
	}
	return cs
}

// Arrive records one arrival (the kernel's own, or a combined arrival from
// a child subtree) for barrier id. When the whole subtree has arrived it
// resets the epoch and reports complete=true: a non-root kernel must then
// notify its parent, the root must broadcast release.
func (tb *TreeBarrier) Arrive(id int32) (complete bool) {
	need := len(tb.Children()) + 1
	c := tb.count[id] + 1
	if c >= need {
		delete(tb.count, id)
		return true
	}
	tb.count[id] = c
	return false
}
