package psync

import (
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

func TestBarrierReleasesOnlyWhenFull(t *testing.T) {
	bm := NewBarrierManager(3)
	if r := bm.Arrive(0, 1); r != nil {
		t.Fatalf("released after 1 arrival: %v", r)
	}
	if r := bm.Arrive(2, 1); r != nil {
		t.Fatalf("released after 2 arrivals: %v", r)
	}
	r := bm.Arrive(1, 1)
	if len(r) != 3 {
		t.Fatalf("release list = %v, want all three", r)
	}
	if len(bm.arrived[1]) != 0 {
		t.Fatal("epoch did not reset")
	}
}

func TestBarrierEpochsIndependentPerID(t *testing.T) {
	bm := NewBarrierManager(2)
	bm.Arrive(0, 1)
	bm.Arrive(0, 2)
	if len(bm.arrived[1]) != 1 || len(bm.arrived[2]) != 1 {
		t.Fatal("ids interfered")
	}
	if r := bm.Arrive(1, 2); len(r) != 2 {
		t.Fatalf("barrier 2 did not complete: %v", r)
	}
	if len(bm.arrived[1]) != 1 {
		t.Fatal("barrier 1 state lost")
	}
}

func TestBarrierReusableAcrossEpochs(t *testing.T) {
	bm := NewBarrierManager(2)
	for epoch := 0; epoch < 5; epoch++ {
		bm.Arrive(0, 7)
		if r := bm.Arrive(1, 7); len(r) != 2 {
			t.Fatalf("epoch %d did not release", epoch)
		}
	}
}

// An arrival is a message from another node: a second one from a source
// already waiting must not be counted toward the barrier (two arrivals from
// PE 1 used to release a 2-PE barrier PE 0 never reached), and one past the
// epoch's size is refused, not a panic in the process that hosts kernel 0.
func TestBarrierRefusesDuplicateAndOverArrival(t *testing.T) {
	bm := NewBarrierManager(2)
	if r, ok := bm.ArriveSized(1, 1, 0); r != nil || !ok {
		t.Fatalf("first arrival = %v, %v", r, ok)
	}
	if r, ok := bm.ArriveSized(1, 1, 0); r != nil || ok {
		t.Fatalf("duplicate arrival from PE 1 = %v, %v, want refused", r, ok)
	}
	if len(bm.arrived[1]) != 1 {
		t.Fatalf("duplicate was recorded: %d waiting", len(bm.arrived[1]))
	}
	if r, ok := bm.ArriveSized(0, 1, 0); !ok || len(r) != 2 || r[0] != 1 || r[1] != 0 {
		t.Fatalf("completing arrival = %v, %v", r, ok)
	}
	// The source may arrive again once the epoch has been released.
	if _, ok := bm.ArriveSized(1, 1, 0); !ok {
		t.Fatal("arrival at the next epoch refused")
	}

	// Arrivals that disagree about the size: two wait for a third, then one
	// claims the barrier is two wide.
	bm3 := NewBarrierManager(4)
	bm3.ArriveSized(0, 9, 3)
	bm3.ArriveSized(1, 9, 3)
	if r, ok := bm3.ArriveSized(2, 9, 2); r != nil || ok {
		t.Fatalf("over-arrival = %v, %v, want refused", r, ok)
	}
	if r, ok := bm3.ArriveSized(2, 9, 3); !ok || len(r) != 3 {
		t.Fatalf("well-formed third arrival = %v, %v", r, ok)
	}

	// A size no int of a 32-bit build holds means the whole cluster, as on
	// 64-bit targets: 2³²+2 must not narrow to a 2-wide barrier there.
	bm4 := NewBarrierManager(4)
	for src := 0; src < 3; src++ {
		if r, ok := bm4.ArriveSized(src, 9, 1<<32+2); r != nil || !ok {
			t.Fatalf("arrival %d of a 2³²+2-wide barrier = %v, %v; want it waiting for all 4", src, r, ok)
		}
	}
	if r, ok := bm4.ArriveSized(3, 9, 1<<32+2); !ok || len(r) != 4 {
		t.Fatalf("fourth arrival = %v, %v, want all 4 released", r, ok)
	}
}

// Property: for any arrival permutation, exactly one release of size n fires
// per epoch, containing each kernel once.
func TestBarrierReleaseProperty(t *testing.T) {
	f := func(seed uint8, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		bm := NewBarrierManager(n)
		// Deterministic pseudo-permutation of arrivals from the seed.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		s := int(seed)
		for i := n - 1; i > 0; i-- {
			j := (s + i*7) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}
		var release []int
		for i, src := range order {
			r := bm.Arrive(src, 3)
			if i < n-1 && r != nil {
				return false
			}
			if i == n-1 {
				release = r
			}
		}
		if len(release) != n {
			return false
		}
		seen := map[int]bool{}
		for _, k := range release {
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLockFIFOGranting(t *testing.T) {
	lm := NewLockManager()
	if granted, ok := lm.Acquire(0, 1); !granted || !ok {
		t.Fatal("first acquire should grant")
	}
	for src := 1; src <= 2; src++ {
		if granted, ok := lm.Acquire(src, 1); granted || !ok {
			t.Fatalf("acquire of a held lock by %d: granted %v, ok %v, want queued", src, granted, ok)
		}
	}
	next, granted, ok := lm.Release(0, 1)
	if !ok || !granted || next != 1 {
		t.Fatalf("release granted %d,%v want 1", next, granted)
	}
	next, granted, ok = lm.Release(1, 1)
	if !ok || !granted || next != 2 {
		t.Fatalf("release granted %d,%v want 2", next, granted)
	}
	if _, granted, ok = lm.Release(2, 1); granted || !ok {
		t.Fatal("empty queue should not grant")
	}
	if _, held := lm.holder[1]; held {
		t.Fatal("lock should be free")
	}
}

func TestLockIndependentIDs(t *testing.T) {
	lm := NewLockManager()
	a, _ := lm.Acquire(0, 1)
	b, _ := lm.Acquire(1, 2)
	if !a || !b {
		t.Fatal("different ids should not conflict")
	}
}

// A release by anyone but the holder is a forged or duplicated message: it is
// refused and changes nothing.
func TestLockRefusesReleaseWithoutHold(t *testing.T) {
	lm := NewLockManager()
	if _, _, ok := lm.Release(0, 1); ok {
		t.Fatal("release of a free lock accepted")
	}
	lm.Acquire(0, 1)
	lm.Acquire(1, 1)
	if _, _, ok := lm.Release(1, 1); ok {
		t.Fatal("release by a waiter accepted")
	}
	if h := lm.holder[1]; h != 0 || len(lm.waitq[1]) != 1 {
		t.Fatalf("refused release moved the lock: holder %d, waiters %v", h, lm.waitq[1])
	}
}

// So is a second acquire by the holder or by a source already queued: a second
// place in the queue would become a grant nobody asked for.
func TestLockRefusesReacquire(t *testing.T) {
	lm := NewLockManager()
	lm.Acquire(0, 1)
	if granted, ok := lm.Acquire(0, 1); granted || ok {
		t.Fatal("re-acquire by the holder accepted")
	}
	lm.Acquire(1, 1)
	if granted, ok := lm.Acquire(1, 1); granted || ok {
		t.Fatal("second acquire by a waiter accepted")
	}
	if len(lm.holder) != 1 || len(lm.waitq[1]) != 1 {
		t.Fatalf("after two refused acquires: waiters %v, want holder + one waiter", lm.waitq[1])
	}
	if next, granted, _ := lm.Release(0, 1); !granted || next != 1 {
		t.Fatalf("release granted %d,%v want 1", next, granted)
	}
	if _, granted, _ := lm.Release(1, 1); granted {
		t.Fatal("the refused duplicate was queued after all")
	}
}

// Property: under any sequence of acquire/release pairs, at most one holder
// exists per lock and every waiter is eventually granted FIFO.
func TestLockMutualExclusionProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		lm := NewLockManager()
		const id = int32(1)
		holder := -1
		var queue []int
		granted := map[int]bool{}
		for _, op := range ops {
			src := int(op % 5)
			if holder == -1 {
				if granted, _ := lm.Acquire(src, id); !granted {
					return false
				}
				holder = src
				granted[src] = true
				continue
			}
			if src == holder {
				next, ok, _ := lm.Release(src, id)
				if len(queue) == 0 {
					if ok {
						return false
					}
					holder = -1
				} else {
					if !ok || next != queue[0] {
						return false
					}
					holder = queue[0]
					queue = queue[1:]
				}
				delete(granted, src)
				continue
			}
			if granted[src] {
				continue // already waiting or holding; skip
			}
			inQueue := false
			for _, q := range queue {
				if q == src {
					inQueue = true
				}
			}
			if inQueue {
				continue
			}
			if granted, _ := lm.Acquire(src, id); granted {
				return false // must queue while held
			}
			queue = append(queue, src)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeBarrierTopology(t *testing.T) {
	n := 10
	// Every kernel except the root has a parent; child lists are the
	// exact inverse of the parent relation.
	for self := 0; self < n; self++ {
		tb := NewTreeBarrier(self, n, 2)
		parent, ok := tb.Parent()
		if self == 0 {
			if ok {
				t.Fatal("root has a parent")
			}
		} else {
			if !ok || parent != (self-1)/2 {
				t.Fatalf("kernel %d parent = %d", self, parent)
			}
		}
		for _, c := range tb.Children() {
			ctb := NewTreeBarrier(c, n, 2)
			if p, _ := ctb.Parent(); p != self {
				t.Fatalf("child %d of %d disagrees: parent=%d", c, self, p)
			}
		}
	}
}

func TestTreeBarrierCompletesOnceSubtreeArrives(t *testing.T) {
	// Kernel 0 of 5 with arity 2 has children {1,2}: needs self + 2.
	tb := NewTreeBarrier(0, 5, 2)
	if complete, ok := tb.Arrive(2, 1); complete || !ok {
		t.Fatal("complete after 1/3")
	}
	if complete, ok := tb.Arrive(0, 1); complete || !ok {
		t.Fatal("complete after 2/3")
	}
	if complete, ok := tb.Arrive(1, 1); !complete || !ok {
		t.Fatal("not complete after 3/3")
	}
	// Epoch reset: the next round needs 3 again.
	if complete, ok := tb.Arrive(0, 1); complete || !ok {
		t.Fatal("stale epoch state")
	}
}

// A tree arrival is a message from another node: counted from anybody but
// this kernel's own PE or one of its children, or twice from the same source,
// it would complete the subtree before everybody in it has arrived.
func TestTreeBarrierRefusesStrangersAndDuplicates(t *testing.T) {
	tb := NewTreeBarrier(1, 6, 2) // kernel 1 of 6: children 3 and 4
	for _, src := range []int{0, 2, 5, 6, -1} {
		if complete, ok := tb.Arrive(src, 7); complete || ok {
			t.Fatalf("arrival from %d = %v, %v, want refused", src, complete, ok)
		}
	}
	tb.Arrive(3, 7)
	if complete, ok := tb.Arrive(3, 7); complete || ok {
		t.Fatalf("second arrival of child 3 = %v, %v, want refused", complete, ok)
	}
	tb.Arrive(1, 7)
	if complete, ok := tb.Arrive(1, 7); complete || ok {
		t.Fatalf("second arrival of the own PE = %v, %v, want refused", complete, ok)
	}
	if complete, ok := tb.Arrive(4, 7); !complete || !ok {
		t.Fatalf("last arrival = %v, %v, want the subtree complete", complete, ok)
	}
	// Kernel 2 of 6 has one child, 5: kernel 6 does not exist.
	if _, ok := NewTreeBarrier(2, 6, 2).Arrive(6, 7); ok {
		t.Fatal("arrival from a kernel past the cluster accepted")
	}
}

func TestTreeBarrierLeaf(t *testing.T) {
	tb := NewTreeBarrier(4, 5, 2) // kernel 4 is a leaf
	if len(tb.Children()) != 0 {
		t.Fatalf("leaf has children %v", tb.Children())
	}
	if complete, ok := tb.Arrive(4, 1); !complete || !ok {
		t.Fatal("leaf should complete on its own arrival")
	}
}

// Property: simulating the full message flow over the tree releases every
// kernel exactly once, for any cluster size and arity.
func TestTreeBarrierGlobalProperty(t *testing.T) {
	f := func(nRaw, arityRaw uint8) bool {
		n := int(nRaw%16) + 1
		arity := int(arityRaw%4) + 2
		tbs := make([]*TreeBarrier, n)
		for i := range tbs {
			tbs[i] = NewTreeBarrier(i, n, arity)
		}
		// Every kernel arrives; propagate completions upward.
		var upward func(k, src int)
		rootComplete := false
		upward = func(k, src int) {
			if complete, _ := tbs[k].Arrive(src, 1); complete {
				if parent, ok := tbs[k].Parent(); ok {
					upward(parent, k)
				} else {
					rootComplete = true
				}
			}
		}
		for k := 0; k < n; k++ {
			upward(k, k)
		}
		if !rootComplete {
			return false
		}
		// Release flows down: count that broadcast reaches everyone once.
		released := make([]int, n)
		var down func(k int)
		down = func(k int) {
			released[k]++
			for _, c := range tbs[k].Children() {
				down(c)
			}
		}
		down(0)
		for _, r := range released {
			if r != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// grants copies what Serve returned, which the next call overwrites, and
// checks that nothing but a numbered wait is taken for a duplicate.
func grants(t *testing.T, s *Set, src int, op wire.Op, id int32, size int64, seq uint64) ([]Grant, bool) {
	t.Helper()
	wake, dup, ok := s.Serve(src, op, id, size, seq)
	if dup {
		t.Fatalf("%v from %d (seq %d) taken for a duplicate", op, src, seq)
	}
	return append([]Grant(nil), wake...), ok
}

func expectGrants(t *testing.T, what string, got []Grant, ok bool, wantOK bool, want ...Grant) {
	t.Helper()
	if ok != wantOK || len(got) != len(want) {
		t.Fatalf("%s: %v, %v, want %v, %v", what, got, ok, want, wantOK)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: grant %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestSetServe drives every verb through the one entry point: what kernel 0's
// set grants, under which Seq, what a set without central managers refuses,
// and how a sized arrival stays central beside a tree.
func TestSetServe(t *testing.T) {
	s := NewSet(0, 3, false)
	g, ok := grants(t, s, 1, wire.OpLockAcquire, 5, 0, 11)
	expectGrants(t, "acquire of a free lock", g, ok, true, Grant{Dst: 1, Op: wire.OpLockGrant, ID: 5, Seq: 11})
	g, ok = grants(t, s, 2, wire.OpLockAcquire, 5, 0, 21)
	expectGrants(t, "acquire of a held lock", g, ok, true)
	g, ok = grants(t, s, 2, wire.OpLockAcquire, 5, 0, 22)
	expectGrants(t, "second acquire by a waiter", g, ok, false)
	g, ok = grants(t, s, 1, wire.OpLockRelease, 5, 0, 0)
	expectGrants(t, "release", g, ok, true, Grant{Dst: 2, Op: wire.OpLockGrant, ID: 5, Seq: 21})

	// A sized barrier releases at its size and the releases carry it.
	g, ok = grants(t, s, 2, wire.OpBarrierArrive, 7, 2, 23)
	expectGrants(t, "first sized arrival", g, ok, true)
	g, ok = grants(t, s, 2, wire.OpBarrierArrive, 7, 2, 24)
	expectGrants(t, "second arrival while the first waits", g, ok, false)
	g, ok = grants(t, s, 0, wire.OpBarrierArrive, 7, 2, 1)
	expectGrants(t, "completing sized arrival", g, ok, true,
		Grant{Dst: 2, Op: wire.OpBarrierRelease, ID: 7, Size: 2, Seq: 23},
		Grant{Dst: 0, Op: wire.OpBarrierRelease, ID: 7, Size: 2, Seq: 1})

	g, ok = grants(t, s, 1, wire.OpBarrierRelease, 7, 0, 0)
	expectGrants(t, "a release served without a tree", g, ok, false)
	g, ok = grants(t, s, 1, wire.OpLockGrant, 5, 0, 0)
	expectGrants(t, "an op that is no sync request", g, ok, false)
	for _, op := range []wire.Op{wire.OpLockAcquire, wire.OpBarrierArrive} {
		g, ok = grants(t, s, 0, op, 8, 0, 0)
		expectGrants(t, "an unnumbered "+op.String(), g, ok, false)
	}

	// Kernel 1 hosts no central manager.
	s1 := NewSet(1, 3, false)
	for _, op := range []wire.Op{wire.OpBarrierArrive, wire.OpLockAcquire, wire.OpLockRelease} {
		g, ok = grants(t, s1, 0, op, 1, 0, 1)
		expectGrants(t, op.String()+" at kernel 1", g, ok, false)
	}
}

// TestSetServeRetries: a retried wait (its Seq again) is absorbed while it is
// open and answered again once it was, under its own Seq, and a Seq below the
// source's last is a stale copy; none of them reaches a manager, so no
// arrival is counted twice and no lock granted twice.
func TestSetServeRetries(t *testing.T) {
	s := NewSet(0, 2, false)
	serve := func(src int, op wire.Op, id int32, seq uint64) ([]Grant, bool, bool) {
		wake, dup, ok := s.Serve(src, op, id, 0, seq)
		return append([]Grant(nil), wake...), dup, ok
	}
	expectDup := func(what string, got []Grant, dup, ok bool, want ...Grant) {
		t.Helper()
		if !dup {
			t.Fatalf("%s: not taken for a duplicate", what)
		}
		expectGrants(t, what, got, ok, true, want...)
	}
	g, dup, ok := serve(1, wire.OpBarrierArrive, 4, 10)
	expectGrants(t, "arrival", g, ok && !dup, true)
	g, dup, ok = serve(1, wire.OpBarrierArrive, 4, 10)
	expectDup("retry of an open arrival", g, dup, ok)
	if len(s.barrier.arrived[4]) != 1 {
		t.Fatalf("the retry was counted: %v", s.barrier.arrived[4])
	}
	g, _, ok = serve(0, wire.OpBarrierArrive, 4, 3)
	release := []Grant{{Dst: 1, Op: wire.OpBarrierRelease, ID: 4, Seq: 10}, {Dst: 0, Op: wire.OpBarrierRelease, ID: 4, Seq: 3}}
	expectGrants(t, "completing arrival", g, ok, true, release...)
	g, dup, ok = serve(1, wire.OpBarrierArrive, 4, 10)
	expectDup("retry of an answered arrival", g, dup, ok, release[0])
	if len(s.barrier.arrived[4]) != 0 {
		t.Fatalf("the retry opened the next epoch: %v", s.barrier.arrived[4])
	}

	g, dup, ok = serve(1, wire.OpLockAcquire, 2, 12)
	expectGrants(t, "acquire", g, ok && !dup, true, Grant{Dst: 1, Op: wire.OpLockGrant, ID: 2, Seq: 12})
	g, dup, ok = serve(1, wire.OpBarrierArrive, 4, 10)
	expectDup("a copy of an older wait", g, dup, ok)
	g, dup, ok = serve(0, wire.OpLockAcquire, 2, 5)
	expectGrants(t, "queued acquire", g, ok && !dup, true)
	g, dup, ok = serve(0, wire.OpLockAcquire, 2, 5)
	expectDup("retry of a queued acquire", g, dup, ok)
	if len(s.locks.waitq[2]) != 1 {
		t.Fatalf("the retry was queued: %v", s.locks.waitq[2])
	}
	g, dup, ok = serve(1, wire.OpLockAcquire, 2, 12)
	expectDup("retry of a granted acquire", g, dup, ok, Grant{Dst: 1, Op: wire.OpLockGrant, ID: 2, Seq: 12})
	g, dup, ok = serve(1, wire.OpLockRelease, 2, 0)
	expectGrants(t, "release", g, ok && !dup, true, Grant{Dst: 0, Op: wire.OpLockGrant, ID: 2, Seq: 5})
	if _, l := s.Residue(); l != 1 {
		t.Fatalf("lock residue = %d, want PE 0's hold", l)
	}
}

// TestSetServeTree: kernel 1 of 6 (parent 0, children 3 and 4) combines its
// subtree's arrivals into one to its parent, passes its parent's release down
// and answers its own application last, under the Seq of its arrival; the
// root, complete, releases at once. What kernels send each other is
// unnumbered.
func TestSetServeTree(t *testing.T) {
	s := NewSet(1, 6, true)
	for _, a := range []struct {
		src int
		seq uint64
	}{{3, 0}, {1, 17}} {
		if g, ok := grants(t, s, a.src, wire.OpBarrierArrive, 9, 0, a.seq); !ok || len(g) != 0 {
			t.Fatalf("arrival of %d: %v, %v", a.src, g, ok)
		}
	}
	if g, ok := grants(t, s, 5, wire.OpBarrierArrive, 9, 0, 0); ok || len(g) != 0 {
		t.Fatalf("arrival of a non-child: %v, %v, want refused", g, ok)
	}
	if g, ok := grants(t, s, 3, wire.OpBarrierArrive, 9, 0, 0); ok || len(g) != 0 {
		t.Fatalf("second arrival of child 3: %v, %v, want refused", g, ok)
	}
	g, ok := grants(t, s, 4, wire.OpBarrierArrive, 9, 0, 0)
	if !ok || len(g) != 1 || g[0] != (Grant{Dst: 0, Op: wire.OpBarrierArrive, ID: 9}) {
		t.Fatalf("completing arrival: %v, %v, want one arrival to the parent", g, ok)
	}
	if g, ok := grants(t, s, 3, wire.OpBarrierRelease, 9, 0, 0); ok || len(g) != 0 {
		t.Fatalf("release from a child: %v, %v, want refused", g, ok)
	}
	g, ok = grants(t, s, 0, wire.OpBarrierRelease, 9, 0, 0)
	expectGrants(t, "release from the parent", g, ok, true,
		Grant{Dst: 3, Op: wire.OpBarrierRelease, ID: 9},
		Grant{Dst: 4, Op: wire.OpBarrierRelease, ID: 9},
		Grant{Dst: 1, Op: wire.OpBarrierRelease, ID: 9, Seq: 17})
	// A sized arrival is central even beside a tree: refused here, where no
	// central manager lives, not counted into the tree.
	if g, ok := grants(t, s, 1, wire.OpBarrierArrive, 9, 2, 18); ok || len(g) != 0 {
		t.Fatalf("sized arrival at kernel 1: %v, %v, want refused", g, ok)
	}
	// The own PE's arrival is a wait: unnumbered, it is refused.
	if g, ok := grants(t, s, 1, wire.OpBarrierArrive, 9, 0, 0); ok || len(g) != 0 {
		t.Fatalf("unnumbered arrival of the own PE: %v, %v, want refused", g, ok)
	}

	root := NewSet(0, 1, true) // a lone kernel: its own arrival completes the tree
	g, ok = grants(t, root, 0, wire.OpBarrierArrive, 9, 0, 3)
	expectGrants(t, "root completing", g, ok, true, Grant{Dst: 0, Op: wire.OpBarrierRelease, ID: 9, Seq: 3})
	if g, ok := grants(t, root, 0, wire.OpBarrierRelease, 9, 0, 0); ok || len(g) != 0 {
		t.Fatalf("release at the root: %v, %v, want refused", g, ok)
	}
}

// TestSetPurgeAndResidue: the set owns job teardown. Residue counts what a
// job left behind, Purge drops exactly the job's id range and closes the
// waits about it, and a set without central managers has nothing of either.
func TestSetPurgeAndResidue(t *testing.T) {
	s := NewSet(0, 8, false)
	seq := uint64(0)
	serve := func(src int, op wire.Op, id int32, size int64) ([]Grant, bool) {
		seq++
		wake, _, ok := s.Serve(src, op, id, size, seq)
		return wake, ok
	}
	for i, id := range []int32{10, 20} { // 10 is the job's, 20 somebody else's
		serve(1+2*i, wire.OpBarrierArrive, id, 3)
		serve(2+2*i, wire.OpBarrierArrive, id, 3)
		serve(5+i, wire.OpLockAcquire, id, 0)
		serve(7*i, wire.OpLockAcquire, id, 0)
	}
	if b, l := s.Residue(); b != 4 || l != 4 {
		t.Fatalf("residue = %d, %d, want 4, 4", b, l)
	}
	s.Purge(10, 20)
	if b, l := s.Residue(); b != 2 || l != 2 {
		t.Fatalf("residue after the purge = %d, %d, want 2, 2", b, l)
	}
	// The next job finds the range clean: a fresh lock and a barrier epoch
	// that needs all three arrivals again, and PEs 0, 1 and 2, whose waits
	// about it were open, may wait again.
	if g, ok := serve(1, wire.OpLockAcquire, 10, 0); !ok || len(g) != 1 {
		t.Fatalf("lock 10 after the purge: %v, %v, want granted", g, ok)
	}
	if g, ok := serve(3, wire.OpBarrierArrive, 10, 3); ok {
		t.Fatalf("barrier 10 from PE 3, whose wait about 20 is open: %v, %v, want refused", g, ok)
	}
	if g, ok := serve(2, wire.OpBarrierArrive, 10, 3); !ok || len(g) != 0 {
		t.Fatalf("barrier 10 after the purge: %v, %v, want parked", g, ok)
	}
	// A completed epoch keeps its waiter list, emptied, for the id's next
	// one: that is no residue, and a purge still drops the entry.
	serve(1, wire.OpLockRelease, 10, 0)
	serve(1, wire.OpBarrierArrive, 10, 3)
	if g, ok := serve(0, wire.OpBarrierArrive, 10, 3); !ok || len(g) != 3 {
		t.Fatalf("barrier 10 completing: %v, %v, want three releases", g, ok)
	}
	if b, _ := s.Residue(); b != 2 {
		t.Fatalf("barrier residue after barrier 10 completed = %d, want barrier 20's 2", b)
	}
	if _, kept := s.barrier.arrived[10]; !kept {
		t.Fatal("completed epoch dropped its waiter list")
	}
	s.Purge(10, 20)
	if _, kept := s.barrier.arrived[10]; kept {
		t.Fatal("purge left barrier 10's entry")
	}
	s1 := NewSet(1, 4, true)
	s1.Purge(0, 100)
	if b, l := s1.Residue(); b != 0 || l != 0 {
		t.Fatalf("residue at kernel 1 = %d, %d", b, l)
	}
}
