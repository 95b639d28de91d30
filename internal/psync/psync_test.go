package psync

import (
	"testing"
	"testing/quick"
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
	if bm.Pending(1) != 0 {
		t.Fatal("epoch did not reset")
	}
}

func TestBarrierEpochsIndependentPerID(t *testing.T) {
	bm := NewBarrierManager(2)
	bm.Arrive(0, 1)
	bm.Arrive(0, 2)
	if bm.Pending(1) != 1 || bm.Pending(2) != 1 {
		t.Fatal("ids interfered")
	}
	if r := bm.Arrive(1, 2); len(r) != 2 {
		t.Fatalf("barrier 2 did not complete: %v", r)
	}
	if bm.Pending(1) != 1 {
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
	if bm.Pending(1) != 1 {
		t.Fatalf("duplicate was recorded: %d waiting", bm.Pending(1))
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
	if _, held := lm.Holder(1); held {
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
	if h, _ := lm.Holder(1); h != 0 || lm.Residue() != 2 {
		t.Fatalf("refused release moved the lock: holder %d, residue %d", h, lm.Residue())
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
	if lm.Residue() != 2 {
		t.Fatalf("residue %d after two refused acquires, want holder + one waiter", lm.Residue())
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

func TestSemaphoreCounting(t *testing.T) {
	sm := NewSemManager()
	sm.Init(1, 2)
	if !sm.Wait(0, 1) || !sm.Wait(1, 1) {
		t.Fatal("two downs of a 2-valued semaphore should pass")
	}
	if sm.Wait(2, 1) {
		t.Fatal("third down should block")
	}
	next, ok := sm.Post(1)
	if !ok || next != 2 {
		t.Fatalf("post granted %d,%v want 2", next, ok)
	}
	if _, ok := sm.Post(1); ok {
		t.Fatal("post with empty queue should just increment")
	}
	if sm.Value(1) != 1 {
		t.Fatalf("value = %d, want 1", sm.Value(1))
	}
}

func TestSemaphoreZeroStart(t *testing.T) {
	sm := NewSemManager()
	if sm.Wait(0, 9) {
		t.Fatal("wait on fresh semaphore should block")
	}
	if next, ok := sm.Post(9); !ok || next != 0 {
		t.Fatal("post should grant the waiter")
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
	if tb.Arrive(1) {
		t.Fatal("complete after 1/3")
	}
	if tb.Arrive(1) {
		t.Fatal("complete after 2/3")
	}
	if !tb.Arrive(1) {
		t.Fatal("not complete after 3/3")
	}
	// Epoch reset: the next round needs 3 again.
	if tb.Arrive(1) {
		t.Fatal("stale epoch state")
	}
}

func TestTreeBarrierLeaf(t *testing.T) {
	tb := NewTreeBarrier(4, 5, 2) // kernel 4 is a leaf
	if len(tb.Children()) != 0 {
		t.Fatalf("leaf has children %v", tb.Children())
	}
	if !tb.Arrive(1) {
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
		var upward func(k int)
		rootComplete := false
		upward = func(k int) {
			if tbs[k].Arrive(1) {
				if parent, ok := tbs[k].Parent(); ok {
					upward(parent)
				} else {
					rootComplete = true
				}
			}
		}
		for k := 0; k < n; k++ {
			upward(k)
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
