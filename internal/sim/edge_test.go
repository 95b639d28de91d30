package sim

import (
	"testing"
	"testing/quick"
)

func TestTrySendToWaitingReceiver(t *testing.T) {
	e := NewEngine(1)
	c := NewChan[int](e, 0)
	var got int
	e.Spawn("recv", func(p *Proc) {
		v, _ := c.Recv(p)
		got = v
	})
	e.Spawn("send", func(p *Proc) {
		p.Sleep(Millisecond)
		if !c.TrySend(5) {
			t.Error("TrySend failed with a waiting receiver")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 5 {
		t.Fatalf("got %d", got)
	}
}

func TestTrySendFullBufferFails(t *testing.T) {
	e := NewEngine(1)
	c := NewChan[int](e, 1)
	if !c.TrySend(1) {
		t.Fatal("first TrySend should fit the buffer")
	}
	if c.TrySend(2) {
		t.Fatal("second TrySend should fail")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestTryRecvEmptyAndBuffered(t *testing.T) {
	e := NewEngine(1)
	c := NewChan[int](e, 2)
	if _, ok := c.TryRecv(); ok {
		t.Fatal("TryRecv on empty channel succeeded")
	}
	c.TrySend(9)
	if v, ok := c.TryRecv(); !ok || v != 9 {
		t.Fatalf("TryRecv = %d,%v", v, ok)
	}
}

func TestSpuriousUnparkIsHarmless(t *testing.T) {
	e := NewEngine(1)
	c := NewChan[int](e, 0)
	var got int
	var recv *Proc
	recv = e.Spawn("recv", func(p *Proc) {
		v, _ := c.Recv(p)
		got = v
	})
	e.Spawn("annoyer", func(p *Proc) {
		// Wake the receiver without giving it data: it must re-park.
		recv.Unpark()
		recv.Unpark()
		p.Sleep(Millisecond)
		c.Send(p, 3)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 3 {
		t.Fatalf("got %d", got)
	}
}

func TestStopAbandonsRun(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(1, func() { fired++; e.Stop() })
	e.At(2, func() { fired++ })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (stopped)", fired)
	}
}

func TestRunUntilThenRunContinues(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	if err := e.RunUntil(15); err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 {
		t.Fatalf("order = %v after RunUntil", order)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[1] != 2 {
		t.Fatalf("order = %v after Run", order)
	}
}

func TestChanCloseDrainsBufferFirst(t *testing.T) {
	e := NewEngine(1)
	c := NewChan[int](e, 4)
	c.TrySend(1)
	c.TrySend(2)
	c.Close()
	var vals []int
	closedOK := false
	e.Spawn("recv", func(p *Proc) {
		for {
			v, ok := c.Recv(p)
			if !ok {
				closedOK = true
				return
			}
			vals = append(vals, v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("vals = %v", vals)
	}
	if !closedOK {
		t.Fatal("close not observed after drain")
	}
}

func TestEngineForkedRandsIndependent(t *testing.T) {
	r := NewRand(5)
	a, b := r.Fork(), r.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked generators correlated: %d/100", same)
	}
}

// Property: a Queue pops what a plain slice would, through every rewind and
// slide of its backing array.
func TestQueueMatchesSliceModel(t *testing.T) {
	f := func(ops []uint8) bool {
		var q Queue[int]
		var model []int
		next := 0
		for _, op := range ops {
			if op%3 != 0 || len(model) == 0 { // two pushes for every pop
				q.Push(next)
				model = append(model, next)
				next++
			} else if got := q.Pop(); got != model[0] {
				return false
			} else {
				model = model[1:]
			}
			if q.Len() != len(model) {
				return false
			}
		}
		for _, want := range model {
			if q.Pop() != want {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnbufferedSenderWaitsForReceiver(t *testing.T) {
	e := NewEngine(1)
	c := NewChan[int](e, 0)
	var sentAt, got []Time
	e.Spawn("send", func(p *Proc) {
		for i := 0; i < 3; i++ { // the third reuses a recycled waiter
			c.Send(p, i)
			sentAt = append(sentAt, p.Now())
		}
	})
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Millisecond)
			if v, ok := c.Recv(p); !ok || v != i {
				t.Errorf("Recv = %d,%v, want %d", v, ok, i)
			}
			got = append(got, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, at := range sentAt {
		if at != got[i] {
			t.Fatalf("send %d returned at %v, receiver took it at %v", i, at, got[i])
		}
	}
}
