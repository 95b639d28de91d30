package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The scheduling rules of DESIGN.md §6 that the in-place wake-up of
// Proc.Sleep must keep.

func TestSleepZeroYieldsToEventAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("p", func(p *Proc) {
		e.After(0, func() { order = append(order, "queued") })
		p.Sleep(0)
		order = append(order, "p")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"queued", "p"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestSleepsToSameInstantWakeInSeqOrder(t *testing.T) {
	e := NewEngine(1)
	var order []string
	// b starts later but goes to sleep first, so its wake-up has the lower
	// seq and fires first although both are due at t=10.
	e.Spawn("a", func(p *Proc) {
		p.Sleep(4)
		p.Sleep(6)
		order = append(order, "a")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "b")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"b", "a"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %d, want 10", e.Now())
	}
}

func TestSleepPastRunUntilLimitStopsAtLimit(t *testing.T) {
	e := NewEngine(1)
	var woke Time = -1
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10) // alone in the queue: in place
		p.Sleep(90) // also alone, but beyond the limit: must switch out
		woke = p.Now()
	})
	if err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if woke != -1 || e.Now() != 10 {
		t.Fatalf("after RunUntil(50): woke at %d, clock %d; want still asleep, clock 10", woke, e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 100 {
		t.Fatalf("woke at %d, want 100", woke)
	}
}

func TestStopHaltsSleepingProcess(t *testing.T) {
	e := NewEngine(1)
	ranOn := false
	e.Spawn("p", func(p *Proc) {
		e.Stop()
		p.Sleep(10) // alone in the queue, yet must not fire in place
		ranOn = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ranOn || e.Now() != 0 {
		t.Fatalf("process ran on after Stop (ranOn=%v, clock %d)", ranOn, e.Now())
	}
}

func TestInPlaceWakeCountsAsEvent(t *testing.T) {
	const sleeps = 10
	// Alone, every wake-up fires in place; with a second process due in
	// between, every wake-up is dispatched. The event count is the same.
	for _, procs := range []int{1, 2} {
		e := NewEngine(1)
		for i := 0; i < procs; i++ {
			e.Spawn("p", func(p *Proc) {
				for j := 0; j < sleeps; j++ {
					p.Sleep(2)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got, want := e.Stats().Events, uint64(procs*(1+sleeps)); got != want {
			t.Errorf("%d procs: %d events, want %d (one start and %d wake-ups each)", procs, got, want, sleeps)
		}
	}
}

func TestDeadlockListsParkedNames(t *testing.T) {
	e := NewEngine(1)
	c := NewChan[int](e, 0)
	e.Spawn("zed", func(p *Proc) { c.Recv(p) })
	e.Spawn("amy", func(p *Proc) { p.Park() })
	e.Spawn("fine", func(p *Proc) { p.Sleep(1) })
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) || !strings.HasSuffix(err.Error(), ": amy(#2), zed(#1)") {
		t.Fatalf("err = %v, want ErrDeadlock listing amy(#2), zed(#1)", err)
	}
}

func TestProcessPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("p", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the process's panic", r)
		}
	}()
	e.Run()
	t.Fatal("Run returned")
}

func TestCompletedRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	c := NewChan[int](e, 0)
	for i := 0; i < 8; i++ {
		e.Spawn(fmt.Sprint("send", i), func(p *Proc) { p.Sleep(Duration(i)); c.Send(p, i) })
		e.Spawn(fmt.Sprint("recv", i), func(p *Proc) { c.Recv(p) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after the run, %d before", after, before)
	}
}
