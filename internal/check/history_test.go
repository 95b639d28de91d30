package check

import (
	"testing"

	"repro/internal/sim"
)

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	pr := r.PE(0)
	if pr != nil {
		t.Fatal("nil Recorder must hand out nil PERecorders")
	}
	pr.Add(Event{}) // must not panic
	pr.Complete(pr.Begin(Event{}), 0, false, 0)
	pr.SetClock(nil)
	h := pr.Open(KindRead, 8, 0, 0, 0)
	pr.CloseRead(h, 1, false, 0, 0)
	pr.Close(h, 1, true)
	pr.FailReads(h, 1)
}

// tick is a clock that advances by one on every reading.
type tick struct{ t sim.Time }

func (c *tick) Now() sim.Time { c.t++; return c.t }

// The clocked tier stamps invocation and response itself, leaves an event
// Failed until its result closes it, and closes a failed read's interval
// while leaving a failed mutation's open.
func TestRecorderClockedOpenClose(t *testing.T) {
	r := NewRecorder(1)
	pr := r.PE(0)
	pr.SetClock(&tick{})
	rd := pr.Open(KindRead, 8, 0, 0, 2)      // Inv 1
	wr := pr.Open(KindWrite, 9, 7, 0, 0)     // Inv 2
	lost := pr.Open(KindRead, 10, 0, 0, 0)   // Inv 3
	stuck := pr.Open(KindWrite, 11, 1, 0, 0) // Inv 4
	pr.CloseRead(rd, 5, true, 20, 30)        // Resp 5
	pr.Close(wr, 0, true)                    // Resp 6
	pr.FailReads(rd, 4)                      // Resp 7, on the open read only
	ev := r.History().Events
	if e := ev[rd]; e.Failed || e.Out != 5 || !e.Cached || e.Arg1 != 20 || e.Arg2 != 30 || e.Mode != 2 || e.Inv != 1 || e.Resp != 5 {
		t.Errorf("closed read: %+v", e)
	}
	if e := ev[wr]; e.Failed || !e.Ok || e.Arg1 != 7 || e.Inv != 2 || e.Resp != 6 {
		t.Errorf("closed write: %+v", e)
	}
	if e := ev[lost]; !e.Failed || e.Resp != 7 {
		t.Errorf("failed read must stay Failed with its interval closed: %+v", e)
	}
	if e := ev[stuck]; !e.Failed || e.Resp != 0 {
		t.Errorf("failed mutation must stay open-ended: %+v", e)
	}
}

func TestRecorderMergeOrdersByInvocation(t *testing.T) {
	r := NewRecorder(2)
	r.PE(1).Add(Event{Kind: KindWrite, Addr: 8, Arg1: 2, Inv: 5, Resp: 6})
	r.PE(0).Add(Event{Kind: KindWrite, Addr: 8, Arg1: 1, Inv: 1, Resp: 2})
	idx := r.PE(0).Begin(Event{Kind: KindWrite, Addr: 8, Arg1: 3, Inv: 9})
	h := r.History()
	if h.Len() != 3 {
		t.Fatalf("merged %d events, want 3", h.Len())
	}
	if h.Events[0].Arg1 != 1 || h.Events[1].Arg1 != 2 || h.Events[2].Arg1 != 3 {
		t.Fatalf("events not in invocation order: %v", h.Events)
	}
	if !h.Events[2].Failed {
		t.Fatal("un-completed Begin event must stay Failed")
	}
	r.PE(0).Complete(idx, 0, true, 10)
	if h2 := r.History(); h2.Events[2].Failed || h2.Events[2].Resp != 10 {
		t.Fatalf("Complete not reflected: %v", h2.Events[2])
	}
}

func TestHistoryDigestDeterministic(t *testing.T) {
	build := func() *History {
		r := NewRecorder(2)
		r.PE(0).Add(Event{Kind: KindWrite, Addr: 8, Arg1: 7, Inv: 1, Resp: 2})
		r.PE(1).Add(Event{Kind: KindRead, Addr: 8, Out: 7, Inv: 3, Resp: 4, Cached: true})
		return r.History()
	}
	d1, d2 := build().Digest(), build().Digest()
	if d1 != d2 {
		t.Fatalf("same history, different digests: %s vs %s", d1, d2)
	}
	r := NewRecorder(2)
	r.PE(0).Add(Event{Kind: KindWrite, Addr: 8, Arg1: 8, Inv: 1, Resp: 2})
	if d3 := r.History().Digest(); d3 == d1 {
		t.Fatal("different histories share a digest")
	}
}
