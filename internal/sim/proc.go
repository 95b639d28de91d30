package sim

// Proc is a cooperative simulated process: a coroutine the engine switches
// to when one of its wake-up events fires. It runs until its next blocking
// operation (Sleep, Park, channel operations), which switches straight back
// to the engine; the engine then advances the virtual clock and fires the
// next event. Between two switches nothing else runs.
//
// All Proc methods except Unpark must be called from the process itself.
type Proc struct {
	eng  *Engine
	name string
	pid  int
	// next switches from the engine to the process and returns when the
	// process yields or exits; yield switches back. Both are the two ends
	// of one iter.Pull. The engine never stops the pull, so yield always
	// reports true.
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	parked bool
	done   bool
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep advances this process's virtual time by d, letting other processes
// run in the meantime. Non-positive durations do not advance time but let
// everything already queued for the current instant run first (a fairness
// point).
//
// When the wake-up would be the very next event to fire — nothing else is
// queued at or before it — Sleep fires it in place: the clock moves, the
// event is counted, and the process carries on without a switch.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	at := e.now + d
	if !e.stopped && at <= e.limit && (len(e.events) == 0 || e.events[0].at > at) {
		e.seq++
		e.now = at
		e.stats.Events++
		return
	}
	e.schedule(event{at: at, kind: evResume, p: p})
	p.yield(struct{}{})
}

// Park blocks the process until another process or event calls Unpark.
// The caller must have registered itself somewhere an Unpark will find it;
// parking with no registered waker deadlocks the run (and is reported).
func (p *Proc) Park() {
	p.parked = true
	p.yield(struct{}{})
}

// Unpark schedules p to resume at the current virtual time. It may be called
// from any process or event callback. Unparking a process that is not parked
// is a no-op by the time the wake event fires.
func (p *Proc) Unpark() { p.eng.schedule(event{at: p.eng.now, kind: evUnpark, p: p}) }

// Spawn starts a child process at the current virtual time.
func (p *Proc) Spawn(name string, fn func(*Proc)) *Proc {
	return p.eng.Spawn(name, fn)
}
