// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine models virtual time with nanosecond resolution. Simulated
// activities run as cooperative processes: coroutines (iter.Pull) that the
// engine switches to directly, one at a time, from the goroutine that called
// Run, so exactly one process (or the engine itself) runs at any instant and
// no switch goes through the Go scheduler. Scheduling is fully
// deterministic: events fire in the total order (time, creation sequence
// number), and all randomness comes from a seedable PRNG.
//
// The package is the foundation for the cluster substrate: machines, the
// Ethernet bus and DSE kernels are all sim processes exchanging values over
// simulated channels, while computation advances virtual time through
// Proc.Sleep according to per-platform cost models. DESIGN.md §6 has the
// scheduling rules.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"sort"
	"strings"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Common durations, mirroring time package conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// ErrDeadlock is returned by Run when no events remain but live processes
// are still parked waiting for one another.
var ErrDeadlock = errors.New("sim: deadlock: all processes parked and no events pending")

// event is one entry of the queue: a callback for engine context, or the
// wake-up of a process. Events fire in (at, seq) order; seq is unique.
type event struct {
	at   Time
	seq  uint64
	fn   func() // evCall
	p    *Proc  // evResume, evUnpark
	kind evKind
}

type evKind uint8

const (
	evCall   evKind = iota // run fn in engine context
	evResume               // switch to p: its start, or the end of a Sleep
	evUnpark               // switch to p if it is still parked
)

func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine owns the virtual clock and the event queue.
//
// An Engine must be driven by a single caller: construct it, spawn the
// initial processes, then call Run. Processes may spawn further processes
// and schedule callbacks while the run is in progress.
type Engine struct {
	now    Time
	seq    uint64
	events []event // binary min-heap of values, ordered by event.before
	limit  Time    // the current RunUntil's limit: no event beyond it fires
	rng    *Rand

	procs   map[*Proc]struct{}
	nextPID int
	stats   EngineStats
	running bool
	stopped bool
}

// EngineStats aggregates counters over a run.
type EngineStats struct {
	Events    uint64 // events dispatched
	Spawned   int    // processes ever spawned
	Completed int    // processes that ran to completion
}

// NewEngine returns an engine with its clock at zero and PRNG seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		rng:   NewRand(seed),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic PRNG.
func (e *Engine) Rand() *Rand { return e.rng }

// Stats returns a snapshot of the run counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// schedule stamps ev with the next sequence number and sifts it into the
// heap. A time in the past clamps to the present.
func (e *Engine) schedule(ev event) {
	if ev.at < e.now {
		ev.at = e.now
	}
	e.seq++
	ev.seq = e.seq
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the references
	h = h[:n]
	for i := 0; n > 0; {
		c := 2*i + 1
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if c >= n || !h[c].before(&last) {
			h[i] = last
			break
		}
		h[i] = h[c]
		i = c
	}
	e.events = h
	return top
}

// At schedules fn to run in engine context at absolute virtual time at.
// Scheduling in the past clamps to the present.
func (e *Engine) At(at Time, fn func()) { e.schedule(event{at: at, fn: fn}) }

// After schedules fn to run in engine context after d has elapsed.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now+d, fn) }

// Spawn creates a process named name running fn and schedules it to start
// at the current virtual time. It may be called before Run or from any
// running process.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	e.nextPID++
	p := &Proc{eng: e, name: name, pid: e.nextPID}
	e.procs[p] = struct{}{}
	e.stats.Spawned++
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
		p.done = true
		e.stats.Completed++
		delete(e.procs, p)
	})
	e.schedule(event{at: e.now, kind: evResume, p: p})
	return p
}

// fire dispatches one event. A process it switches to runs on this
// goroutine's time until it yields or exits; a panic in it comes out here.
func (e *Engine) fire(ev event) {
	e.now = ev.at
	e.stats.Events++
	switch {
	case ev.kind == evCall:
		ev.fn()
	case ev.p.done, ev.kind == evUnpark && !ev.p.parked:
		// Nothing to wake: the process exited, or was already woken.
	default:
		ev.p.parked = false
		ev.p.next()
	}
}

// Run dispatches events until none remain, then reports how the run ended.
// It returns nil when every spawned process has completed, ErrDeadlock when
// live processes remain parked with no pending events, and nil if the run
// was stopped explicitly. A panic in a process or callback propagates to
// the caller of Run.
func (e *Engine) Run() error {
	if err := e.RunUntil(math.MaxInt64); err != nil || e.stopped {
		return err
	}
	if len(e.procs) > 0 {
		return fmt.Errorf("%w: %s", ErrDeadlock, e.parkedNames())
	}
	return nil
}

// RunUntil dispatches events up to and including virtual time limit.
// The clock is left at min(limit, time of last dispatched event).
func (e *Engine) RunUntil(limit Time) error {
	if e.running {
		return errors.New("sim: Run called reentrantly")
	}
	e.running, e.limit = true, limit
	defer func() { e.running = false }()
	for len(e.events) > 0 && !e.stopped && e.events[0].at <= limit {
		e.fire(e.pop())
	}
	return nil
}

// Stop ends the run after the current event completes: the process that is
// running goes on until it next blocks, and nothing else is dispatched.
// Processes still parked or sleeping are abandoned — their coroutines are
// never switched to again and are not reclaimed — so Stop is intended for
// harness timeouts, not normal shutdown.
func (e *Engine) Stop() { e.stopped = true }

func (e *Engine) parkedNames() string {
	names := make([]string, 0, len(e.procs))
	for p := range e.procs {
		names = append(names, fmt.Sprintf("%s(#%d)", p.name, p.pid))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
