package check

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
)

// The memory model Check enforces (DESIGN.md §9):
//
// Every global-memory word is linearizable: each operation appears to take
// effect atomically at some instant inside its invocation/response interval.
// Without caching this is immediate — every access is serialised at the
// word's single home. With the write-invalidate caching protocol it still
// holds, because a write blocks until every cached copy has acknowledged
// invalidation: the write's effect point precedes its response, and any read
// that *starts* after the response can no longer be served from a stale
// copy. A cached read overlapping the write is concurrent and may observe
// either value.
//
// Failed operations (timeout, peer down) may or may not have applied at the
// home; the checker gives them an effect window of [Inv, ∞): they can
// legally be observed any time after invocation, and they never make an
// older value stale.
//
// Weaker tiers (DESIGN.md §14) relax the per-word rules, selected by the
// events' Mode tags (checkObservers):
//
//   - Release: a write is published not by its own response but by its PE's
//     next flush fence (barrier, unlock, or standalone flush event). The
//     apply instant lies inside the fence's [Inv, Resp] bracket, so
//     staleness is judged fence-to-fence; an own buffered write must be
//     visible to its PE until a fence flushes it (read-your-writes), and a
//     never-flushed write must not be visible to any other PE.
//   - Lease: a lease-served read carries its grant window in Arg1/Arg2. It
//     may not be served after expiry (Inv ≤ Arg2), and its staleness bound
//     moves from the read's start to the lease's grant: only writes that
//     completed before the grant make the observation a violation.
//
// The workload discipline the checker relies on: every written value is
// globally unique and non-zero (so a read maps to exactly one writer);
// fetch-add words receive only fetch-adds of one uniform positive delta;
// CAS words receive only CASes whose new values are unique. Atomics must
// not share words with release-mode buffered writes: they serialise at the
// home and would not observe another op's write-combining overlay.

// Violation is one detected memory-model breach.
type Violation struct {
	Kind   string  // e.g. "stale-read", "thin-air-read", "fetchadd-duplicate"
	Addr   uint64  // word (or lock/barrier id) involved
	Msg    string  // human explanation
	Events []Event // the operations forming the violating cycle, in evidence order
}

func (v Violation) String() string {
	s := fmt.Sprintf("%s @%d: %s", v.Kind, v.Addr, v.Msg)
	for _, e := range v.Events {
		s += "\n\t" + e.String()
	}
	return s
}

// Report is the outcome of checking one history.
type Report struct {
	Ops        int // events examined
	Words      int // distinct global-memory words examined
	Violations []Violation
}

// OK reports whether the history is consistent with the memory model.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("checked %d ops over %d words: consistent", r.Ops, r.Words)
	}
	s := fmt.Sprintf("checked %d ops over %d words: %d violation(s)", r.Ops, r.Words, len(r.Violations))
	for _, v := range r.Violations {
		s += "\n" + v.String()
	}
	return s
}

// maxViolations bounds the report: the first violation is the interesting
// one, the rest are usually its echo.
const maxViolations = 16

// infTime stands in for "never responded" when ordering failed ops.
const infTime = math.MaxInt64

// Event.Mode values, mirroring gmem.Mode so the checker stays free of
// runtime dependencies (check/stress asserts the two stay in sync).
const (
	modeStrong  uint8 = 0
	modeRelease uint8 = 1
	modeLease   uint8 = 2
	numModes          = 3
)

// syncFence is one flush fence of a PE: the interval inside which that PE's
// write-combining buffer drained to the homes. resp is effResp — ∞ for a
// fence whose flush may not have finished (failed barriers, flushes with
// lost acks), which keeps every bound conservative: a write covered only by
// such a fence is never provably applied, so it can't convict a reader.
type syncFence struct {
	inv, resp int64
}

// syncIndex holds each PE's flush fences in Inv order.
type syncIndex map[int32][]syncFence

// buildSyncIndex collects barrier, unlock, and standalone flush events —
// every point a release-mode write-combining buffer drains. The history is
// globally Inv-sorted, so each PE's list comes out sorted for free.
func buildSyncIndex(h *History) syncIndex {
	sx := make(syncIndex)
	for i := range h.Events {
		e := &h.Events[i]
		switch e.Kind {
		case KindBarrier, KindUnlock, KindFlush:
			sx[e.PE] = append(sx[e.PE], syncFence{inv: int64(e.Inv), resp: effResp(e)})
		}
	}
	return sx
}

// flushBound returns the fence that published w: the first fence of w's PE
// starting at or after w's buffering completed. ok=false means w was never
// flushed inside the history (its PE recorded no later fence).
func (sx syncIndex) flushBound(w *Event) (syncFence, bool) {
	fences := sx[w.PE]
	wResp := effResp(w)
	i := sort.Search(len(fences), func(i int) bool { return fences[i].inv >= wResp })
	if i == len(fences) {
		return syncFence{}, false
	}
	return fences[i], true
}

// publishWindow brackets when w's value can have reached the word's home: a
// buffered release write publishes inside its flush fence; anything else (an
// atomic, a strong write mixed onto the word, a failed op) publishes inside
// its own effect window.
func publishWindow(sx syncIndex, w *Event) (inv, resp int64, published bool) {
	if w.Kind == KindWrite && w.Mode == modeRelease && !w.Failed {
		f, ok := sx.flushBound(w)
		if !ok {
			return 0, 0, false
		}
		return f.inv, f.resp, true
	}
	return int64(w.Inv), effResp(w), true
}

// Check validates a merged history against the memory model and returns
// everything it found (empty Violations = consistent). The history's
// timestamps must come from one global clock.
func Check(h *History) *Report {
	rep := &Report{Ops: len(h.Events)}
	perWord := make(map[uint64][]int) // GM word -> event indices
	locks := make(map[uint64][]int)   // lock id -> Lock/Unlock indices
	barriers := make(map[uint64][]int)
	tagged := false // any non-strong mode tag in the history?
	for i := range h.Events {
		e := &h.Events[i]
		if e.Mode != 0 {
			tagged = true
		}
		switch e.Kind {
		case KindRead, KindWrite, KindFetchAdd, KindCAS:
			perWord[e.Addr] = append(perWord[e.Addr], i)
		case KindLock, KindUnlock:
			locks[e.Addr] = append(locks[e.Addr], i)
		case KindBarrier:
			barriers[e.Addr] = append(barriers[e.Addr], i)
		}
	}
	var sx syncIndex
	if tagged {
		sx = buildSyncIndex(h)
	}
	rep.Words = len(perWord)
	for _, addr := range slices.Sorted(maps.Keys(perWord)) {
		checkWord(rep, h, sx, addr, perWord[addr])
		if len(rep.Violations) >= maxViolations {
			return rep
		}
	}
	for _, id := range slices.Sorted(maps.Keys(locks)) {
		checkLock(rep, h, id, locks[id])
	}
	for _, id := range slices.Sorted(maps.Keys(barriers)) {
		checkBarrier(rep, h, id, barriers[id])
	}
	return rep
}

func (rep *Report) add(v Violation) {
	if len(rep.Violations) < maxViolations {
		rep.Violations = append(rep.Violations, v)
	}
}

// effResp is the latest instant e's effect can have taken place: its
// response, or ∞ for a failed op that may still be in flight.
func effResp(e *Event) int64 {
	if e.Failed {
		return infTime
	}
	return int64(e.Resp)
}

// writtenValue returns the value e installs at its word, and whether that
// value is knowable. Failed fetch-adds write old+delta with old unknown.
func writtenValue(e *Event) (int64, bool) {
	switch e.Kind {
	case KindWrite:
		return e.Arg1, true
	case KindFetchAdd:
		if e.Failed {
			return 0, false
		}
		return e.Out + e.Arg1, true
	case KindCAS:
		if e.Failed {
			return e.Arg2, true // may have swapped in Arg2
		}
		if e.Ok {
			return e.Arg2, true
		}
		return 0, false // refused: wrote nothing
	}
	return 0, false
}

// reads returns the value e observed at its word, and whether it observed
// one. CAS and fetch-add responses carry the previous value: they are reads
// too.
func observedValue(e *Event) (int64, bool) {
	if e.Failed {
		return 0, false
	}
	switch e.Kind {
	case KindRead, KindFetchAdd, KindCAS:
		return e.Out, true
	}
	return 0, false
}

// checkWord validates the per-word conditions of the word's consistency tier.
func checkWord(rep *Report, h *History, sx syncIndex, addr uint64, idxs []int) {
	// Partition into writers (by installed value) and observers.
	writers := make(map[int64]int, len(idxs)) // value -> event index
	var fetchAdds, casOps, observers []int
	blindFetchAdd := false // a failed fetch-add poisons value mapping
	for _, i := range idxs {
		e := &h.Events[i]
		if e.Kind == KindFetchAdd {
			fetchAdds = append(fetchAdds, i)
			if e.Failed {
				blindFetchAdd = true
			}
		}
		if e.Kind == KindCAS {
			casOps = append(casOps, i)
		}
		if v, ok := writtenValue(e); ok {
			if prev, dup := writers[v]; dup {
				rep.add(Violation{
					Kind: "ambiguous-value", Addr: addr,
					Msg:    fmt.Sprintf("value %d installed by two writers; the workload must write unique values", v),
					Events: []Event{h.Events[prev], *e},
				})
				continue
			}
			writers[v] = i
		}
		if _, ok := observedValue(e); ok {
			observers = append(observers, i)
		}
	}

	// The fetch-add and CAS chain checks hold in every tier: atomics always
	// execute strongly at the home.
	checkFetchAddWord(rep, h, addr, fetchAdds)
	checkCASWord(rep, h, addr, casOps)
	if blindFetchAdd {
		// Some value written to this word is unknowable; reads can no longer
		// be mapped to writers without false positives. The counter checks
		// above still ran.
		return
	}

	// The word's tier is the strongest (weakest-consistency) Mode tag among
	// its events. Allocations are mode-uniform, so in practice every event at
	// a word agrees.
	mode := modeStrong
	for _, i := range idxs {
		if m := h.Events[i].Mode; m > mode && m < numModes {
			mode = m
		}
	}
	checkObservers(rep, h, sx, mode, addr, idxs, writers, observers)
}

// checkObservers is the read discipline of every tier. Each observed value
// maps to the writer that installed it, or to the word's initial value; it
// must come from a real writer invoked before the read completed; and it is
// stale when a write that published after the value's own had completed
// before the read's staleness bound. The tiers differ in three places:
//
//   - The publish window. Under release rules a buffered write publishes
//     inside its flush fence (publishWindow), so staleness is judged fence
//     to fence; otherwise a write publishes inside its own [Inv, effResp].
//   - The staleness bound. A lease-served read (Cached, Mode lease) may
//     observe any value current at its grant (Arg1) and must start before
//     its expiry (Arg2, lease-overstay); every other read is bounded by its
//     own Inv. Home-served observations on lease words keep that bound.
//   - Per-tier rules. Release adds read-your-writes — a PE reads its own
//     buffered writes until a fence flushes them (release-lost-write) — and
//     keeps a never-flushed write invisible to other PEs
//     (release-unflushed-read); its staleness reports are release-stale-read
//     against flushed writes. Strong alone keeps the per-word total order
//     between reads (read-inversion): release gives it up between sync
//     edges, and two PEs' leases legitimately expose writes in opposite
//     orders inside their windows.
func checkObservers(rep *Report, h *History, sx syncIndex, mode uint8, addr uint64, idxs []int, writers map[int64]int, observers []int) {
	release := mode == modeRelease
	published := func(w *Event) (inv, resp int64, ok bool) {
		if release {
			return publishWindow(sx, w)
		}
		return int64(w.Inv), effResp(w), true
	}
	prefix, flushed := "", ""
	if release {
		prefix, flushed = "release-", "flushed "
	}
	// mapped pairs each observer with its writer's event index (-1 for the
	// initial value), for the read-inversion condition.
	type obs struct{ idx, wIdx int }
	var mapped []obs
	// The word's pre-history value: zero, or whatever a checkpoint restore
	// installed. Reads of it have no writer event.
	initVal := h.Baseline[addr]
	for _, i := range observers {
		e := &h.Events[i]
		v, _ := observedValue(e)
		// A write whose publish completed before bound makes e's value stale.
		bound, staleKind := int64(e.Inv), prefix+"stale-read"
		if e.Kind == KindRead && e.Cached && e.Mode == modeLease {
			bound, staleKind = e.Arg1, "lease-stale-read"
			if int64(e.Inv) > e.Arg2 {
				rep.add(Violation{
					Kind: "lease-overstay", Addr: addr,
					Msg:    fmt.Sprintf("read served from a lease %d ticks after its expiry", int64(e.Inv)-e.Arg2),
					Events: []Event{*e},
				})
			}
		}
		// Release: the observer's latest own successful write before it, in
		// program order — the value its write-combining overlay must serve
		// while unflushed.
		own := -1
		if release {
			for _, j := range idxs {
				w := &h.Events[j]
				if w.PE != e.PE || w.Seq >= e.Seq || w.Failed {
					continue
				}
				if _, isW := writtenValue(w); isW && (own < 0 || w.Seq > h.Events[own].Seq) {
					own = j
				}
			}
		}

		if v == initVal {
			if own >= 0 {
				rep.add(Violation{
					Kind: "release-lost-write", Addr: addr,
					Msg:    "read the initial value after writing the word itself",
					Events: []Event{h.Events[own], *e},
				})
				continue
			}
			for _, j := range idxs {
				w := &h.Events[j]
				if _, isW := writtenValue(w); !isW || w.Failed {
					continue
				}
				if _, wResp, ok := published(w); ok && wResp < bound {
					rep.add(Violation{
						Kind: staleKind, Addr: addr,
						Msg:    "read the initial value after a " + flushed + "write had completed",
						Events: []Event{*w, *e},
					})
					break
				}
			}
			mapped = append(mapped, obs{idx: i, wIdx: -1})
			continue
		}
		j, ok := writers[v]
		if !ok {
			rep.add(Violation{
				Kind: "thin-air-read", Addr: addr,
				Msg:    fmt.Sprintf("observed value %d that no operation wrote", v),
				Events: []Event{*e},
			})
			continue
		}
		w := &h.Events[j]
		if int64(w.Inv) > int64(e.Resp) {
			rep.add(Violation{
				Kind: "future-read", Addr: addr,
				Msg:    "read completed before its writer was invoked",
				Events: []Event{*w, *e},
			})
			continue
		}
		if own >= 0 && j != own {
			o := &h.Events[own]
			if w.PE == e.PE {
				// Observed an own older write: the buffer coalesces per word
				// last-writer-wins, so a superseded own value can never
				// resurface for its writer.
				rep.add(Violation{
					Kind: "release-lost-write", Addr: addr,
					Msg:    fmt.Sprintf("read own superseded value %d instead of the latest own write", v),
					Events: []Event{*w, *o, *e},
				})
				continue
			}
			if finv, _, ok := published(o); !ok || finv >= int64(e.Resp) {
				// The own latest write was still buffered for the whole read
				// (its flush, if any, began only after the read completed):
				// the overlay must have served it, not another PE's value.
				rep.add(Violation{
					Kind: "release-lost-write", Addr: addr,
					Msg:    fmt.Sprintf("read another PE's value %d while an own write was still buffered", v),
					Events: []Event{*o, *e},
				})
				continue
			}
		}
		_, wResp, wPub := published(w)
		if !wPub {
			if w.PE != e.PE {
				rep.add(Violation{
					Kind: "release-unflushed-read", Addr: addr,
					Msg:    fmt.Sprintf("observed value %d from another PE's never-flushed buffered write", v),
					Events: []Event{*w, *e},
				})
			}
			// An own unflushed write is the observer's to read, and it
			// cannot be provably overwritten.
			continue
		}
		for _, j2 := range idxs {
			w2 := &h.Events[j2]
			if j2 == j || w2.Failed {
				continue
			}
			if _, isW := writtenValue(w2); !isW {
				continue
			}
			if w2inv, w2resp, ok := published(w2); ok && wResp < w2inv && w2resp < bound {
				rep.add(Violation{
					Kind: staleKind, Addr: addr,
					Msg:    fmt.Sprintf("read value %d after a later %swrite had completed", v, flushed),
					Events: []Event{*w, *w2, *e},
				})
				break
			}
		}
		mapped = append(mapped, obs{idx: i, wIdx: j})
	}
	if mode != modeStrong {
		return
	}

	// Read inversion: two reads ordered in real time must not observe
	// writes in the opposite real-time order (per-word total write order).
	for a := 0; a < len(mapped); a++ {
		ra := &h.Events[mapped[a].idx]
		for b := 0; b < len(mapped); b++ {
			if a == b || mapped[a].wIdx == mapped[b].wIdx {
				continue
			}
			rb := &h.Events[mapped[b].idx]
			if int64(ra.Resp) >= int64(rb.Inv) {
				continue // not ordered: ra does not precede rb
			}
			// ra < rb in real time. rb's writer must not be strictly before
			// ra's writer: wb entirely before wa's invocation means rb went
			// back in time. A read of the initial value on either side is
			// covered by the staleness check above.
			if mapped[a].wIdx == -1 || mapped[b].wIdx == -1 {
				continue
			}
			waInv := int64(h.Events[mapped[a].wIdx].Inv)
			wbResp := effResp(&h.Events[mapped[b].wIdx])
			if wbResp < waInv {
				rep.add(Violation{
					Kind: "read-inversion", Addr: addr,
					Msg:    "later read observed an earlier write than a preceding read",
					Events: []Event{h.Events[mapped[b].wIdx], h.Events[mapped[a].wIdx], *ra, *rb},
				})
				return
			}
		}
	}
}

// checkFetchAddWord validates exactly-once atomicity of a fetch-add counter:
// with one uniform positive delta, the observed previous values must be
// distinct multiples of it, bounded by the attempt count, and real-time
// monotone. A duplicate previous value means an increment was applied twice
// (a retry slipping past the dedup window) or two increments raced.
func checkFetchAddWord(rep *Report, h *History, addr uint64, idxs []int) {
	if len(idxs) == 0 {
		return
	}
	delta := h.Events[idxs[0]].Arg1
	uniform := delta > 0
	succeeded, failed := 0, 0
	for _, i := range idxs {
		e := &h.Events[i]
		if e.Arg1 != delta {
			uniform = false
		}
		if e.Failed {
			failed++
		} else {
			succeeded++
		}
	}
	if !uniform {
		return // mixed deltas: outs may legitimately repeat
	}
	// A restored counter starts at its checkpointed value, not zero; the
	// torn/overrun/lost arithmetic below is relative to that base.
	base := h.Baseline[addr]
	if base%delta != 0 || base < 0 {
		return // restored base not from this delta's chain: skip arithmetic checks
	}
	seen := make(map[int64]int, succeeded)
	for _, i := range idxs {
		e := &h.Events[i]
		if e.Failed {
			continue
		}
		if prev, dup := seen[e.Out]; dup {
			rep.add(Violation{
				Kind: "fetchadd-duplicate", Addr: addr,
				Msg:    fmt.Sprintf("two fetch-adds observed the same previous value %d (an increment applied twice or lost)", e.Out),
				Events: []Event{h.Events[prev], *e},
			})
		}
		seen[e.Out] = i
		if e.Out%delta != 0 || e.Out < base {
			rep.add(Violation{
				Kind: "fetchadd-torn", Addr: addr,
				Msg:    fmt.Sprintf("previous value %d is not a multiple of the uniform delta %d at or above the base %d", e.Out, delta, base),
				Events: []Event{*e},
			})
		}
		if e.Out > base+delta*int64(succeeded+failed-1) {
			rep.add(Violation{
				Kind: "fetchadd-overrun", Addr: addr,
				Msg:    fmt.Sprintf("previous value %d exceeds what %d attempts from base %d can produce", e.Out, succeeded+failed, base),
				Events: []Event{*e},
			})
		}
		// Real-time monotonicity: an increment entirely before another must
		// observe the smaller previous value.
		for _, j := range idxs {
			f := &h.Events[j]
			if f.Failed || i == j {
				continue
			}
			if int64(e.Resp) < int64(f.Inv) && e.Out > f.Out {
				rep.add(Violation{
					Kind: "fetchadd-order", Addr: addr,
					Msg:    "a later fetch-add observed a smaller counter",
					Events: []Event{*e, *f},
				})
			}
		}
	}
	if failed == 0 {
		// Every attempt responded: the counter must read exactly
		// base..base+(n-1)*delta with nothing lost.
		for n := 0; n < succeeded; n++ {
			if _, ok := seen[base+delta*int64(n)]; !ok {
				rep.add(Violation{
					Kind: "fetchadd-lost", Addr: addr,
					Msg: fmt.Sprintf("no fetch-add observed previous value %d although all %d attempts responded", base+delta*int64(n), succeeded),
				})
				break
			}
		}
	}
}

// checkCASWord validates atomicity of a CAS chain: no two successful swaps
// may consume the same previous value (a fork means both swapped from the
// same state), and a CAS that observed its expected value must succeed.
func checkCASWord(rep *Report, h *History, addr uint64, idxs []int) {
	consumed := make(map[int64]int, len(idxs))
	for _, i := range idxs {
		e := &h.Events[i]
		if e.Failed {
			continue
		}
		if e.Ok {
			if prev, dup := consumed[e.Out]; dup {
				rep.add(Violation{
					Kind: "cas-fork", Addr: addr,
					Msg:    fmt.Sprintf("two successful CASes both swapped from value %d", e.Out),
					Events: []Event{h.Events[prev], *e},
				})
			}
			consumed[e.Out] = i
		} else if e.Out == e.Arg1 {
			rep.add(Violation{
				Kind: "cas-refused", Addr: addr,
				Msg:    fmt.Sprintf("CAS observed its expected value %d yet reported no swap", e.Out),
				Events: []Event{*e},
			})
		}
	}
}

// checkLock validates mutual exclusion: the [grant, release-request] windows
// of one lock id must be disjoint across PEs. (The window undershoots the
// true hold — release takes effect at the manager after Unlock.Inv — so this
// never false-positives.)
func checkLock(rep *Report, h *History, id uint64, idxs []int) {
	type hold struct{ lock, unlock int }
	var holds []hold
	open := make(map[int32]int) // PE -> index of its open Lock event
	for _, i := range idxs {
		e := &h.Events[i]
		switch e.Kind {
		case KindLock:
			if e.Failed {
				continue
			}
			open[e.PE] = i
		case KindUnlock:
			if l, ok := open[e.PE]; ok {
				holds = append(holds, hold{lock: l, unlock: i})
				delete(open, e.PE)
			}
		}
	}
	for a := 0; a < len(holds); a++ {
		la, ua := &h.Events[holds[a].lock], &h.Events[holds[a].unlock]
		for b := a + 1; b < len(holds); b++ {
			lb, ub := &h.Events[holds[b].lock], &h.Events[holds[b].unlock]
			if la.PE == lb.PE {
				continue
			}
			if int64(la.Resp) < int64(ub.Inv) && int64(lb.Resp) < int64(ua.Inv) {
				rep.add(Violation{
					Kind: "lock-overlap", Addr: id,
					Msg:    fmt.Sprintf("PE %d and PE %d held lock %d simultaneously", la.PE, lb.PE, id),
					Events: []Event{*la, *ua, *lb, *ub},
				})
				return
			}
		}
	}
}

// checkBarrier validates barrier semantics: in each round, no PE may be
// released before every participating PE has arrived.
func checkBarrier(rep *Report, h *History, id uint64, idxs []int) {
	rounds := make(map[int32][]int) // PE -> its barrier events in order
	for _, i := range idxs {
		e := &h.Events[i]
		if e.Failed {
			continue
		}
		rounds[e.PE] = append(rounds[e.PE], i)
	}
	if len(rounds) < 2 {
		return
	}
	// Visit the PEs in order, so that ties between arrivals or releases
	// name the same PEs in every report.
	pes := slices.Sorted(maps.Keys(rounds))
	minRounds := -1
	for _, pe := range pes {
		if r := rounds[pe]; minRounds < 0 || len(r) < minRounds {
			minRounds = len(r)
		}
	}
	for k := 0; k < minRounds; k++ {
		var maxInv, minResp int64 = 0, infTime
		var late, early *Event
		for _, pe := range pes {
			e := &h.Events[rounds[pe][k]]
			if int64(e.Inv) > maxInv {
				maxInv, late = int64(e.Inv), e
			}
			if int64(e.Resp) < minResp {
				minResp, early = int64(e.Resp), e
			}
		}
		if minResp < maxInv {
			rep.add(Violation{
				Kind: "barrier-order", Addr: id,
				Msg:    fmt.Sprintf("round %d: PE %d was released before PE %d arrived", k, early.PE, late.PE),
				Events: []Event{*early, *late},
			})
			return
		}
	}
}
