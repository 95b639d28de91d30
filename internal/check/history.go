// Package check is the deterministic correctness-verification subsystem:
// an operation-history recorder the core runtime hooks into (behind
// core.Config.RecordHistory), and a consistency checker (Check) that
// validates recorded histories against the DSM memory model — per-word
// linearizability for strong operations and atomics, and the release and
// lease tiers' relaxed rules.
//
// The package is deliberately free of core dependencies so the runtime can
// import it; the seeded stress runner that drives core lives in the
// check/stress subpackage.
package check

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Kind classifies one recorded operation.
type Kind uint8

// Operation kinds.
const (
	KindRead     Kind = iota // Out = value observed
	KindWrite                // Arg1 = value written
	KindFetchAdd             // Arg1 = delta, Out = previous value
	KindCAS                  // Arg1 = expected, Arg2 = new, Out = previous, Ok = swapped
	KindLock                 // Addr = lock id; Inv..Resp spans acquire
	KindUnlock               // Addr = lock id; Inv = release request time
	KindBarrier              // Addr = barrier id; Inv = arrival, Resp = release
	// KindFlush is a release-consistency write-combining-buffer flush: one is
	// recorded at EVERY sync edge whose buffer was non-empty (barrier entry,
	// lock release, membership fence), with Inv stamped to
	// the enclosing sync operation's own invocation instant and a lower Seq,
	// so the flush sorts ahead of that sync event at equal Inv. Inv..Resp
	// brackets drain-to-ack — the window inside which every buffered write
	// reached its home — and a flush that failed anywhere is left Failed
	// (open-ended), shielding its writes from convicting readers. Arg1 =
	// words flushed. Never recorded when the buffer was empty, which keeps
	// strong-mode histories free of them.
	KindFlush
)

var kindNames = [...]string{"read", "write", "fetch-add", "cas", "lock", "unlock", "barrier", "flush"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one recorded operation: an invocation/response interval plus the
// operation's arguments and observed result. Failed operations (timeout,
// peer down) keep Failed=true. A failed mutation keeps a zero Resp — it MAY
// have applied at its home, so the checker treats its effect window as
// [Inv, ∞); a failed read gets the failure instant from FailReads and
// observes nothing.
type Event struct {
	PE     int32
	Seq    int32 // per-PE record index; stable tiebreak and replay identity
	Kind   Kind
	Addr   uint64 // word address; lock/barrier id for sync events
	Arg1   int64
	Arg2   int64
	Out    int64
	Ok     bool // CAS: swap happened
	Failed bool // op errored; effect unknown
	Cached bool // read served from a lease's block snapshot
	// Mode tags the consistency tier of the operation's allocation
	// (gmem.Mode values: 0 strong, 1 release, 2 lease). Release-mode writes
	// record their buffering interval, not a home round trip; lease-mode
	// reads are Cached with Arg1 = the lease's grant time and Arg2 = its
	// expiry, the window that bounds their permitted staleness.
	Mode uint8
	Inv  sim.Time
	Resp sim.Time
}

func (e Event) String() string {
	status := ""
	if e.Failed {
		status = " FAILED"
	}
	if e.Cached {
		status += " cached"
	}
	switch e.Kind {
	case KindRead:
		return fmt.Sprintf("PE%d#%d read(%d)=%d [%d,%d]%s", e.PE, e.Seq, e.Addr, e.Out, e.Inv, e.Resp, status)
	case KindWrite:
		return fmt.Sprintf("PE%d#%d write(%d,%d) [%d,%d]%s", e.PE, e.Seq, e.Addr, e.Arg1, e.Inv, e.Resp, status)
	case KindFetchAdd:
		return fmt.Sprintf("PE%d#%d fetchadd(%d,%+d)=%d [%d,%d]%s", e.PE, e.Seq, e.Addr, e.Arg1, e.Out, e.Inv, e.Resp, status)
	case KindCAS:
		return fmt.Sprintf("PE%d#%d cas(%d,%d->%d)=(%d,%v) [%d,%d]%s", e.PE, e.Seq, e.Addr, e.Arg1, e.Arg2, e.Out, e.Ok, e.Inv, e.Resp, status)
	default:
		return fmt.Sprintf("PE%d#%d %v(id=%d) [%d,%d]%s", e.PE, e.Seq, e.Kind, e.Addr, e.Inv, e.Resp, status)
	}
}

// PERecorder collects one PE's events. A PE is single-threaded, so the
// recorder is lock-free; the merged history is read only after the cluster
// has quiesced.
type PERecorder struct {
	events []Event
	pe     int32
	clock  Clock // stamps Open/Close; nil until SetClock
}

// Add appends a completed event (sync ops record after success).
func (r *PERecorder) Add(ev Event) {
	if r == nil {
		return
	}
	ev.PE = r.pe
	ev.Seq = int32(len(r.events))
	r.events = append(r.events, ev)
}

// Begin appends ev as in-flight — Failed until completed — and returns its
// index. Global-memory ops are recorded in-flight first, so an op that dies
// mid-request (timeout, panic, peer down) is retained with its "may have
// applied" status rather than lost.
func (r *PERecorder) Begin(ev Event) int {
	if r == nil {
		return -1
	}
	ev.PE = r.pe
	ev.Seq = int32(len(r.events))
	ev.Failed = true
	r.events = append(r.events, ev)
	return len(r.events) - 1
}

// Complete marks the Begin-ed event idx successful with its observed result.
func (r *PERecorder) Complete(idx int, out int64, ok bool, resp sim.Time) {
	if r == nil {
		return
	}
	e := &r.events[idx]
	e.Out, e.Ok, e.Resp = out, ok, resp
	e.Failed = false
}

// Clock supplies the instants Open, Close, CloseRead and FailReads stamp
// (the runtime hands in the PE's own clock: virtual time under simulation).
type Clock interface{ Now() sim.Time }

// SetClock installs the clock of the PE recording through r.
func (r *PERecorder) SetClock(c Clock) {
	if r != nil {
		r.clock = c
	}
}

// Open, Close, CloseRead and FailReads record a global-memory operation as
// the runtime's access path sees it: opened at invocation — one event per
// word, contiguous for a multi-word operation — and closed with the word's
// result. Open and CloseRead, the two on the path of a read that can take
// tens of nanoseconds, are a nil check in front of the real work, small
// enough to inline, so recording switched off costs that path no call.

// Open Begins an operation invoked now and returns its index.
func (r *PERecorder) Open(kind Kind, addr uint64, arg1, arg2 int64, mode uint8) int {
	if r == nil {
		return -1
	}
	return r.open(kind, addr, arg1, arg2, mode)
}

func (r *PERecorder) open(kind Kind, addr uint64, arg1, arg2 int64, mode uint8) int {
	return r.Begin(Event{Kind: kind, Addr: addr, Arg1: arg1, Arg2: arg2, Mode: mode, Inv: r.clock.Now()})
}

// Close Completes the mutation (or flush) idx now.
func (r *PERecorder) Close(idx int, out int64, ok bool) {
	if r != nil {
		r.Complete(idx, out, ok, r.clock.Now())
	}
}

// CloseRead marks the read idx successful now: out is the value observed,
// cached whether a local copy (block cache or lease) served it. A
// lease-served read carries its lease's grant and expiry instants, the window
// that bounds its permitted staleness (see Event.Mode).
func (r *PERecorder) CloseRead(idx int, out int64, cached bool, grant, until sim.Time) {
	if r != nil {
		r.closeRead(idx, out, cached, grant, until)
	}
}

func (r *PERecorder) closeRead(idx int, out int64, cached bool, grant, until sim.Time) {
	e := &r.events[idx]
	e.Out, e.Cached, e.Arg1, e.Arg2, e.Resp = out, cached, int64(grant), int64(until), r.clock.Now()
	e.Failed = false
}

// FailReads stamps the failure instant on the reads still open among the n
// events starting at idx. They stay Failed, but a failed read had no effect on
// memory, so unlike a failed mutation (left open-ended: it may have applied)
// its interval is closed.
func (r *PERecorder) FailReads(idx, n int) {
	if r == nil {
		return
	}
	now := r.clock.Now()
	for i := idx; i < idx+n; i++ {
		if e := &r.events[i]; e.Failed && e.Kind == KindRead {
			e.Resp = now
		}
	}
}

// Recorder fans out one PERecorder per PE.
type Recorder struct {
	pes      []*PERecorder
	baseline map[uint64]int64
}

// SetBaseline records that word addr held val at the start of the run — a
// value restored from a checkpoint, with no writer event in this history.
// The checker treats reads of a baseline value like reads of the initial
// zero: legal until a new write to the word completes.
func (r *Recorder) SetBaseline(addr uint64, val int64) {
	if r == nil {
		return
	}
	if r.baseline == nil {
		r.baseline = make(map[uint64]int64)
	}
	r.baseline[addr] = val
}

// NewRecorder builds a recorder for an n-PE cluster.
func NewRecorder(n int) *Recorder {
	r := &Recorder{pes: make([]*PERecorder, n)}
	for i := range r.pes {
		r.pes[i] = &PERecorder{pe: int32(i)}
	}
	return r
}

// PE returns PE i's recorder; a nil Recorder returns nil (recording off).
func (r *Recorder) PE(i int) *PERecorder {
	if r == nil {
		return nil
	}
	return r.pes[i]
}

// History merges the per-PE event streams into one globally ordered
// history. Call only after every PE has quiesced.
func (r *Recorder) History() *History {
	h := &History{Baseline: r.baseline}
	for _, p := range r.pes {
		h.Events = append(h.Events, p.events...)
	}
	sort.SliceStable(h.Events, func(i, j int) bool {
		a, b := &h.Events[i], &h.Events[j]
		if a.Inv != b.Inv {
			return a.Inv < b.Inv
		}
		if a.PE != b.PE {
			return a.PE < b.PE
		}
		return a.Seq < b.Seq
	})
	return h
}

// History is a merged, globally ordered operation history. Timestamps must
// come from one global clock (the deterministic simulator provides one);
// real transports with per-node clocks cannot be checked for cross-PE
// real-time precedence.
type History struct {
	Events []Event
	// Baseline maps words to the value they held at run start when that
	// value was restored from a checkpoint rather than written by a
	// recorded operation. Nil for runs that did not restore.
	Baseline map[uint64]int64
}

// Len returns the number of recorded operations.
func (h *History) Len() int { return len(h.Events) }

// Digest returns a hex SHA-256 over the canonical byte encoding of the
// history. Two runs of the same seeded workload are bit-identical exactly
// when their digests match — the replayability check.
func (h *History) Digest() string {
	hash := sha256.New()
	tagged := false
	for i := range h.Events {
		if h.Events[i].Mode != 0 {
			tagged = true
			break
		}
	}
	var b [66]byte
	for i := range h.Events {
		e := &h.Events[i]
		binary.LittleEndian.PutUint32(b[0:], uint32(e.PE))
		binary.LittleEndian.PutUint32(b[4:], uint32(e.Seq))
		b[8] = byte(e.Kind)
		binary.LittleEndian.PutUint64(b[9:], e.Addr)
		binary.LittleEndian.PutUint64(b[17:], uint64(e.Arg1))
		binary.LittleEndian.PutUint64(b[25:], uint64(e.Arg2))
		binary.LittleEndian.PutUint64(b[33:], uint64(e.Out))
		var flags byte
		if e.Ok {
			flags |= 1
		}
		if e.Failed {
			flags |= 2
		}
		if e.Cached {
			flags |= 4
		}
		b[41] = flags
		binary.LittleEndian.PutUint64(b[42:], uint64(e.Inv))
		binary.LittleEndian.PutUint64(b[50:], uint64(e.Resp))
		binary.LittleEndian.PutUint64(b[58:], uint64(len(h.Events)))
		hash.Write(b[:])
		if tagged {
			// One trailing mode byte per event, folded in only when some
			// event carries a non-strong mode: all-strong histories keep
			// their pre-existing digests (same conditional scheme as the
			// baseline below).
			hash.Write([]byte{e.Mode})
		}
	}
	if len(h.Baseline) > 0 {
		// Fold the restore baseline in deterministically; histories without
		// one keep their pre-existing digests.
		addrs := make([]uint64, 0, len(h.Baseline))
		for a := range h.Baseline {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			binary.LittleEndian.PutUint64(b[0:], a)
			binary.LittleEndian.PutUint64(b[8:], uint64(h.Baseline[a]))
			hash.Write(b[:16])
		}
	}
	return hex.EncodeToString(hash.Sum(nil))
}
