// Request span tracing: every kernel request (and synchronisation wait, and
// kernel service event) can be recorded as a timestamped span into a
// fixed-size per-context ring buffer. The rings are allocation-free after
// construction and cost nothing when tracing is disabled (a nil check on
// the hot path), which is what lets the paper's execution-time breakdown
// (compute / send / receive / wait, Figs. 10-21) be reconstructed per
// request instead of only as end-of-run scalar totals.
package trace

import (
	"repro/internal/sim"
	"repro/internal/wire"
)

// SpanKind classifies a span.
type SpanKind uint8

// Span kinds. App-context spans (run, request, transfer, barrier, lock, sem)
// render on a PE's application thread in the Chrome trace; service spans on
// its kernel thread.
const (
	SpanRun      SpanKind = iota // one PE's whole program execution
	SpanRequest                  // one request round trip, issue → complete
	SpanTransfer                 // the wait phase of a pipelined block/gather transfer
	SpanBarrier                  // blocked in a barrier
	SpanLock                     // blocked acquiring a cluster lock
	SpanService                  // kernel handling one incoming message
	SpanCkpt                     // one coordinated checkpoint, quiesce → commit
	SpanSem                      // blocked in a semaphore wait
)

func (k SpanKind) String() string {
	switch k {
	case SpanRun:
		return "run"
	case SpanRequest:
		return "request"
	case SpanTransfer:
		return "transfer"
	case SpanBarrier:
		return "barrier"
	case SpanLock:
		return "lock"
	case SpanService:
		return "service"
	case SpanCkpt:
		return "ckpt"
	case SpanSem:
		return "sem"
	}
	return "span?"
}

// Span is one recorded interval of a request's life. Requester-side request
// spans cover issue → encode+send → (home service) → reply → complete; the
// matching home-side interval is a separate SpanService span on the home
// kernel, correlated by (Peer, Seq).
type Span struct {
	Kind SpanKind
	Op   wire.Op // request op (SpanRequest/SpanService/SpanTransfer); OpInvalid otherwise
	PE   int32   // recording PE
	Peer int32   // destination kernel (requester side) or requester (service side)
	Seq  uint64  // request id; barrier/lock id for sync spans
	// Start..End bound the span. For SpanRequest, Sent is when the encoded
	// request had left the node (send-side overhead boundary); for
	// SpanService, Start is the transport's receive timestamp (wire.Message
	// RecvAt: on inproc's inline service, the requester's own Start) and Sent
	// is unused.
	Start sim.Time
	Sent  sim.Time
	End   sim.Time
}

// Duration is the span length.
func (s *Span) Duration() sim.Duration { return s.End - s.Start }

// TracingConfig switches span tracing on and sizes the rings. The zero
// value is "disabled", which costs one nil pointer check per request.
type TracingConfig struct {
	// Enabled turns span recording on.
	Enabled bool
	// RingSize is the per-context span capacity (0 = 4096). When a ring is
	// full the oldest span is overwritten and counted as dropped.
	RingSize int
	// Sample records every Sample-th request/service span (0 or 1 = all).
	// Run and synchronisation spans are always recorded: they are rare and
	// anchor the timeline.
	Sample int
}

// NewRing builds a ring per the config, or nil when tracing is disabled.
func (c TracingConfig) NewRing() *SpanRing {
	if !c.Enabled {
		return nil
	}
	size := c.RingSize
	if size <= 0 {
		size = 4096
	}
	sample := c.Sample
	if sample <= 0 {
		sample = 1
	}
	return &SpanRing{spans: make([]Span, size), sample: uint64(sample)}
}

// SpanRing is a fixed-size span buffer with wraparound.
//
// # Concurrency contract
//
// A ring is single-writer: exactly one goroutine (the PE's application
// context, or one kernel's serve loop) calls Sampled/Record. Snapshot,
// Len and Dropped may only be called after that writer has quiesced
// (after core.Run/RunOn returned); they are not synchronised.
type SpanRing struct {
	spans   []Span
	n       int // filled entries
	next    int // next write position
	sample  uint64
	seen    uint64 // sampling counter
	dropped uint64 // spans overwritten by wraparound
}

// Sampled reports whether the next request/service span should be recorded,
// advancing the sampling counter.
func (r *SpanRing) Sampled() bool {
	r.seen++
	return r.sample <= 1 || r.seen%r.sample == 0
}

// Record appends s, overwriting the oldest span when full.
func (r *SpanRing) Record(s Span) {
	r.spans[r.next] = s
	r.next = (r.next + 1) % len(r.spans)
	if r.n < len(r.spans) {
		r.n++
	} else {
		r.dropped++
	}
}

// Len reports how many spans the ring holds.
func (r *SpanRing) Len() int { return r.n }

// Dropped reports how many spans wraparound overwrote.
func (r *SpanRing) Dropped() uint64 { return r.dropped }

// Snapshot copies the retained spans out in record order (oldest first).
func (r *SpanRing) Snapshot() []Span {
	out := make([]Span, 0, r.n)
	if r.n == len(r.spans) {
		out = append(out, r.spans[r.next:]...)
		out = append(out, r.spans[:r.next]...)
		return out
	}
	return append(out, r.spans[:r.n]...)
}
