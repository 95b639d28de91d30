package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// chromeEvent is one Chrome trace_event entry. Complete events ("ph":"X")
// carry a start timestamp and a duration, both in microseconds; metadata
// events ("ph":"M") name processes and threads.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int32          `json:"pid"`
	TID  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Thread ids within each PE "process" of the exported trace.
const (
	chromeTIDApp    int32 = 0 // DSE process (application context)
	chromeTIDKernel int32 = 1 // DSE kernel (service context)
)

func (s *Span) chromeTID() int32 {
	if s.Kind == SpanService {
		return chromeTIDKernel
	}
	return chromeTIDApp
}

func (s *Span) chromeName() string {
	switch s.Kind {
	case SpanRequest:
		return "req:" + s.Op.String()
	case SpanService:
		return "svc:" + s.Op.String()
	case SpanTransfer:
		return "xfer:" + s.Op.String()
	default:
		return s.Kind.String()
	}
}

// us converts a virtual-time instant or duration to trace_event microseconds.
func us(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// WriteChromeTrace emits spans in Chrome trace_event JSON array format, so a
// whole cluster run opens in chrome://tracing or Perfetto: one "process" per
// PE with an application thread and a kernel thread, one complete event per
// span. Events are sorted by (start, PE, thread) for determinism.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	sorted := append([]Span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := &sorted[i], &sorted[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.PE != b.PE {
			return a.PE < b.PE
		}
		return a.chromeTID() < b.chromeTID()
	})

	// Metadata: name every (PE, thread) pair that appears.
	pes := map[int32]bool{}
	for i := range sorted {
		pes[sorted[i].PE] = true
	}
	ids := make([]int32, 0, len(pes))
	for id := range pes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	events := make([]chromeEvent, 0, len(sorted)+3*len(ids))
	for _, id := range ids {
		events = append(events,
			chromeEvent{Name: "process_name", Ph: "M", PID: id, Args: map[string]any{"name": fmt.Sprintf("PE %d", id)}},
			chromeEvent{Name: "thread_name", Ph: "M", PID: id, TID: chromeTIDApp, Args: map[string]any{"name": "dse-process"}},
			chromeEvent{Name: "thread_name", Ph: "M", PID: id, TID: chromeTIDKernel, Args: map[string]any{"name": "dse-kernel"}},
		)
	}
	for i := range sorted {
		s := &sorted[i]
		dur := us(s.End - s.Start)
		args := map[string]any{"seq": s.Seq, "peer": s.Peer}
		if s.Kind == SpanRequest && s.Sent > 0 {
			args["sent_us"] = us(s.Sent - s.Start)
		}
		if s.Kind == SpanRun || s.Kind == SpanBarrier || s.Kind == SpanLock || s.Kind == SpanSem {
			delete(args, "peer")
		}
		events = append(events, chromeEvent{
			Name: s.chromeName(), Ph: "X", Ts: us(s.Start), Dur: &dur,
			PID: s.PE, TID: s.chromeTID(), Args: args,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
