package trace

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

func TestPEStatsAddAccumulates(t *testing.T) {
	fill := func(s *PEStats) {
		*s = PEStats{ComputeTime: 10, SendOverhead: 1, RecvOverhead: 2, WaitTime: 3,
			MsgsSent: 4, MsgsRecv: 5, BytesSent: 6, BytesRecv: 7,
			LocalGM: 8, RemoteGM: 9, Barriers: 10, Locks: 11}
	}
	var a, b PEStats
	fill(&a)
	fill(&b)
	a.Add(&b)
	if a.ComputeTime != 20 || a.MsgsSent != 8 || a.Locks != 22 || a.RemoteGM != 18 {
		t.Fatalf("Add broken: %+v", &a)
	}
}

// TestOpHistogramsOnFirstSample pins the per-op histograms' layout: none
// exists before its op's first event, a missing one reads as empty, and Add
// gives the destination a copy of exactly the ones its source has.
func TestOpHistogramsOnFirstSample(t *testing.T) {
	allocated := func(s *PEStats) []string {
		var names []string
		for i := range s.RTTByOp {
			if s.RTTByOp[i] != nil {
				names = append(names, "rtt:"+wire.Op(i).String())
			}
			if s.ServiceByOp[i] != nil {
				names = append(names, "svc:"+wire.Op(i).String())
			}
		}
		return names
	}
	var src PEStats
	if got := allocated(&src); len(got) != 0 {
		t.Fatalf("a zero PEStats has histograms %v", got)
	}
	empty := src.RTTByOp[wire.OpRead]
	if empty.Snapshot() != (HistogramCounts{}) || empty.Mean() != 0 || empty.Summarize() != (LatencySummary{}) ||
		empty.String() != "no samples" || empty.Render(20) != "(no samples)\n" {
		t.Fatal("a missing histogram does not read as an empty one")
	}
	if rows := src.LatencyTable("").Rows; len(rows) != 0 {
		t.Fatalf("a zero PEStats renders latency rows %v", rows)
	}

	h := src.ServiceByOp.Of(wire.OpWrite)
	h.Observe(3 * sim.Microsecond)
	h.Observe(40 * sim.Microsecond)
	h.Tally()
	if src.ServiceByOp.Of(wire.OpWrite) != h {
		t.Fatal("a second Of allocated the histogram afresh")
	}
	if got := allocated(&src); !slices.Equal(got, []string{"svc:write"}) {
		t.Fatalf("observing one op allocated %v", got)
	}

	var dst PEStats
	dst.Add(&src)
	if got := allocated(&dst); !slices.Equal(got, []string{"svc:write"}) {
		t.Fatalf("Add allocated %v, want what its source has", got)
	}
	want := h.Snapshot()
	if got := dst.ServiceByOp[wire.OpWrite].Snapshot(); got != want {
		t.Fatalf("Add copied %+v, want %+v", got, want)
	}
	h.Observe(sim.Millisecond)
	if got := dst.ServiceByOp[wire.OpWrite].Snapshot(); got != want {
		t.Fatalf("a later sample at the source changed the destination to %+v", got)
	}
	if rows := dst.LatencyTable("").Rows; len(rows) != 1 || rows[0][0] != "svc:write" {
		t.Fatalf("latency rows %v, want one for svc:write", rows)
	}
}

func TestCommTimeSumsComponents(t *testing.T) {
	s := PEStats{SendOverhead: 5, RecvOverhead: 7, WaitTime: 11}
	if s.CommTime() != 23 {
		t.Fatalf("CommTime = %v", s.CommTime())
	}
}

func TestPEStatsStringMentionsEverything(t *testing.T) {
	s := PEStats{ComputeTime: sim.Second, MsgsSent: 3}
	out := s.String()
	for _, want := range []string{"compute=", "comm=", "msgs=3", "gm="} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() missing %q: %s", want, out)
		}
	}
}

func TestSeriesAppendAndPeaks(t *testing.T) {
	var s Series
	s.Append(1, 2)
	s.Append(2, 9)
	s.Append(3, 4)
	if s.MaxY() != 9 {
		t.Fatalf("MaxY = %v", s.MaxY())
	}
	if s.ArgMaxY() != 2 {
		t.Fatalf("ArgMaxY = %v", s.ArgMaxY())
	}
	var empty Series
	if empty.MaxY() != 0 || empty.ArgMaxY() != 0 {
		t.Fatal("empty series should report zeros")
	}
}

func TestTableAlignment(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"name", "value"},
	}
	tab.AddRow("a", "1")
	tab.AddRow("long-name", "22")
	var b strings.Builder
	tab.Fprint(&b)
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 4 { // title, header, separator, 2 rows -> 5? title+header+sep+2 = 5
		if len(lines) != 5 {
			t.Fatalf("unexpected line count %d: %q", len(lines), lines)
		}
	}
	// Header and separator must be as wide as the widest cell.
	if !strings.HasPrefix(lines[1], "name     ") {
		t.Fatalf("header not padded: %q", lines[1])
	}
	if !strings.Contains(lines[2], "---------") {
		t.Fatalf("separator not sized to widest cell: %q", lines[2])
	}
}

func TestSeriesTableMergesSeries(t *testing.T) {
	s1 := Series{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}}
	s2 := Series{Label: "b", X: []float64{1, 2}, Y: []float64{30, 40}}
	tab := SeriesTable("title", "x", "%.0f", []Series{s1, s2})
	if len(tab.Header) != 3 || tab.Header[1] != "a" || tab.Header[2] != "b" {
		t.Fatalf("header = %v", tab.Header)
	}
	if len(tab.Rows) != 2 || tab.Rows[1][2] != "40" {
		t.Fatalf("rows = %v", tab.Rows)
	}
}

func TestSeriesTableHandlesShortSeries(t *testing.T) {
	s1 := Series{Label: "a", X: []float64{1, 2, 3}, Y: []float64{1, 2, 3}}
	s2 := Series{Label: "b", X: []float64{1}, Y: []float64{9}}
	tab := SeriesTable("t", "x", "%.0f", []Series{s1, s2})
	if tab.Rows[2][2] != "-" {
		t.Fatalf("missing value not dashed: %v", tab.Rows)
	}
}

func TestSeriesTableEmpty(t *testing.T) {
	tab := SeriesTable("t", "x", "%.0f", nil)
	if len(tab.Rows) != 0 || len(tab.Header) != 1 {
		t.Fatalf("empty table malformed: %+v", tab)
	}
}
