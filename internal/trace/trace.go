// Package trace collects per-PE runtime statistics and provides the small
// table/series types the experiment harness uses to print paper figures.
package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
	"repro/internal/wire"
)

// PEStats aggregates what one DSE kernel/process pair spent its time on.
// All durations are virtual time for the simulated transport and wall-clock
// elapsed time for the real transports.
type PEStats struct {
	ComputeTime  sim.Duration // application computation
	SendOverhead sim.Duration // protocol processing + syscalls on the send path
	RecvOverhead sim.Duration // interrupts + protocol processing on the receive path
	WaitTime     sim.Duration // blocked waiting for replies (estimated on inproc, DESIGN.md §8), barriers, locks

	MsgsSent  uint64
	MsgsRecv  uint64
	BytesSent uint64
	BytesRecv uint64

	LocalGM  uint64 // global-memory accesses served from the local segment
	RemoteGM uint64 // global-memory accesses that crossed the network
	// DirectGM counts the RemoteGM accesses that resolved through the
	// one-sided direct window into a co-located home's segment instead of
	// a request/reply message pair. Always <= RemoteGM.
	DirectGM uint64
	// RingGM counts the RemoteGM mutations — writes, fetch-adds and CASes —
	// that a co-located home applied in place, under its stripe lock, instead
	// of a request/reply message pair. Always <= RemoteGM. (The name is the
	// submission ring's that these stores replaced.)
	RingGM uint64
	// ShardedMsgs counts incoming GM requests served off the serial serve
	// loop: by their sender, under a kernel shard's lock (inproc).
	ShardedMsgs uint64
	Barriers    uint64
	Locks       uint64

	// Reliability-layer counters.
	StaleReplies uint64 // mailbox residue discarded by sequence validation
	Retries      uint64 // request retransmissions after a timeout
	StrayDrops   uint64 // unsolicited/duplicate responses and acks dropped
	CorruptDrops uint64 // malformed messages dropped instead of panicking
	DupRequests  uint64 // retried requests absorbed by the dedup window

	// Checkpoint/restart counters.
	Checkpoints   uint64 // coordinated snapshots this PE completed
	Restores      uint64 // times this PE's state was restored from a snapshot
	SnapshotBytes uint64 // encoded slice bytes written to the snapshot store
	RollbackOps   uint64 // recorded ops discarded by rolling back to a snapshot

	// Elastic membership counters.
	Migrations     uint64 // home migrations this PE initiated (ranges, joins, leaves)
	MigratedBlocks uint64 // blocks this kernel extracted and handed to a new home
	MigrateNacks   uint64 // requests bounced off a stale home and retried at the hint
	Joins          uint64 // membership joins completed by this PE
	Leaves         uint64 // graceful leaves completed by this PE

	// Consistency-tier counters (release consistency and lease caching).
	WCFlushes     uint64 // non-empty write-combining buffer drains at sync edges
	LeaseGrants   uint64 // read leases this PE fetched from a home
	LeaseExpiries uint64 // lease-cache entries dropped because their lease expired

	// Scheduler namespace counters (dsesched per-job GM isolation).
	NsViolations uint64 // kernel-side: requests NACKed for touching memory outside the requester's namespace
	NsDenials    uint64 // PE-side: accesses refused before leaving the PE (one-sided reads and stores included)

	// ByOp breaks sent traffic down per message op, so experiments can
	// watch e.g. scalar reads being displaced by vectored reads.
	ByOp [wire.NumOps]OpCount

	// Latency distributions (the paper's execution-time breakdown, per
	// operation instead of as scalar totals). Their Count is every event; on
	// inproc the RTTByOp and ServiceByOp samples behind Sum and the buckets
	// are one round trip in 16 (DESIGN.md §8). A per-op histogram is
	// allocated on its op's first event (OpHistograms.Of), so a block costs
	// what its ops record; a nil one reads as empty. Each has one writer
	// context — a PE's RTTByOp its own goroutine, a kernel's ServiceByOp its
	// serve loop, a shard's ServiceByOp whoever holds the shard lock — which
	// is why a plain pointer store publishes it, and why it, like every
	// scalar counter above, is read and merged (Add) only after its writer
	// quiesces: core.Run's collectStats runs post-shutdown. The live reader,
	// core.Config.LiveRTT, is a histogram of its own.
	RTT         Histogram    // request round trips, all ops (app side)
	RTTByOp     OpHistograms // request round trips per request op
	ServiceByOp OpHistograms // kernel time handling each incoming op
	BarrierWait Histogram    // time blocked per barrier crossing
	LockWait    Histogram    // time blocked per lock acquisition
	FlushStall  Histogram    // time a sync edge stalled draining the WC buffer
}

// OpHistograms holds one histogram per message op, each nil until its op's
// first event.
type OpHistograms [wire.NumOps]*Histogram

// Of returns op's histogram, allocating it on first use. Only the one
// context that writes the entry may call it (see PEStats).
func (t *OpHistograms) Of(op wire.Op) *Histogram {
	h := t[op]
	if h == nil {
		h = new(Histogram)
		t[op] = h
	}
	return h
}

// add merges o into t entry by entry, allocating an entry only where o has
// one; t never shares o's histograms.
func (t *OpHistograms) add(o *OpHistograms) {
	for i, h := range o {
		if h != nil {
			t.Of(wire.Op(i)).Merge(h)
		}
	}
}

// OpCount tallies sent traffic for one message op.
type OpCount struct {
	Msgs  uint64
	Bytes uint64
}

// CountSent records one sent message of the given op and encoded size.
// Transports call it under their own stats lock.
func (s *PEStats) CountSent(op wire.Op, bytes int) {
	if int(op) < len(s.ByOp) {
		s.ByOp[op].Msgs++
		s.ByOp[op].Bytes += uint64(bytes)
	}
}

// Add accumulates o into s.
func (s *PEStats) Add(o *PEStats) {
	s.ComputeTime += o.ComputeTime
	s.SendOverhead += o.SendOverhead
	s.RecvOverhead += o.RecvOverhead
	s.WaitTime += o.WaitTime
	s.MsgsSent += o.MsgsSent
	s.MsgsRecv += o.MsgsRecv
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.LocalGM += o.LocalGM
	s.RemoteGM += o.RemoteGM
	s.DirectGM += o.DirectGM
	s.RingGM += o.RingGM
	s.ShardedMsgs += o.ShardedMsgs
	s.Barriers += o.Barriers
	s.Locks += o.Locks
	s.StaleReplies += o.StaleReplies
	s.Retries += o.Retries
	s.StrayDrops += o.StrayDrops
	s.CorruptDrops += o.CorruptDrops
	s.DupRequests += o.DupRequests
	s.Checkpoints += o.Checkpoints
	s.Restores += o.Restores
	s.SnapshotBytes += o.SnapshotBytes
	s.RollbackOps += o.RollbackOps
	s.Migrations += o.Migrations
	s.MigratedBlocks += o.MigratedBlocks
	s.MigrateNacks += o.MigrateNacks
	s.Joins += o.Joins
	s.Leaves += o.Leaves
	s.WCFlushes += o.WCFlushes
	s.LeaseGrants += o.LeaseGrants
	s.LeaseExpiries += o.LeaseExpiries
	s.NsViolations += o.NsViolations
	s.NsDenials += o.NsDenials
	for i := range s.ByOp {
		s.ByOp[i].Msgs += o.ByOp[i].Msgs
		s.ByOp[i].Bytes += o.ByOp[i].Bytes
	}
	s.RTT.Merge(&o.RTT)
	s.RTTByOp.add(&o.RTTByOp)
	s.ServiceByOp.add(&o.ServiceByOp)
	s.BarrierWait.Merge(&o.BarrierWait)
	s.LockWait.Merge(&o.LockWait)
	s.FlushStall.Merge(&o.FlushStall)
}

// OpTable renders the non-zero per-op send counters as a table.
func (s *PEStats) OpTable(title string) *Table {
	t := &Table{Title: title, Header: []string{"op", "msgs", "bytes"}}
	for i := range s.ByOp {
		if s.ByOp[i].Msgs == 0 {
			continue
		}
		t.AddRow(wire.Op(i).String(),
			fmt.Sprintf("%d", s.ByOp[i].Msgs),
			fmt.Sprintf("%d", s.ByOp[i].Bytes))
	}
	return t
}

// LatencyTable renders the non-empty per-op round-trip distributions plus
// the synchronisation waits as a quantile table (p50/p95/p99 are bucket
// upper bounds; see Histogram.Quantile).
func (s *PEStats) LatencyTable(title string) *Table {
	t := &Table{Title: title, Header: []string{"op", "count", "mean", "p50", "p95", "p99", "max"}}
	row := func(name string, h *Histogram) {
		hs := h.Snapshot()
		if hs.Count == 0 {
			return
		}
		t.AddRow(name,
			fmt.Sprintf("%d", hs.Count),
			hs.Mean().String(),
			hs.Quantile(0.50).String(),
			hs.Quantile(0.95).String(),
			hs.Quantile(0.99).String(),
			hs.Max.String())
	}
	for i, h := range s.RTTByOp {
		row("rtt:"+wire.Op(i).String(), h)
	}
	for i, h := range s.ServiceByOp {
		row("svc:"+wire.Op(i).String(), h)
	}
	row("barrier-wait", &s.BarrierWait)
	row("lock-wait", &s.LockWait)
	row("flush-stall", &s.FlushStall)
	return t
}

// CommTime is the total time attributable to communication.
func (s *PEStats) CommTime() sim.Duration {
	return s.SendOverhead + s.RecvOverhead + s.WaitTime
}

func (s *PEStats) String() string {
	return fmt.Sprintf("compute=%v comm=%v (send=%v recv=%v wait=%v) msgs=%d/%d bytes=%d/%d gm=%d local/%d remote",
		s.ComputeTime, s.CommTime(), s.SendOverhead, s.RecvOverhead, s.WaitTime,
		s.MsgsSent, s.MsgsRecv, s.BytesSent, s.BytesRecv, s.LocalGM, s.RemoteGM)
}

// Series is one labelled curve of a figure: Y(X).
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// MaxY returns the largest Y value (0 for an empty series).
func (s *Series) MaxY() float64 {
	max := 0.0
	for _, y := range s.Y {
		if y > max {
			max = y
		}
	}
	return max
}

// ArgMaxY returns the X at which Y peaks (0 for an empty series).
func (s *Series) ArgMaxY() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	best := 0
	for i, y := range s.Y {
		if y > s.Y[best] {
			best = i
		}
	}
	return s.X[best]
}

// Table is a printable experiment result (a figure rendered as rows).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// SeriesTable renders a family of series sharing the same X axis as a table
// with one column per series.
func SeriesTable(title, xName string, fmtY string, series []Series) *Table {
	t := &Table{Title: title, Header: []string{xName}}
	for _, s := range series {
		t.Header = append(t.Header, s.Label)
	}
	if len(series) == 0 {
		return t
	}
	for i := range series[0].X {
		row := []string{fmt.Sprintf("%g", series[0].X[i])}
		for _, s := range series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf(fmtY, s.Y[i]))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
