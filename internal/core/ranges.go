package core

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/gmem"
	"repro/internal/wire"
)

// vrun is one single-home run of a range operation: a run never crosses a
// block boundary.
type vrun struct {
	home  int // its request's home: index into pe.groups
	start uint64
	count int
	off   int // word offset within the operation's buffer
}

// runGroup tallies, as addRun collects them, the remote runs of a range
// operation that one request will carry. pe.groups holds one per home, in the
// order the requests leave: a range operation makes at most one request of a
// home, on every transport, however the home shards its service.
type runGroup struct {
	runs, words int
	flight      int // the group's request: index into pe.reqs (buildReqs)
}

// rangeOp is the range executor: one block (addrs == nil: the len(buf) words
// at addr) or vectored (addrs[i] pairs with buf[i]) operation run through the
// access pipeline (see access.go). Like the word executor's, a range
// operation's kind is its history kind: check.KindRead (buf is the
// destination) or check.KindWrite (buf is the source) here, and for the pieces
// flushWC drives itself check.KindFlush — a write whose requests are always
// the vectored OpFlushV and travel one group at a time.
func (pe *PE) rangeOp(name string, kind check.Kind, addr uint64, addrs []uint64, buf []int64) error {
	if pe.ns.Limit != 0 && len(buf) > 0 {
		// Guard, all-or-nothing up front like the kernel-side scan: a block is
		// one span, a vector one single-word span per address.
		spans, words := addrs, 1
		if addrs == nil {
			spans, words = []uint64{addr}, len(buf)
		}
		for _, a := range spans {
			if err := pe.nsCheck(name, a, words); err != nil {
				return err
			}
		}
	}
	if addrs != nil && pe.wordTiered(addrs) {
		// Rare mixed-mode vector: serve each word through its mode's scalar
		// path (WC overlay, leases) at the cost of aggregation.
		for i, a := range addrs {
			v, _, err := pe.wordOp(kind, a, buf[i], 0)
			if err != nil {
				return err
			}
			if kind == check.KindRead {
				buf[i] = v
			}
		}
		return nil
	}
	pe.legacyCrossing()
	if len(buf) == 0 {
		return nil // an empty range touches nothing
	}
	if addrs != nil {
		return pe.rangeRun(kind, gmem.ModeStrong, 0, addrs, buf)
	}
	if m, sole := pe.modes.Sole(); sole {
		return pe.rangeRun(kind, m, addr, nil, buf)
	}
	// A block spanning allocations of different tiers is served piecewise,
	// each piece through its own mode's protocol.
	var err error
	pe.modes.ModeRuns(addr, len(buf), func(m gmem.Mode, start uint64, count int) {
		if err == nil {
			off := start - addr
			err = pe.rangeRun(kind, m, start, nil, buf[off:off+uint64(count)])
		}
	})
	return err
}

// wordTiered reports whether any of addrs is a release or lease word, which
// only the word executor's tiers can serve — the vectored gather/scatter
// requests aggregate the home-served mode, strong.
func (pe *PE) wordTiered(addrs []uint64) bool {
	if m, sole := pe.modes.Sole(); sole {
		return m == gmem.ModeRelease || m == gmem.ModeLease
	}
	for _, a := range addrs {
		if m := pe.modes.Lookup(a); m == gmem.ModeRelease || m == gmem.ModeLease {
			return true
		}
	}
	return false
}

// rangeRun executes one single-mode piece of a range operation — or a whole
// vector of strong words: tier, then one run per single-home span (runs
// inPlace admits are served from their home's segment on the spot, the others
// queued), then the transfer of the queued runs. Strong and release share the
// home-served path (a release read overlays the PE's own buffered writes
// afterwards); release writes stop at the write-combining buffer; lease reads
// are served block by block from the lease cache.
func (pe *PE) rangeRun(kind check.Kind, mode gmem.Mode, addr uint64, addrs []uint64, buf []int64) error {
	write := kind != check.KindRead
	switch {
	case write && mode == gmem.ModeRelease:
		pe.bufferWords(addr, buf)
		return nil
	case write && mode == gmem.ModeLease:
		pe.dropLeases(addr, len(buf))
	}
	h := pe.openRange(kind, mode, addr, addrs, buf)
	var err error
	if !write && mode == gmem.ModeLease {
		err = pe.leaseRead(buf, addr, h)
	} else {
		pe.resetRuns()
		if addrs != nil {
			for i, a := range addrs {
				pe.addRun(kind, buf, a, 1, i)
			}
		} else {
			bw := uint64(pe.k.space.BlockWords)
			for start, end := addr, addr+uint64(len(buf)); start < end; {
				stop := min(start-start%bw+bw, end)
				pe.addRun(kind, buf, start, int(stop-start), int(start-addr))
				start = stop
			}
		}
		if err = pe.transfer(kind, buf); err == nil {
			if !write && mode == gmem.ModeRelease {
				pe.overlayWC(buf, addr)
			}
			pe.closeRange(h, kind, buf)
		}
	}
	if err != nil {
		pe.hist.FailReads(h, len(buf)) // failed writes stay open: they may have applied
	}
	return err
}

// openRange opens one history event per word of a range operation (the words
// share the operation's invocation/response interval) and returns the index
// of the first; closeRange closes them with the operation's result.
func (pe *PE) openRange(kind check.Kind, mode gmem.Mode, addr uint64, addrs []uint64, buf []int64) int {
	if pe.hist == nil {
		return -1
	}
	h := -1
	for i, v := range buf {
		a := addr + uint64(i)
		if addrs != nil {
			a = addrs[i]
		}
		if kind == check.KindRead {
			v = 0
		}
		h = pe.hist.Open(kind, a, v, 0, mode.Tag())
	}
	return h - len(buf) + 1 // the events are contiguous
}

func (pe *PE) closeRange(h int, kind check.Kind, buf []int64) {
	if pe.hist == nil {
		return
	}
	for i, v := range buf {
		if kind == check.KindRead {
			pe.hist.CloseRead(h+i, v, false, 0, 0)
		} else {
			pe.hist.Close(h+i, 0, true)
		}
	}
}

// resetRuns empties the run list and the tallies for the next range operation.
func (pe *PE) resetRuns() {
	pe.vruns = pe.vruns[:0]
	clear(pe.groups)
}

// addRun routes one single-home run of a range operation: served from its home's segment right away as far as runInPlace allows, the
// rest queued in pe.vruns and tallied in its group for that group's request
// (RemoteGM counts remote runs, not words). A flush at a peer always travels:
// the home counts the OpFlushV as a publication. A peer with no path in place
// costs one load, not the calls: a 64-run gather on the message path would
// pay them 64 times. A run is resolved here and nowhere else. off locates the
// run's words in buf.
func (pe *PE) addRun(kind check.Kind, buf []int64, start uint64, count, off int) {
	k := pe.k
	write := kind != check.KindRead
	l := k.space.Locate(start)
	home := k.dir.HomeAt(l)
	if home == k.id || kind != check.KindFlush && k.peers[home].seg != nil {
		n := pe.runInPlace(home, l, write, start, buf[off:off+count])
		if n == count {
			return
		}
		start, count, off, l.Off = start+uint64(n), count-n, off+n, l.Off+n
		home = k.dir.HomeAt(l) // the block moved away during the charge
	}
	pe.extra.RemoteGM++
	g := &pe.groups[home]
	g.runs++
	g.words += count
	pe.vruns = append(pe.vruns, vrun{home: home, start: start, count: count, off: off})
}

// buildReqs is the one place the queued runs become wire requests: one flight
// of the request engine per non-empty group, in home order, and then every
// run written into its group's request, so runs keep their relative
// (ascending-address) order there. Flight i's request is the PE's own
// reqMsgs[i]; the caller empties the requests and recycles the replies
// (recycleReqs).
func (pe *PE) buildReqs(kind check.Kind, buf []int64) {
	pe.reqs = pe.reqs[:0]
	for home := range pe.groups {
		if g := &pe.groups[home]; g.runs > 0 {
			g.flight = len(pe.reqs)
			if g.flight == len(pe.reqMsgs) {
				pe.reqMsgs = append(pe.reqMsgs, new(wire.Message))
			}
			pe.reqs = append(pe.reqs, flight{req: runReq(pe.reqMsgs[g.flight], kind, g.runs, g.words), dst: home})
		}
	}
	var f *flight
	for i := range pe.vruns {
		r := &pe.vruns[i]
		if i == 0 || r.home != pe.vruns[i-1].home {
			f = pe.flightOf(r)
		}
		putRun(f.req, r, buf)
	}
}

// flightOf returns the request run r travels in, once buildReqs has made it.
func (pe *PE) flightOf(r *vrun) *flight { return &pe.reqs[pe.groups[r.home].flight] }

// runReq makes req, an empty message, the request for runs runs of words
// words in all, and returns it: a lone run travels as the scalar
// OpRead/OpWrite, several as one vectored request whose payload is reserved
// here, once, and a flush always as OpFlushV (the home counts it as a
// publication even for a single run).
func runReq(req *wire.Message, kind check.Kind, runs, words int) *wire.Message {
	switch {
	case kind == check.KindFlush:
		req.Op = wire.OpFlushV
	case runs == 1 && kind == check.KindRead:
		req.Op = wire.OpRead
		return req
	case runs == 1:
		req.Op = wire.OpWrite
		return req
	case kind == check.KindRead:
		req.Op, words = wire.OpReadV, 0
	default:
		req.Op = wire.OpWriteV
	}
	req.ReserveRuns(runs, words)
	return req
}

// putRun writes run r into req, its group's request.
func putRun(req *wire.Message, r *vrun, buf []int64) {
	switch req.Op {
	case wire.OpRead:
		req.Addr, req.Arg1 = r.start, int64(r.count)
	case wire.OpWrite:
		req.Addr = r.start
		req.PutWords(buf[r.off : r.off+r.count])
	case wire.OpReadV:
		req.AppendRange(r.start, r.count)
	default:
		req.AppendWriteRun(r.start, buf[r.off:r.off+r.count])
	}
}

// landRun decodes run r's words from f's read reply straight into buf (the
// request engine has checked that the reply carries exactly the words its runs
// asked for, and they arrive in the order the runs were written).
func landRun(r *vrun, f *flight, buf []int64) {
	wire.DecodeWords(buf[r.off:r.off+r.count], f.resp.Data[8*f.landed:])
	f.landed += r.count
}

// recycleReqs empties the requests of pe.reqs, the PE's own, for the next
// range operation and returns their replies to the pool.
func (pe *PE) recycleReqs() {
	for i := range pe.reqs {
		f := &pe.reqs[i]
		f.req.Reset()
		wire.PutMessage(f.resp)
		f.req, f.resp = nil, nil
	}
}

// transfer moves the queued remote runs of a read or write: one request per
// home, all sent before the first reply is awaited — the DSE
// kernel's asynchronous-I/O design lets a process keep several requests in
// flight, so the per-home round trips overlap, and the transfer, not each
// request, is the observable unit of wait time, latency and tracing (see
// exchange). A group its home refused whole because one of its blocks migrated
// away (all-or-nothing, so nothing of it was applied) comes back marked moved
// and is re-issued run by run, each routed by the live directory and following
// its own redirects — rare (at most once per group per overlapping migration),
// so the lost pipelining does not matter.
func (pe *PE) transfer(kind check.Kind, buf []int64) error {
	if len(pe.vruns) == 0 {
		return nil
	}
	op := wire.OpReadV
	if kind != check.KindRead {
		op = wire.OpWriteV
	}
	pe.buildReqs(kind, buf)
	err := pe.exchange(pe.reqs, op)
	if err == nil && kind == check.KindRead {
		var f *flight
		for i := range pe.vruns {
			r := &pe.vruns[i]
			if i == 0 || r.home != pe.vruns[i-1].home {
				f = pe.flightOf(r)
			}
			if !f.moved {
				landRun(r, f, buf)
			}
		}
	}
	moved := false
	for i := range pe.reqs {
		moved = moved || pe.reqs[i].moved
	}
	pe.recycleReqs()
	if err != nil || !moved {
		return err
	}
	for i := range pe.vruns {
		r := &pe.vruns[i]
		if !pe.flightOf(r).moved {
			continue
		}
		if err := pe.replayRun(r, kind, buf); err != nil {
			return fmt.Errorf("core: PE %d: replaying run at %d after a home migration: %w", pe.k.id, r.start, err)
		}
	}
	return nil
}

// replayRun re-issues run r, whose group was refused whole, as a request of
// its own to the home the live directory now names.
func (pe *PE) replayRun(r *vrun, kind check.Kind, buf []int64) error {
	f := &pe.one[0]
	*f = flight{req: runReq(wire.GetMessage(), kind, 1, r.count), dst: pe.k.homeOf(r.start)}
	putRun(f.req, r, buf)
	err := pe.exchange(pe.one[:], 0)
	if err == nil && kind == check.KindRead {
		landRun(r, f, buf)
	}
	wire.PutMessage(f.req)
	wire.PutMessage(f.resp)
	return err
}

// GMReadBlockErr reads n words starting at addr, splitting the range across
// homes as needed. A run whose home's segment is in this address space is
// read there in place; all other runs homed at one kernel travel in a single
// (vectored, if more than one run) request, and the per-home requests are
// pipelined. Request failures (timeout after the configured
// retries, peer down, shutdown, a namespace refusal) come back as the typed
// errors of the scalar forms.
func (pe *PE) GMReadBlockErr(addr uint64, n int) ([]int64, error) {
	out := make([]int64, n)
	if err := pe.rangeOp("read-block", check.KindRead, addr, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// GMWriteBlockErr stores words starting at addr, splitting across homes; a
// run is stored in place where its home's segment is in this address space,
// all other runs homed at one kernel travel in a single (vectored, if more
// than one run) request, and the per-home requests are pipelined. A request
// that is retried is applied exactly once (the home's dedup window); after a
// failure some homes' runs may have been applied and others not.
func (pe *PE) GMWriteBlockErr(addr uint64, words []int64) error {
	return pe.rangeOp("write-block", check.KindWrite, addr, nil, words)
}

// GMGatherErr reads the words at the given (arbitrary, possibly scattered)
// addresses, returning them in input order. All addresses homed at one
// kernel travel in a single vectored request. The fine-grained-access aggregation standard in user-level DSMs:
// one message per home instead of one per word.
func (pe *PE) GMGatherErr(addrs []uint64) ([]int64, error) {
	out := make([]int64, len(addrs))
	if err := pe.rangeOp("gather", check.KindRead, 0, addrs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// GMScatterErr stores vals[i] at addrs[i] for every i. All addresses homed at
// one kernel travel in a single vectored request. A length mismatch is an error, and nothing is stored.
func (pe *PE) GMScatterErr(addrs []uint64, vals []int64) error {
	if len(addrs) != len(vals) {
		return fmt.Errorf("core: PE %d: scatter of %d values to %d addresses", pe.k.id, len(vals), len(addrs))
	}
	return pe.rangeOp("scatter", check.KindWrite, 0, addrs, vals)
}

// GMReadBlock is GMReadBlockErr, panicking on failure. It, GMWriteBlock and
// GMGather remain for the benchmark module's op-load driver only; programs
// use an Array or the error forms.
func (pe *PE) GMReadBlock(addr uint64, n int) []int64 {
	out, err := pe.GMReadBlockErr(addr, n)
	must(err)
	return out
}

// GMWriteBlock is GMWriteBlockErr, panicking on failure.
func (pe *PE) GMWriteBlock(addr uint64, words []int64) { must(pe.GMWriteBlockErr(addr, words)) }

// GMGather is GMGatherErr, panicking on failure.
func (pe *PE) GMGather(addrs []uint64) []int64 {
	out, err := pe.GMGatherErr(addrs)
	must(err)
	return out
}
