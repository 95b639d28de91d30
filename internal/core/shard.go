package core

import (
	"slices"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/gmem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// kernelShard is one monitor of a kernel's home-side global-memory service.
// The home serves each requester under one shard, the one Kernel.shardFor
// picks by the requester's id, and the shard owns everything a GM request
// touches beyond the segment itself: the dedup window of its requesters'
// mutations, the decode/encode scratch and the service-side counters. How a home is sharded is its own business:
// no message names a shard.
//
// A shard is a monitor, not a thread: mu guards all of that state, and
// whoever holds it serves — the requesting PE's own goroutine on inproc
// (Kernel.serveOnSender), the serve loop for everything that reaches it
// through Recv. A requester is always serviced under the same shard's lock,
// so a retry reaches the window that holds its dedup entry. A request may
// touch any block: every store is made under its stripe lock (DESIGN.md §12),
// and handleMigrateStart takes every shard lock before ownership changes.
// Lock order: a shard lock is outermost and never nested in another shard
// lock; under it a handler may take the segment's stripe locks, escrowMu and
// — through its reply Send — the requester's mailboxes, none of which ever
// take a shard lock (DESIGN.md §11).
type kernelShard struct {
	k   *Kernel
	idx int

	// mu is the monitor lock. Use lock/unlock: it is not taken at all under
	// simulation.
	mu sync.Mutex

	// dedup is the exactly-once window for the mutating GM requests of this
	// shard's requesters. A retry keeps its Src, so it routes to this window.
	dedup dedupTable

	// extra accumulates this shard's service counters and histograms,
	// merged into the kernel's totals after shutdown.
	extra trace.PEStats

	// spans is this shard's service-span ring (nil unless Config.Tracing);
	// per shard because a span ring is single-writer.
	spans *trace.SpanRing

	// Handler scratch, reused across requests.
	runs     []locRun     // the request being served, located (locate)
	nwords   int          // words in runs
	wscratch []int64      // payload words
	resp     wire.Message // the reply the handler is building (reply)
	answered sim.Time     // when reply answered the request being served (0: not yet)
}

// locRun is one run of the request a shard is serving, decoded, located and
// checked once by locate: count words from word off of block, a block the run
// does not leave. (No pointers and no more than four fields: filling the list
// costs no write barriers and no detour through the stack.)
type locRun struct {
	block uint64
	off   int
	count int
	at    int // a write's words, still encoded, start at this byte of the payload
}

func newKernelShard(k *Kernel, idx int) *kernelShard {
	return &kernelShard{
		k:     k,
		idx:   idx,
		dedup: newDedupTable(),
		spans: k.cfg.Tracing.NewRing(),
	}
}

// lock enters the shard's monitor. Under simulation it does nothing: the
// engine already runs one cooperative process at a time, and a handler's
// reply Send switches to other processes, so a second process reaching for a
// real mutex would block the one goroutine they all run on and hang the run.
func (sh *kernelShard) lock() {
	if !sh.k.simulated {
		sh.mu.Lock()
	}
}

func (sh *kernelShard) unlock() {
	if !sh.k.simulated {
		sh.mu.Unlock()
	}
}

// shardFor routes request m to the shard that serves it, its requester's:
// Src mod the shard count. It is the only code that maps a message to a
// shard. A message whose Src names no PE returns -1: it is input from another
// node gone wrong.
func (k *Kernel) shardFor(m *wire.Message) int {
	if m.Src < 0 || int(m.Src) >= k.n {
		return -1
	}
	if k.nshards == 1 {
		return 0 // no division on the path of every single-shard request
	}
	return int(m.Src) % k.nshards
}

// dispatchGM services one GM request the serve loop received, under the lock
// of the shard it routes to, and returns when its reply left (0 if none did,
// or the transport is simulated; see reply). A message shardFor cannot route
// is dropped as corrupt — the requester's timeout/retry machinery owns
// recovery.
func (k *Kernel) dispatchGM(m *wire.Message) sim.Time {
	s := k.shardFor(m)
	if s < 0 {
		k.extra.CorruptDrops++
		return 0
	}
	sh := k.shards[s]
	sh.lock()
	sh.answered = 0
	sh.handleGM(m)
	end := sh.answered
	sh.unlock()
	return end
}

// serveOnSender is the inproc half of the node's sink: a leaf GM request an
// application context sent is serviced right here, on that context, under its
// shard's lock. The handler's reply Send runs through the requester's
// own sink (deliverApp) into its own reply mailbox, so the requester finds the
// answer without parking — no goroutine hand-off in the round trip, still two
// counted wire messages through the same codec, dedup, stats and spans.
//
// Only application-originated requests qualify. What a handler itself sends —
// an escrow re-offer — is declined and queued for the destination's serve
// loop, whose membership handlers serve it. A request shardFor cannot route
// is declined too, so the serve loop counts the drop.
func (k *Kernel) serveOnSender(m *wire.Message) bool {
	if !servedOnSender(m.Op) {
		return false
	}
	s := k.shardFor(m)
	if s < 0 {
		return false
	}
	k.shards[s].serve(m)
	wire.PutMessage(m)
	return true
}

// servedOnSender reports whether an inproc home serves a request of op on its
// sender's context (serveOnSender): the application-originated GM requests.
func servedOnSender(op wire.Op) bool {
	switch op {
	case wire.OpRead, wire.OpReadV, wire.OpWrite, wire.OpWriteV, wire.OpFlushV,
		wire.OpFetchAdd, wire.OpCAS, wire.OpReadLease:
		return true
	}
	return false
}

// serve services m under the shard lock and accounts for it in the shard: the
// service event, the span, and ShardedMsgs. The request engine stamps every
// request of a timed round trip as it leaves (SentAt, handed on by inproc as
// RecvAt), so the service is timed from there, the request's encode and
// decode included; a request without a stamp belongs to an untimed round
// trip, and its service is counted, not timed (DESIGN.md §8). The unlock is
// deferred so that a handler's panic — which the requesting PE's runPE turns
// into that PE's error — does not leave every later requester of this shard
// waiting for a lock nobody holds.
func (sh *kernelShard) serve(m *wire.Message) {
	sh.lock()
	defer sh.unlock()
	sh.answered = 0
	sh.handleGM(m)
	sh.extra.ShardedMsgs++
	h := sh.extra.ServiceByOp.Of(m.Op)
	if m.RecvAt == 0 {
		h.Tally()
		return
	}
	end := sh.answered
	if end == 0 {
		end = sh.k.svc.Now()
	}
	h.Observe(end - m.RecvAt)
	if sh.spans != nil {
		sh.spans.Record(trace.Span{
			Kind: trace.SpanService, Op: m.Op,
			PE: int32(sh.k.id), Peer: m.Src, Seq: m.Seq,
			Start: m.RecvAt, End: end,
		})
	}
}

// fenceShards passes through every shard's monitor once: when it returns,
// every service that was in flight on any shard has completed. The checkpoint
// marker uses it so seg.Export sees no request half-applied, a namespace free
// before dropping blocks, a migration install before adopting them. A scalar
// mutation in place (PE.inPlace) needs no fence: it is complete when it
// returns, and one word under one stripe mutex is never seen half-applied.
// Serve loop only, never from inside a handler (no nested shard locks), and
// peer-down handling deliberately never fences: the Send that reported the
// peer dead may be a handler's, made under the very lock a fence would take.
func (k *Kernel) fenceShards() {
	for _, sh := range k.shards {
		sh.lock()
		sh.unlock()
	}
}

// lockShards enters every shard's monitor at once, for the one handler that
// takes blocks away from this kernel (handleMigrateStart): a GM handler checks
// ownership and then touches the segment under its shard lock, so the
// directory may only disown a block while no handler is in between. Ascending
// index order, and only the serve loop ever holds more than one shard lock —
// every other context holds exactly one and waits for none while it does.
func (k *Kernel) lockShards() {
	for _, sh := range k.shards {
		sh.lock()
	}
}

func (k *Kernel) unlockShards() {
	for _, sh := range k.shards {
		sh.unlock()
	}
}

// handleGM services one GM request routed to this shard. Every GM handler
// consumes its message; the caller holds the shard lock and recycles m.
//
// A request for memory is decoded, located and checked once (DESIGN.md §16):
// locate parses it into sh.runs, and the namespace guard, the ownership scan
// and the handler all walk that list. The order of the checks is part of the
// protocol: the dedup window first, so that the retry of a mutation this
// kernel applied just before handing the block away is answered from the
// cached response instead of being NACKed toward the new home and applied a
// second time there; then the shape, the namespace (a violation is terminal,
// there is nothing to redirect) and the ownership — each of which refuses the
// request whole, before anything of it is applied, and forgets its dedup entry
// so that a retry is judged afresh.
func (sh *kernelShard) handleGM(m *wire.Message) {
	if isMutating(m.Op) && sh.k.absorb(&sh.dedup, &sh.extra, m) {
		return // duplicate: absorbed by the shard's dedup window
	}
	if !sh.locate(m) {
		// Corrupt request: dropped unanswered (the requester's timeout and retry
		// own recovery) with nothing of it applied.
		sh.extra.CorruptDrops++
		sh.forget(m)
		return
	}
	if sh.nsDeny(m) {
		return // outside the requester's namespace: typed rejection sent
	}
	if sh.nackIfForeign(m) {
		return // block migrated away: requester redirects to the hinted home
	}
	switch m.Op {
	case wire.OpRead, wire.OpReadV:
		sh.handleRead(m)
	case wire.OpWrite, wire.OpWriteV, wire.OpFlushV, wire.OpFetchAdd, wire.OpCAS:
		sh.handleMutation(m)
	case wire.OpReadLease:
		sh.handleReadLease(m)
	}
}

// forget lets go of the in-progress dedup entry the lookup registered for a
// mutating request that is refused or dropped with nothing applied: a refusal
// is side-effect-free and recomputed on a retry, while a kept entry would
// absorb every retry — of a NACKed request once the block has landed here, of
// a namespace refusal after a rebind, of a payload torn in flight.
func (sh *kernelShard) forget(m *wire.Message) {
	if isMutating(m.Op) {
		sh.dedup.forget(m.Src, m.Seq)
	}
}

// locate decodes the runs of request m into sh.runs, the one time its payload
// is parsed. A request is input from another node: locate reports false for a
// payload that does not parse and for a run that has no words or leaves its
// block — the segment would answer the latter with a panic on whichever
// context serves, on tcpnet the home's serve loop.
func (sh *kernelShard) locate(m *wire.Message) bool {
	sh.runs, sh.nwords = sh.runs[:0], 0
	switch m.Op {
	case wire.OpRead:
		return sh.addRun(m.Addr, uint64(m.Arg1), 0)
	case wire.OpWrite:
		return len(m.Data)%8 == 0 && sh.addRun(m.Addr, uint64(len(m.Data)/8), 0)
	case wire.OpFetchAdd, wire.OpCAS, wire.OpReadLease:
		return sh.addRun(m.Addr, 1, 0)
	case wire.OpReadV:
		for p := m.Data; len(p) > 0; {
			addr, count, rest, ok := wire.TakeRange(p)
			if !ok || !sh.addRun(addr, count, 0) {
				return false
			}
			p = rest
		}
	case wire.OpWriteV, wire.OpFlushV:
		for p := m.Data; len(p) > 0; {
			addr, words, rest, ok := wire.TakeWriteRun(p)
			if !ok || !sh.addRun(addr, uint64(len(words)/8), len(m.Data)-len(rest)-len(words)) {
				return false
			}
			p = rest
		}
	}
	return true
}

// addRun locates one run and adds it to sh.runs, unless it has no words or
// leaves its block. count is untrusted and compared before any arithmetic that
// could overflow.
func (sh *kernelShard) addRun(addr, count uint64, at int) bool {
	bw := uint64(sh.k.space.BlockWords)
	off := addr % bw
	if count == 0 || count > bw-off {
		return false
	}
	sh.runs = append(sh.runs, locRun{block: addr / bw, off: int(off), count: int(count), at: at})
	sh.nwords += int(count)
	return true
}

// nackIfForeign checks every run's block against the live membership
// directory — one lookup per run, none for a block that repeats — and, if any
// is not homed here, NACKs the whole message with the first foreign block's new
// home as the redirect hint, before any mutation, so a multi-block request is
// all-or-nothing (a partial apply followed by a whole-message retry at the new
// home would double-apply the runs that had already landed here). Escrowed
// foreign blocks are re-offered to their destination on the way, which is how
// a migration whose initiator died heals through normal traffic.
//
// The scan runs even while this kernel's own directory is still static: a
// requester that learned a new-home hint can redirect a request here BEFORE
// our install arrives, and applying it into a lazily-created block would
// lose the write when the install's payload adopts over it. Bouncing it
// (hint: the probe-rule home) until the data lands keeps it exactly-once.
func (sh *kernelShard) nackIfForeign(m *wire.Message) bool {
	k := sh.k
	foreign, owned := -1, false
	for i := range sh.runs {
		b := sh.runs[i].block
		if i == 0 || b != sh.runs[i-1].block {
			owned = k.dir.Owns(k.id, b)
		}
		if !owned {
			if foreign < 0 {
				foreign = k.dir.HomeOfBlock(b)
			}
			sh.reOffer(b)
		}
	}
	if foreign < 0 {
		return false
	}
	// A retry after a LOST NACK simply recomputes it (re-offers are
	// idempotent).
	k.refuse(&sh.dedup, m, wire.OpMigrateNack, int64(foreign), 0)
	return true
}

// reOffer fire-and-forgets an escrowed block to its migration destination.
// Traffic-driven healing for a handoff whose initiator died between the
// extract and the install: any request that bounces off this stale home
// pushes the parked payload toward the new home again. The install is
// idempotent there (blocks already owned and materialised are skipped), and
// its response is dropped by our serve loop as a stray.
func (sh *kernelShard) reOffer(b uint64) {
	k := sh.k
	e, ok := k.escrowLookup(b)
	if !ok {
		return
	}
	inst := wire.GetMessage()
	inst.Op, inst.Src, inst.Dst = wire.OpMigrateInstall, int32(k.id), int32(e.dst)
	inst.Seq = k.seqCtr.Add(1)
	inst.Arg1 = migModeBlock
	inst.Addr = e.block.Index * uint64(k.space.BlockWords)
	inst.Data = ckpt.EncodeKernelState(k.cfg.GMBlockWords, []gmem.BlockSnapshot{e.block})
	k.svc.Send(e.dst, inst)
	wire.PutMessage(inst)
}

// scratch returns the payload-word scratch, sized to n words.
func (sh *kernelShard) scratch(n int) []int64 {
	sh.wscratch = slices.Grow(sh.wscratch[:0], n)[:n]
	return sh.wscratch
}

// handleRead serves a read, scalar or vectored: the words of every run,
// gathered into one response payload.
func (sh *kernelShard) handleRead(m *wire.Message) {
	resp := &sh.resp
	resp.Op, resp.Addr = wire.OpReadResp, m.Addr
	if m.Op == wire.OpReadV {
		resp.Op = wire.OpReadVResp
	}
	ws, at := sh.scratch(sh.nwords), 0
	for i := range sh.runs {
		r := &sh.runs[i]
		sh.k.seg.ReadRun(ws[at:at+r.count], r.block, r.off)
		at += r.count
	}
	resp.PutWords(ws)
	sh.reply(m)
}

// reply sends sh.resp, the answer a handler built, to the requester of m and
// empties it for the next request. On a real transport it first stamps
// sh.answered, the end of m's service if m's service is timed (Kernel.serve
// and serve read it): the requester may close its round trip before Send
// returns, so a clock read after the handler, by a context descheduled in
// between, could outlast the round trip that contains the service. On
// simnet the clock moves only by charges, so the read after the handler is
// the instant the reply left, its send charge included. The shard's monitor
// guards it like the rest
// of the handler scratch: the transport keeps nothing of it once Send has
// returned, and the dedup window keeps its own copy of a mutation's answer,
// which is what a duplicate is answered from (absorb).
func (sh *kernelShard) reply(m *wire.Message) {
	if m.RecvAt != 0 && !sh.k.simulated {
		sh.answered = sh.k.svc.Now()
	}
	sh.k.respond(&sh.dedup, m, &sh.resp)
	sh.resp.Reset()
}

// handleMutation is the one home-side path of every mutating request: apply
// it to the segment and acknowledge it. The TEST-ONLY FaultDropWrites
// acknowledges a write or vectored write without storing it: later reads
// keep returning the old words, which the consistency checker must flag.
func (sh *kernelShard) handleMutation(m *wire.Message) {
	seg := sh.k.seg
	resp := &sh.resp
	resp.Op = wire.OpWriteAck
	switch m.Op {
	case wire.OpWrite, wire.OpWriteV, wire.OpFlushV:
		if sh.k.cfg.Fault != FaultDropWrites || m.Op == wire.OpFlushV {
			sh.applyRuns(m)
		}
	case wire.OpFetchAdd:
		resp.Op, resp.Arg1 = wire.OpFetchAddResp, seg.FetchAdd(m.Addr, m.Arg1)
	case wire.OpCAS:
		var swapped bool
		resp.Op = wire.OpCASResp
		if resp.Arg1, swapped = seg.CAS(m.Addr, m.Arg1, m.Arg2); swapped {
			resp.Arg2 = 1
		}
	}
	sh.reply(m)
}

// handleReadLease serves a lease-mode block fetch: the whole block containing
// m.Addr plus the home's lease duration. The home keeps no record of the
// reader — a leaseholder is never invalidated; its staleness is bounded by
// the expiry it got here.
func (sh *kernelShard) handleReadLease(m *wire.Message) {
	k := sh.k
	bw, b := k.space.BlockWords, sh.runs[0].block
	k.seg.ReadRun(sh.scratch(bw), b, 0)
	resp := &sh.resp
	resp.Op, resp.Addr = wire.OpReadLeaseResp, b*uint64(bw)
	resp.Arg2 = int64(k.cfg.LeaseDuration)
	resp.PutWords(sh.wscratch)
	sh.reply(m)
}

// applyRuns stores the words of every run of a write — one run of a scalar
// write, several of a vectored one or, encoded the same way, of one PE's
// coalesced write-combining-buffer drain (OpFlushV: the release-consistency
// publish at a synchronisation edge).
func (sh *kernelShard) applyRuns(m *wire.Message) {
	ws := sh.scratch(sh.k.space.BlockWords) // no run is longer
	for i := range sh.runs {
		r := &sh.runs[i]
		wire.DecodeWords(ws[:r.count], m.Data[r.at:])
		sh.k.seg.WriteRun(r.block, r.off, ws[:r.count])
	}
}
