package core

import (
	"errors"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/gmem"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ringSlots is the capacity of each shard's write submission ring. Each
// producer blocks until its slot is applied, so occupancy is bounded by the
// co-located PE count; 256 slots keep Push from ever failing in practice
// while the full-ring fallback to the message path stays covered by tests.
const ringSlots = 256

// kernelShard is one address-range shard of a kernel's home-side
// global-memory service. The homed blocks are partitioned over shards by
// gmem.Space.ShardOf (block-round-robin, aligned with the segment's lock
// stripes so shards mutate disjoint stripes), and each shard owns everything
// a GM request touches beyond the segment itself: the dedup window for
// mutating GM ops, the in-flight invalidation rounds, the decode/encode
// scratch and the service-side counters.
//
// A shard is a monitor, not a thread: mu guards all of that state, and
// whoever holds it serves — the requesting PE's own goroutine on inproc
// (Kernel.serveOnSender), the serve loop for everything that reaches it
// through Recv, a ring producer draining what it just published. A given
// address is always serviced under the same shard's lock, which preserves
// per-word request ordering and exactly-once dedup. Lock order: a shard lock
// is outermost and never nested in another shard lock; under it a handler
// may take the segment's stripe locks, escrowMu and — through its reply Send
// — the requester's mailboxes and logMu, none of which ever take a
// shard lock (DESIGN.md §11).
type kernelShard struct {
	k   *Kernel
	idx int

	// mu is the monitor lock. Use lock/unlock: it is not taken at all under
	// simulation.
	mu sync.Mutex

	// ring is the one-sided write submission ring owned by this shard (nil
	// when the write fast path is off). Co-located PEs publish single-word
	// writes of words not in cached mode into it and drain it themselves
	// under mu right after publishing, so no message is built and nobody is
	// woken.
	ring *gmem.SubmitRing
	// ringBuf is the drain batch scratch.
	ringBuf []gmem.RingWrite

	// dedup is the exactly-once window for mutating GM requests routed to
	// this shard. A retry routes identically (same address → same shard; the
	// requester stamps vectored retries with the same shard hint), so the
	// split window absorbs exactly what the kernel-wide window used to.
	dedup dedupTable

	// inv holds this shard's in-flight invalidation rounds, keyed by the
	// kernel-global round id.
	inv map[uint64]*invRound

	// extra accumulates this shard's service counters and histograms,
	// merged into the kernel's totals after shutdown.
	extra trace.PEStats

	// spans is this shard's service-span ring (nil unless Config.Tracing);
	// per shard because a span ring is single-writer.
	spans *trace.SpanRing

	// Handler scratch, reused across requests.
	wscratch []int64     // payload words
	vscratch []int64     // per-run words of a vectored write
	raddrs   []uint64    // decoded vectored-read range starts
	rcounts  []int       // decoded vectored-read range lengths
	stale    []gmem.Copy // cached copies the request being served made stale
}

func newKernelShard(k *Kernel, idx int, rings bool) *kernelShard {
	sh := &kernelShard{
		k:     k,
		idx:   idx,
		dedup: newDedupTable(),
		inv:   make(map[uint64]*invRound),
		spans: k.cfg.Tracing.NewRing(),
	}
	if rings {
		sh.ring = gmem.NewSubmitRing(ringSlots)
		sh.ringBuf = make([]gmem.RingWrite, ringSlots)
	}
	return sh
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

// shardFor routes message m to a shard index. Scalar ops hash their address;
// vectored ops carry the requester's shard hint (the requester groups runs
// per shard, so the hint names every range's shard); invalidation acks carry
// the shard that opened the round. An out-of-range hint (a stale or hostile
// byte) returns -1 and the message is dropped: clamping it to shard 0, as
// earlier versions did, routed a retried OpWriteV (or an OpInvAck) past the
// shard holding its dedup window or invalidation round, so a retry could be
// applied twice instead of being absorbed.
func (k *Kernel) shardFor(m *wire.Message) int {
	if k.nshards == 1 {
		return 0
	}
	switch m.Op {
	case wire.OpReadV, wire.OpWriteV, wire.OpFlushV, wire.OpInvAck:
		if s := int(m.Shard); s < k.nshards {
			return s
		}
		return -1
	}
	return k.space.ShardOf(m.Addr, k.nshards)
}

// dispatchGM services one GM request the serve loop received, under the lock
// of the shard it routes to. A message whose shard hint does not survive
// validation is dropped as corrupt — the requester's timeout/retry machinery
// owns recovery, and a well-formed retry carries a valid hint.
func (k *Kernel) dispatchGM(m *wire.Message) {
	s := k.shardFor(m)
	if s < 0 {
		k.extra.CorruptDrops++
		return
	}
	sh := k.shards[s]
	sh.lock()
	sh.handleGM(m)
	sh.unlock()
}

// serveOnSender is the inproc half of the node's sink: a leaf GM request an
// application context sent is serviced right here, on that context, under the
// owning shard's lock. The handler's reply Send runs through the requester's
// own sink (deliverApp) into its own reply mailbox, so the requester finds the
// answer without parking — no goroutine hand-off in the round trip, still two
// counted wire messages through the same codec, dedup, stats and spans.
//
// Only application-originated requests qualify. What a handler itself sends —
// OpInvalidate, OpInvAck, an escrow re-offer — is declined and queued for the
// destination's serve loop: served inline, an ack would re-enter the lock its
// sender still holds. A forged shard hint is declined too, so the serve loop
// counts the drop.
func (k *Kernel) serveOnSender(m *wire.Message) bool {
	switch m.Op {
	case wire.OpRead, wire.OpReadV, wire.OpWrite, wire.OpWriteV, wire.OpFlushV,
		wire.OpFetchAdd, wire.OpCAS, wire.OpReadLease:
	default:
		return false
	}
	s := k.shardFor(m)
	if s < 0 {
		return false
	}
	m.RecvAt = k.svc.Now()
	k.logMessage(m)
	k.shards[s].serve(m)
	wire.PutMessage(m)
	return true
}

// serve services m under the shard lock and accounts for it in the shard: the
// service time from m.RecvAt, the span, and ShardedMsgs. The unlock is
// deferred so that a handler's panic — which the requesting PE's runPE turns
// into that PE's error — does not leave every later requester of this shard
// waiting for a lock nobody holds.
func (sh *kernelShard) serve(m *wire.Message) {
	sh.lock()
	defer sh.unlock()
	sh.handleGM(m)
	end := sh.k.svc.Now()
	sh.extra.ServiceByOp[m.Op].Observe(end - m.RecvAt)
	sh.extra.ShardedMsgs++
	if sh.spans != nil && sh.spans.Sampled() {
		sh.spans.Record(trace.Span{
			Kind: trace.SpanService, Op: m.Op,
			PE: int32(sh.k.id), Peer: m.Src, Seq: m.Seq,
			Start: m.RecvAt, End: end,
		})
	}
}

// fenceShards passes through every shard's monitor once, draining its
// submission ring on the way: when it returns, every service that was in
// flight on any shard has completed and every one-sided write published
// before the fence is applied. The checkpoint marker uses it so seg.Export
// sees no request half-applied, a namespace free before dropping blocks, a
// migration install before adopting them.
// Serve loop only, never from inside a handler (no nested shard locks), and
// peer-down handling deliberately never fences: the Send that reported the
// peer dead may be a handler's, made under the very lock a fence would take.
func (k *Kernel) fenceShards() {
	for _, sh := range k.shards {
		sh.fence()
	}
}

// fence passes through the monitor once, applying whatever its ring holds.
func (sh *kernelShard) fence() {
	sh.lock()
	sh.drainRing()
	sh.unlock()
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

// drainRing applies every write currently published in this shard's
// submission ring: the home side of the one-sided write path. Writes are
// deduped against the shard's exactly-once window (ring sequences come from
// the same per-kernel counter as message sequences, so a ring write that
// raced a message-path retry is applied once), applied to the segment in
// one per-block-capped seqlock batch, recorded as completed, and only then
// released. Every producer drains under the shard lock right after it
// publishes and checks that its slot was consumed — by its own drain or by
// that of whoever held the lock before it; a drain stops at a slot claimed
// but not yet published, so the producer behind it goes again (ringWrite).
// Caller holds the shard lock.
func (sh *kernelShard) drainRing() int {
	if sh.ring == nil {
		return 0
	}
	n := sh.ring.Drain(sh.ringBuf)
	if n == 0 {
		return 0
	}
	batch := sh.ringBuf[:n]
	k := sh.k
	liveDir := !k.dir.Static()
	fresh := batch[:0] // dedup-filter in place: fresh writes only
	for _, w := range batch {
		// The ownership filter must run BEFORE the dedup lookup: a write
		// whose block migrated away after the producer's precheck is simply
		// not applied, and crucially leaves no dedup record — the producer
		// detects the migration-generation change and falls back to the
		// message path with the same sequence number, which must not be
		// absorbed here as an in-progress duplicate.
		if liveDir && !k.dir.Owns(k.id, k.space.BlockOf(w.Addr)) {
			continue
		}
		if e := sh.dedup.lookup(w.Src, w.Seq); e != nil {
			// The message path already applied (or is applying) this seq.
			sh.extra.DupRequests++
			continue
		}
		// Namespace filter (defense in depth: the producer's PE-side guard
		// refuses out-of-region ring writes before publishing, so only a
		// forged publish reaches here). The write is dropped unapplied and
		// leaves no dedup record — a message-path retry of the same seq gets
		// the typed OpNsNack from nsDeny instead of a silent absorb.
		if region, bound := k.ns.Lookup(int(w.Src)); bound && !region.Contains(w.Addr, 1) {
			sh.dedup.forget(w.Src, w.Seq)
			sh.extra.NsViolations++
			continue
		}
		fresh = append(fresh, w)
	}
	sh.k.seg.ApplyWrites(fresh)
	for _, w := range fresh {
		sh.dedup.complete(w.Src, w.Seq, wire.OpWriteAck, 0, 0, nil)
	}
	sh.extra.RingDrained += uint64(len(fresh))
	sh.ring.Release(n)
	return n
}

// handleGM services one GM request routed to this shard. Every GM handler
// consumes its message; the caller holds the shard lock and recycles m.
func (sh *kernelShard) handleGM(m *wire.Message) {
	if isMutating(m.Op) && sh.dedupCheck(m) {
		// Duplicate: absorbed by the shard's dedup window. The dedup check
		// deliberately runs BEFORE the ownership check, so the retry of a
		// mutation this kernel applied just before handing the block away is
		// answered from the cached response instead of being NACKed toward
		// the new home and applied a second time there.
		return
	}
	if sh.nsDeny(m) {
		return // outside the requester's namespace: typed rejection sent
	}
	if sh.nackIfForeign(m) {
		return // block migrated away: requester redirects to the hinted home
	}
	switch m.Op {
	case wire.OpRead:
		sh.handleRead(m)
	case wire.OpReadV:
		sh.handleReadV(m)
	case wire.OpWrite, wire.OpWriteV, wire.OpFlushV, wire.OpFetchAdd, wire.OpCAS:
		sh.handleMutation(m)
	case wire.OpReadLease:
		sh.handleReadLease(m)
	case wire.OpInvalidate:
		sh.handleInvalidate(m)
	case wire.OpInvAck:
		sh.handleInvAck(m)
	}
}

// nackIfForeign pre-scans every block a GM request touches against the live
// membership directory and, if any is not homed here, NACKs the whole
// message with the first foreign block's new home as the redirect hint —
// before any mutation, so a multi-block request is all-or-nothing (a partial
// apply followed by a whole-message retry at the new home would double-apply
// the runs that had already landed here). Escrowed foreign blocks are
// re-offered to their destination on the way, which is how a migration whose
// initiator died heals through normal traffic.
//
// The scan runs even while this kernel's own directory is still static: a
// requester that learned a new-home hint can redirect a request here BEFORE
// our install arrives, and applying it into a lazily-created block would
// lose the write when the install's payload adopts over it. Bouncing it
// (hint: the probe-rule home) until the data lands keeps it exactly-once.
// The cost on the static hot path is one directory lookup per touched block
// for scalar ops and an O(runs) header walk for vectored ones.
func (sh *kernelShard) nackIfForeign(m *wire.Message) bool {
	k := sh.k
	foreign := -1
	bw := uint64(k.space.BlockWords)
	scan := func(addr uint64, count int) {
		if count < 1 {
			count = 1
		}
		// Clamp to one block's worth of words: every legitimate range fits
		// inside a single block (the PE-side run splitters never cross a
		// block boundary, and gmem's checkHome enforces it server-side), so
		// the clamp is a no-op for valid traffic. Without it a corrupt
		// count — this scan runs BEFORE the op handler's own bounds checks —
		// would spin the server through up to count/BlockWords directory
		// lookups.
		if count > int(bw) {
			count = int(bw)
		}
		last := (addr + uint64(count) - 1) / bw
		for b := addr / bw; b <= last; b++ {
			if !k.dir.Owns(k.id, b) {
				if foreign < 0 {
					foreign = k.dir.HomeOfBlock(b)
				}
				sh.reOffer(b)
			}
		}
	}
	switch m.Op {
	case wire.OpRead:
		n := int(m.Arg1)
		if m.Arg2 == 1 {
			n = 1 // block fetch of a cached-mode read: one block
		}
		scan(m.Addr, n)
	case wire.OpWrite:
		scan(m.Addr, len(m.Data)/8)
	case wire.OpFetchAdd, wire.OpCAS:
		scan(m.Addr, 1)
	case wire.OpReadV:
		if m.EachRange(func(addr uint64, count int) { scan(addr, count) }) != nil {
			return false // corrupt payload: the op handler counts and drops it
		}
	case wire.OpWriteV, wire.OpFlushV:
		if m.EachRunHeader(func(addr uint64, count int) { scan(addr, count) }) != nil {
			return false
		}
	case wire.OpReadLease:
		scan(m.Addr, 1)
	default:
		return false // invalidation traffic is not home-routed
	}
	if foreign < 0 {
		return false
	}
	// The NACK is deliberately NOT cached in the dedup window: forgetting
	// the in-progress entry the lookup just registered means a retry is
	// re-evaluated — and applied — once the block lands here, instead of
	// being answered from a stale cached NACK forever. A retry after a LOST
	// NACK simply recomputes it (side-effect-free; re-offers are
	// idempotent).
	if isMutating(m.Op) {
		sh.dedup.forget(m.Src, m.Seq)
	}
	resp := wire.GetMessage()
	resp.Op, resp.Arg1 = wire.OpMigrateNack, int64(foreign)
	resp.Src, resp.Dst, resp.Seq = int32(k.id), m.Src, m.Seq
	k.svc.Send(int(m.Src), resp)
	wire.PutMessage(resp)
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

// dedupCheck consults the shard's dedup window before a mutating request is
// dispatched. It reports whether the message was absorbed here: a duplicate
// whose response is cached is answered by resend, a duplicate still in
// progress is dropped (the eventual response will serve it) — unless the
// retry flag is set, which re-kicks the request's invalidation round.
func (sh *kernelShard) dedupCheck(m *wire.Message) bool {
	e := sh.dedup.lookup(m.Src, m.Seq)
	if e == nil {
		return false
	}
	sh.extra.DupRequests++
	if e.state == dedupDone {
		resp := wire.GetMessage()
		resp.Op, resp.Arg1, resp.Arg2 = e.respOp, e.arg1, e.arg2
		if len(e.data) > 0 {
			resp.Data = append(resp.Data[:0], e.data...)
		}
		sh.reply(m, resp)
	} else if m.Flags&wire.FlagRetry != 0 {
		// The writer is retrying while its invalidation round is still
		// open: a lost OpInvalidate/OpInvAck would wedge the round (and
		// absorb every further retry right here), so nudge it along.
		sh.resendInvalidations(m.Src, m.Seq)
	}
	return true
}

// reply answers request m, echoing its Seq, and completes the shard's dedup
// entry for mutating requests. reply takes ownership of resp.
func (sh *kernelShard) reply(m *wire.Message, resp *wire.Message) {
	k := sh.k
	resp.Src = int32(k.id)
	resp.Dst = m.Src
	resp.Seq = m.Seq
	if isMutating(m.Op) {
		sh.dedup.complete(m.Src, m.Seq, resp.Op, resp.Arg1, resp.Arg2, resp.Data)
	}
	k.svc.Send(int(m.Src), resp)
	wire.PutMessage(resp)
}

func (sh *kernelShard) handleRead(m *wire.Message) {
	if m.Arg2 == 1 {
		// Block fetch of a cached-mode read: return the whole block and record
		// the reader in the directory.
		sh.wscratch = sh.k.seg.ReadBlockFor(sh.wscratch[:0], m.Addr, int(m.Src))
	} else {
		sh.wscratch = sh.k.seg.ReadAppend(sh.wscratch[:0], m.Addr, int(m.Arg1))
	}
	resp := wire.GetMessage()
	resp.Op, resp.Addr = wire.OpReadResp, m.Addr
	resp.PutWords(sh.wscratch)
	sh.reply(m, resp)
}

// handleReadV serves a vectored read: every requested range, gathered into
// one response payload.
func (sh *kernelShard) handleReadV(m *wire.Message) {
	sh.raddrs = sh.raddrs[:0]
	sh.rcounts = sh.rcounts[:0]
	if err := m.EachRange(func(addr uint64, count int) {
		sh.raddrs = append(sh.raddrs, addr)
		sh.rcounts = append(sh.rcounts, count)
	}); err != nil {
		// Corrupt vectored-read payload: drop without replying (the
		// requester's timeout/retry machinery owns recovery).
		sh.extra.CorruptDrops++
		return
	}
	sh.wscratch = sh.k.seg.ReadV(sh.wscratch[:0], sh.raddrs, sh.rcounts)
	resp := wire.GetMessage()
	resp.Op, resp.Addr = wire.OpReadVResp, m.Addr
	resp.PutWords(sh.wscratch)
	sh.reply(m, resp)
}

// handleMutation is the one home-side path of every mutating request: apply
// it through the segment's Shared forms, which hand back in sh.stale —
// collected in the stripe critical section of the store itself — the cached
// copies it made stale, then acknowledge: at once when there are none (any
// block nobody caches), else when every copy has acknowledged its
// invalidation (write-invalidate coherence: the writer may not proceed while
// stale copies are readable). The home needs no knowledge of modes: only a
// cached-mode read ever joins a copyset.
func (sh *kernelShard) handleMutation(m *wire.Message) {
	seg, writer := sh.k.seg, int(m.Src)
	sh.stale = sh.stale[:0]
	respOp, arg1, arg2 := wire.OpWriteAck, int64(0), int64(0)
	var err error
	switch m.Op {
	case wire.OpWrite:
		if len(m.Data)%8 != 0 {
			err = errTornPayload // WordsInto would panic
			break
		}
		sh.wscratch = m.WordsInto(sh.wscratch)
		seg.WriteShared(m.Addr, sh.wscratch, writer, &sh.stale)
	case wire.OpWriteV, wire.OpFlushV:
		err = sh.applyRuns(m)
	case wire.OpFetchAdd:
		respOp, arg1 = wire.OpFetchAddResp, seg.FetchAddShared(m.Addr, m.Arg1, writer, &sh.stale)
	case wire.OpCAS:
		var swapped bool
		respOp = wire.OpCASResp
		if arg1, swapped = seg.CASShared(m.Addr, m.Arg1, m.Arg2, writer, &sh.stale); swapped {
			arg2 = 1
		}
	}
	switch {
	case err != nil:
		// Corrupt payload: not acked, so the requester treats the request as
		// lost and retries (runs decoded before the corruption were applied).
		sh.extra.CorruptDrops++
	case len(sh.stale) != 0 && !sh.k.cfg.FaultDropInvalidations:
		// (The TEST-ONLY fault acknowledges without invalidating: readers keep
		// serving stale values, which the consistency checker must flag.)
		sh.openRound(m, respOp, arg1, arg2)
	default:
		resp := wire.GetMessage()
		resp.Op, resp.Arg1, resp.Arg2 = respOp, arg1, arg2
		sh.reply(m, resp)
	}
}

// handleReadLease serves a lease-mode block fetch: the whole block containing
// m.Addr plus the home's lease duration, WITHOUT registering the reader in
// the coherence directory — a leaseholder is never invalidated; its staleness
// is bounded by the expiry it got here.
func (sh *kernelShard) handleReadLease(m *wire.Message) {
	k := sh.k
	bw := uint64(k.space.BlockWords)
	base := m.Addr / bw * bw
	sh.wscratch = k.seg.ReadAppend(sh.wscratch[:0], base, k.space.BlockWords)
	resp := wire.GetMessage()
	resp.Op, resp.Addr = wire.OpReadLeaseResp, base
	resp.Arg2 = int64(k.cfg.LeaseDuration)
	resp.PutWords(sh.wscratch)
	sh.reply(m, resp)
}

// applyRuns scatters every run of a vectored write to its range — or, encoded
// the same way, of one PE's coalesced write-combining-buffer drain (OpFlushV:
// the release-consistency publish at a synchronisation edge).
func (sh *kernelShard) applyRuns(m *wire.Message) (err error) {
	sh.vscratch, err = m.EachWriteRun(sh.vscratch, func(addr uint64, words []int64) {
		sh.k.seg.WriteShared(addr, words, int(m.Src), &sh.stale)
	})
	return err
}

// openRound invalidates every copy in sh.stale; the last ack answers m. Round
// ids come from the kernel-global counter, so they are unique across shards;
// every OpInvalidate carries this shard's index, which the acking kernel
// echoes, so the ack routes back to the shard holding the round even when
// the written ranges spanned shards (possible under simulation, where
// vectored requests are not split per shard).
func (sh *kernelShard) openRound(m *wire.Message, respOp wire.Op, arg1, arg2 int64) {
	id := sh.k.invCtr.Add(1)
	r := &invRound{
		requester: m.Src, seq: m.Seq,
		respOp: respOp, arg1: arg1, arg2: arg2,
	}
	// sh.stale is reused scratch; the round needs its own copy to survive
	// until the last ack.
	r.outstanding = append(r.outstanding, sh.stale...)
	sh.inv[id] = r
	for _, c := range r.outstanding {
		sh.sendInvalidate(id, c, 0)
	}
}

// sendInvalidate tells c's holder to drop its copy, for round id.
func (sh *kernelShard) sendInvalidate(id uint64, c gmem.Copy, flags uint8) {
	k := sh.k
	inv := wire.GetMessage()
	inv.Op, inv.Src, inv.Dst = wire.OpInvalidate, int32(k.id), int32(c.Holder)
	inv.Seq, inv.Addr = id, c.Addr
	inv.Shard = uint8(sh.idx)
	inv.Flags |= flags
	k.svc.Send(c.Holder, inv)
	wire.PutMessage(inv)
}

// errTornPayload marks a write whose payload is not whole words.
var errTornPayload = errors.New("core: payload is not whole words")

// resendInvalidations retransmits the still-unacked invalidations of the
// round started by requester's mutating request seq, if one is in flight.
// Called when a retried duplicate of that request arrives: the retry means
// the writer never got its response, and under a lossy transport the likely
// cause is a lost OpInvalidate or OpInvAck that no other timer would ever
// recover. The round lives in this shard — retries route like the original.
func (sh *kernelShard) resendInvalidations(requester int32, seq uint64) {
	for id, r := range sh.inv {
		if r.requester != requester || r.seq != seq {
			continue
		}
		for _, c := range r.outstanding {
			sh.sendInvalidate(id, c, wire.FlagRetry)
		}
		return
	}
}

// handleInvalidate drops the local cached copy and acks. The ack echoes the
// sender's shard hint so it routes back to the shard holding the round (the
// invalidated address is homed at the sender, so hashing it locally would
// name the wrong kernel's partition).
func (sh *kernelShard) handleInvalidate(m *wire.Message) {
	sh.k.cache.Invalidate(m.Addr)
	ack := wire.GetMessage()
	ack.Op, ack.Addr = wire.OpInvAck, m.Addr
	ack.Shard = m.Shard
	sh.reply(m, ack)
}

func (sh *kernelShard) handleInvAck(m *wire.Message) {
	r, ok := sh.inv[m.Seq]
	if !ok {
		// A duplicate or late ack for a round already completed (or an ack
		// with a corrupted shard hint): count and drop instead of taking the
		// kernel down.
		sh.extra.StrayDrops++
		return
	}
	// Match the ack against a specific outstanding invalidation so that a
	// duplicated ack (original + the answer to a retransmission) cannot
	// complete the round while other copies are still live.
	found := -1
	for i, c := range r.outstanding {
		if c.Holder == int(m.Src) && c.Addr == m.Addr {
			found = i
			break
		}
	}
	if found < 0 {
		sh.extra.StrayDrops++
		return
	}
	r.outstanding = append(r.outstanding[:found], r.outstanding[found+1:]...)
	if len(r.outstanding) > 0 {
		return
	}
	delete(sh.inv, m.Seq)
	sh.dedup.complete(r.requester, r.seq, r.respOp, r.arg1, r.arg2, nil)
	resp := wire.GetMessage()
	resp.Op, resp.Src, resp.Dst, resp.Seq = r.respOp, int32(sh.k.id), r.requester, r.seq
	resp.Arg1, resp.Arg2 = r.arg1, r.arg2
	sh.k.svc.Send(int(r.requester), resp)
	wire.PutMessage(resp)
}
