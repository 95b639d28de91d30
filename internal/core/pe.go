package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/gmem"
	"repro/internal/procmgmt"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// PE is the application's view of one processor element: the Parallel API
// Library of the paper. A PE value is used by exactly one goroutine (or sim
// process) — the DSE process — and mediates every interaction with the
// cluster: global memory, synchronisation, messages and process management.
type PE struct {
	k     *Kernel
	app   transport.Port
	alloc *gmem.Allocator
	gpid  int64
	extra trace.PEStats     // app-context counters merged into the result
	spans *trace.SpanRing   // request span ring (nil unless Config.Tracing)
	live  *trace.Histogram  // Config.LiveRTT: shared live round-trip histogram
	hist  *check.PERecorder // operation history (nil unless Config.RecordHistory)

	// Checkpoint/restart state (Config.Ckpt).
	saveFn      func() []byte // RegisterCheckpoint's save hook
	restoredApp []byte        // app blob from the snapshot this run restored
	restored    bool          // this run started from a snapshot
	ckptEpoch   uint64        // last completed checkpoint epoch
	viewGen     uint64        // view generation: recoveries this cluster survived

	// replyMb is the persistent reply mailbox: every response to this PE's
	// requests lands here (the PE is single-threaded, so scalar requests
	// never overlap; pipelined block transfers match replies by Seq). On
	// inproc the PE itself puts the replies in (Kernel.serveOnSender), so the
	// default depth must exceed what it can have in flight: withDefaults
	// rejects a cluster where NumPE x KernelShards could come close.
	replyMb transport.Mailbox

	// Consistency-tier state (DESIGN.md §14). modes maps allocations to
	// their tier; wc buffers release-mode writes between sync edges; leases
	// caches lease-mode blocks until their grants expire.
	modes  *gmem.ModeTable
	wc     *gmem.WCBuf
	leases map[uint64]*leaseEntry // keyed by block base address

	// ns, when Limit != 0, confines every global-memory operation to the job
	// namespace the scheduler bound this PE to (dsesched, DESIGN.md §15).
	// Checked before a request leaves the PE, which is what covers the
	// one-sided window and ring fast paths with the same guard as the
	// message path; the home kernel independently re-checks arriving
	// messages against its own registry (kernelShard.nsDeny).
	ns gmem.Region

	// Scratch reused across calls by the hot-path operations.
	words []int64   // decoded response payloads
	vruns []vrun    // remote runs of the range operation being assembled
	hruns []vrun    // the same runs, grouped by home
	reqs  []homeReq // one in-flight request per remote home
	fl    []uint64  // drained WC addresses (ascending) of the current flush
	flv   []int64   // drained WC values, parallel to fl
}

func newPE(k *Kernel) *PE {
	pe := &PE{
		k:       k,
		app:     k.node.App(),
		alloc:   gmem.NewAllocator(k.space),
		replyMb: k.node.NewMailbox(0),
		spans:   k.cfg.Tracing.NewRing(),
		live:    k.cfg.LiveRTT,
		hist:    k.cfg.recorder.PE(k.id),
		modes:   gmem.NewModeTable(k.cfg.GMDefaultMode),
		wc:      gmem.NewWCBuf(),
		leases:  make(map[uint64]*leaseEntry),
	}
	pe.hist.SetClock(pe.app)
	if rs := k.cfg.restore; rs != nil {
		pe.ckptEpoch = rs.epoch
		pe.viewGen = rs.viewGen
		pe.restoredApp = rs.app[k.id]
		pe.restored = true
		pe.extra.Restores++
		pe.extra.RollbackOps += rs.rollback[k.id]
	}
	return pe
}

// ID returns this PE's kernel id in [0, N).
func (pe *PE) ID() int { return pe.k.id }

// N returns the number of PEs in the cluster.
func (pe *PE) N() int { return pe.k.n }

// Hostname names the physical machine hosting this PE. Under a virtual
// cluster several PEs share one.
func (pe *PE) Hostname() string { return pe.k.node.Hostname() }

// GPID returns the cluster-global process id assigned at registration.
func (pe *PE) GPID() int64 { return pe.gpid }

// Now returns the PE's clock (virtual time under simulation).
func (pe *PE) Now() sim.Time { return pe.app.Now() }

// Compute charges the cost of ops application operations (roughly flops)
// against this PE.
func (pe *PE) Compute(ops float64) { pe.app.Compute(ops) }

// Alloc reserves n global-memory words. Allocation is deterministic: every
// PE of the SPMD program performs the same Alloc sequence and obtains the
// same addresses without communicating.
func (pe *PE) Alloc(n int) uint64 { return pe.alloc.Alloc(n) }

// AllocBlocks reserves n words starting on a block boundary.
func (pe *PE) AllocBlocks(n int) uint64 { return pe.alloc.AllocBlocks(n) }

// AllocMode reserves n words under the given consistency mode (DESIGN.md
// §14). Deterministic like Alloc: every PE performs the same AllocMode
// sequence, so the per-PE mode tables agree without communicating. Like a
// quota overrun, a cached-mode allocation beside moving homes panics.
func (pe *PE) AllocMode(n int, m gmem.Mode) uint64 {
	pe.checkMode(m)
	addr := pe.alloc.Alloc(n)
	pe.modes.Set(addr, n, m)
	return addr
}

// AllocBlocksMode is AllocBlocks under the given consistency mode.
func (pe *PE) AllocBlocksMode(n int, m gmem.Mode) uint64 {
	pe.checkMode(m)
	addr := pe.alloc.AllocBlocks(n)
	pe.modes.Set(addr, n, m)
	return addr
}

func (pe *PE) checkMode(m gmem.Mode) {
	if m == gmem.ModeCached && !pe.k.dir.Static() {
		panic(fmt.Errorf("core: PE %d: %w", pe.k.id, errCachedElastic))
	}
}

// Space exposes the global address-space geometry.
func (pe *PE) Space() gmem.Space { return pe.k.space }

// legacyCrossing charges the old two-process organisation's IPC round trip
// at the top of a Parallel-API call (no-op in the reorganised design).
func (pe *PE) legacyCrossing() {
	if pe.k.cfg.Legacy {
		pe.app.LegacyIPC()
	}
}

// request sends m to kernel dst and blocks until the response arrives in
// the persistent reply mailbox. Request time beyond the send-side overhead
// is accounted as wait time. The caller owns both m and the returned
// response; recycle them with wire.PutMessage when done. Failures panic with
// the typed error of requestErr, the error-returning tier underneath.
func (pe *PE) request(dst int, m *wire.Message) *wire.Message {
	resp, err := pe.requestErr(dst, m)
	must(err)
	return resp
}

// must is the whole of every panicking Parallel-API form: the error of the
// error-returning tier underneath, raised as a panic with its type intact —
// runPE turns it into the PE's Result.Errs entry, so callers still classify
// the failure with errors.As.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// requestErr is request with failures surfaced as errors: *TimeoutError
// after the configured retries are exhausted, *PeerDownError when the
// transport declared dst dead, *ShutdownError when the cluster went down.
//
// Retries resend the request with the same Seq and the retry flag set; the
// home kernel's dedup window guarantees a retried mutating operation is
// applied exactly once. The pending registration survives across attempts so
// a late first reply still routes to us (and is then matched by Seq).
func (pe *PE) requestErr(dst int, m *wire.Message) (*wire.Message, error) {
	return pe.requestSeqErr(dst, m, 0)
}

// requestSeqErr is requestErr with an optional caller-provided sequence
// number (0 allocates a fresh one). The ambiguous one-sided write fallback
// passes the ring sequence it already published, so the home's dedup window
// recognises the operation whichever path applied it first.
//
// A wire.OpMigrateNack response means the addressed kernel no longer homes
// (one of) the request's blocks: the requester learns the hinted new home,
// re-registers the SAME sequence number and retries there — exactly-once
// carries across the redirect because the old home never applied the
// operation (NACKs are issued before any mutation) and the new home's window
// absorbs duplicates like any other.
func (pe *PE) requestSeqErr(dst int, m *wire.Message, seq uint64) (*wire.Message, error) {
	k := pe.k
	m.Src = int32(k.id)
	m.Dst = int32(dst)
	var dead bool
	if seq == 0 {
		seq, dead = k.addPending(pe.replyMb, dst)
	} else {
		dead = k.addPendingSeq(pe.replyMb, dst, seq)
		m.Flags |= wire.FlagRetry
	}
	if dead {
		return nil, &PeerDownError{PE: k.id, Peer: dst, Op: m.Op.String()}
	}
	m.Seq = seq
	start := pe.app.Now()
	var sent sim.Time
	backoff := k.cfg.RetryBackoff
	bounces := 0
	want := k.replyWords(m)
	for attempts := 1; ; attempts++ {
		pe.app.Send(dst, m)
		if pe.spans != nil && sent == 0 {
			sent = pe.app.Now()
		}
		resp, err := pe.takeReply(seq, m.Op, dst, attempts, want)
		if err == nil && resp.Op == wire.OpMigrateNack {
			hint := int(resp.Arg1)
			wire.PutMessage(resp)
			if bounces++; bounces > maxMigrateBounces || hint < 0 || hint >= k.n {
				pe.extra.WaitTime += pe.app.Now() - start
				return nil, fmt.Errorf("core: PE %d: %v to kernel %d bounced %d times chasing a migrating home", k.id, m.Op, dst, bounces)
			}
			pe.extra.MigrateNacks++
			if bounces > 2 {
				// A redirect can outrun the handoff itself: the hinted new
				// home NACKs back toward the probe rule until its install
				// lands. Give the migration a beat instead of burning the
				// bounce budget on a tight ping-pong.
				boff := backoff
				if boff == 0 {
					boff = 1 << 16
				}
				pe.app.Sleep(boff)
			}
			switch m.Op {
			case wire.OpRead, wire.OpWrite, wire.OpFetchAdd, wire.OpCAS, wire.OpReadLease:
				// Cache the new home so later requests skip the bounce. Gated
				// to the ops whose Addr is a data address.
				// Never cache a hint naming our OWN kernel: the requester's
				// hint cache is the kernel's shared directory, which is
				// authoritative about what this kernel homes. A stale peer's
				// probe-rule hint would overwrite the override the kernel
				// installed when it handed the block away, resurrecting
				// phantom self-ownership — the kernel would lazily recreate
				// the extracted block and swallow writes into it.
				if hint != k.id {
					k.dir.SetOverride(k.space.BlockOf(m.Addr), hint)
				}
			}
			if k.addPendingSeq(pe.replyMb, hint, seq) {
				pe.extra.WaitTime += pe.app.Now() - start
				return nil, &PeerDownError{PE: k.id, Peer: hint, Op: m.Op.String()}
			}
			dst = hint
			m.Dst = int32(dst)
			m.Flags |= wire.FlagRetry
			continue
		}
		if err == nil && resp.Op == wire.OpNsNack {
			// The home rejected the request whole: it strayed outside the
			// requester's bound namespace (the kernel counted the violation).
			// Surface the typed error so the job aborts instead of ever
			// touching foreign memory.
			nsErr := &NamespaceError{
				PE: k.id, Op: m.Op.String(), Addr: m.Addr,
				Base: uint64(resp.Arg1), Limit: uint64(resp.Arg2),
			}
			wire.PutMessage(resp)
			pe.extra.WaitTime += pe.app.Now() - start
			return nil, nsErr
		}
		if err == nil {
			now := pe.app.Now()
			rtt := now - start
			pe.extra.WaitTime += rtt
			// Only the per-op histogram is fed on the hot path; the
			// aggregate PEStats.RTT is derived from it at collect time.
			pe.extra.RTTByOp[m.Op].Observe(rtt)
			if pe.live != nil {
				pe.live.Observe(rtt)
			}
			if pe.spans != nil && pe.spans.Sampled() {
				pe.spans.Record(trace.Span{
					Kind: trace.SpanRequest, Op: m.Op,
					PE: int32(k.id), Peer: int32(dst), Seq: seq,
					Start: start, Sent: sent, End: now,
				})
			}
			return resp, nil
		}
		if _, timedOut := err.(*TimeoutError); !timedOut || attempts > k.cfg.RequestRetries {
			k.dropPending(seq)
			pe.extra.WaitTime += pe.app.Now() - start
			return nil, err
		}
		if backoff > 0 {
			pe.app.Sleep(backoff)
			if backoff < 8*k.cfg.RetryBackoff {
				backoff *= 2
			}
		}
		m.Flags |= wire.FlagRetry
		pe.extra.Retries++
	}
}

// takeWithin takes the next message from mb, waiting at most d (0 = forever).
// ok is false when the mailbox closed (cluster shutdown).
func takeWithin(mb transport.Mailbox, d sim.Duration) (m *wire.Message, ok, timedOut bool) {
	if d > 0 {
		return mb.TakeTimeout(d)
	}
	m, ok = mb.Take()
	return m, ok, false
}

// replyWords returns how many payload words a well-formed reply to the read
// request req carries; -1 for the requests whose replies carry none.
func (k *Kernel) replyWords(req *wire.Message) int {
	switch req.Op {
	case wire.OpRead:
		if req.Arg2 != 1 {
			return int(req.Arg1)
		}
		return k.space.BlockWords // block fetch of a cached-mode read
	case wire.OpReadLease:
		return k.space.BlockWords
	case wire.OpReadV:
		n := 0
		if req.EachRange(func(_ uint64, count int) { n += count }) == nil {
			return n
		}
	}
	return -1
}

// readReplyOK reports whether resp, answering a request that expects want
// payload words, can be consumed: a reply is input from another node, and a
// read reply's payload is indexed by the counts the request asked for. NACKs
// and failure notices carry no words to check.
func readReplyOK(resp *wire.Message, want int) bool {
	switch resp.Op {
	case wire.OpReadResp, wire.OpReadVResp, wire.OpReadLeaseResp:
		return len(resp.Data) == 8*want
	}
	return true
}

// takeReply blocks on the reply mailbox until the response to seq arrives or
// the per-attempt timeout expires. Sequence validation is what makes the
// persistent mailbox safe: residue of an earlier timed-out request (a stale
// reply that arrived after we gave up on it) is recycled and skipped instead
// of being misdelivered as the answer to the current request. A read reply
// not carrying the want words asked for is counted and treated as lost, like
// a corrupt request at the home: the timeout and the retry own recovery.
func (pe *PE) takeReply(seq uint64, op wire.Op, dst int, attempts, want int) (*wire.Message, error) {
	k := pe.k
	d := k.requestTimeout()
	var deadline sim.Time
	if d > 0 {
		deadline = pe.app.Now() + d // no clock read on the wait-forever path
	}
	for {
		remaining := d
		if d > 0 {
			if remaining = deadline - pe.app.Now(); remaining <= 0 {
				return nil, &TimeoutError{PE: k.id, Dst: dst, Op: op.String(), Attempts: attempts}
			}
		}
		resp, ok, timedOut := takeWithin(pe.replyMb, remaining)
		if timedOut {
			return nil, &TimeoutError{PE: k.id, Dst: dst, Op: op.String(), Attempts: attempts}
		}
		if !ok {
			return nil, &ShutdownError{PE: k.id, Op: op.String()}
		}
		if resp.Op == wire.OpPeerDown {
			peer, rseq := int(resp.Src), resp.Seq
			wire.PutMessage(resp)
			if rseq != seq {
				pe.extra.StaleReplies++ // failure notice for an older request
				continue
			}
			return nil, &PeerDownError{PE: k.id, Peer: peer, Op: op.String()}
		}
		if resp.Seq != seq {
			pe.extra.StaleReplies++
			wire.PutMessage(resp)
			continue
		}
		if !readReplyOK(resp, want) {
			pe.extra.CorruptDrops++
			wire.PutMessage(resp)
			// Its delivery used up the pending entry the retry's reply needs.
			if k.addPendingSeq(pe.replyMb, dst, seq) {
				return nil, &PeerDownError{PE: k.id, Peer: dst, Op: op.String()}
			}
			continue
		}
		return resp, nil
	}
}

// --- Synchronisation ---

// flushWC publishes the write-combining buffer: one coalesced OpFlushV per
// (home, shard), own-home words applied directly. fenceInv is
// the enclosing sync operation's invocation instant — the KindFlush event is
// recorded FIRST with that same Inv, so it sorts ahead of the sync event,
// and a flush that fails anywhere is left open (Failed ⇒ unbounded effect
// window in the checker), shielding the buffered writes from wrongly
// convicting readers. Failures degrade softly instead of failing the sync
// operation itself: words homed at a dead peer are discarded for good (their
// blocks died with it), words that timed out re-enter the buffer and retry
// at the next sync edge.
func (pe *PE) flushWC(fenceInv sim.Time) {
	if pe.wc.Len() == 0 {
		return
	}
	k := pe.k
	if k.cfg.FaultSkipReleaseFlush {
		// TEST-ONLY fault (see Config): drop the buffered writes on the floor
		// and record nothing, so the enclosing sync edge claims a publication
		// that never happened — the checker's release rules must catch it.
		pe.wc.Discard()
		return
	}
	start := pe.app.Now()
	h := pe.hist.Begin(check.Event{Kind: check.KindFlush, Arg1: int64(pe.wc.Len()), Inv: fenceInv})
	pe.fl, pe.flv = pe.fl[:0], pe.flv[:0]
	pe.wc.Drain(func(addr uint64, v int64) {
		pe.fl = append(pe.fl, addr)
		pe.flv = append(pe.flv, v)
	})
	pe.extra.WCFlushes++
	// One run per stretch of consecutive addresses inside one block.
	pe.vruns = pe.vruns[:0]
	bw := uint64(k.space.BlockWords)
	for i := 0; i < len(pe.fl); {
		addr := pe.fl[i]
		blockEnd := addr - addr%bw + bw
		j := i + 1
		for j < len(pe.fl) && pe.fl[j] == pe.fl[j-1]+1 && pe.fl[j] < blockEnd {
			j++
		}
		pe.addRun(check.KindFlush, gmem.ModeRelease, pe.flv, addr, j-i, i)
		i = j
	}
	ok := true
	pe.groupRunsByHome()
	for gi := range pe.reqs {
		g := &pe.reqs[gi]
		err := pe.roundTrip(g, check.KindFlush, pe.flv)
		if err == nil {
			continue
		}
		ok = false
		var down *PeerDownError
		if !errors.As(err, &down) {
			// The home may still be alive: keep its words buffered and
			// retry this part of the flush at the next sync edge.
			for _, r := range pe.hruns[g.lo:g.hi] {
				for w := 0; w < r.count; w++ {
					pe.wc.Put(r.start+uint64(w), pe.flv[r.off+w])
				}
			}
		}
	}
	if ok {
		pe.hist.Close(h, 0, true)
	}
	pe.extra.FlushStall.Observe(pe.app.Now() - start)
}

// syncFence is the release/acquire edge of an operation with no sync event
// of its own (membership transitions, escrow points): publish the WC buffer
// — the KindFlush event doubles as the fence the checker orders by — and
// drop the lease cache.
func (pe *PE) syncFence() {
	pe.flushWC(pe.app.Now())
	pe.clearLeases()
}

// Barrier blocks until every PE has reached it (barrier id 0).
func (pe *PE) Barrier() { pe.BarrierID(0) }

// BarrierID blocks on the barrier with the given id; distinct ids are
// independent barriers.
func (pe *PE) BarrierID(id int32) {
	pe.legacyCrossing()
	k := pe.k
	pe.extra.Barriers++
	dst := 0
	if k.cfg.Barrier == BarrierTree {
		dst = k.id // tree arrivals start at the local kernel
	}
	start := pe.app.Now()
	// Release edge: publish buffered release-mode writes before arriving, so
	// every PE released by this barrier observes them.
	pe.flushWC(start)
	arrive := wire.GetMessage()
	arrive.Op, arrive.Src, arrive.Dst, arrive.Tag = wire.OpBarrierArrive, int32(k.id), int32(dst), id
	pe.app.Send(dst, arrive)
	wire.PutMessage(arrive)
	m := pe.takeSync()
	if m.Op != wire.OpBarrierRelease || m.Tag != id {
		panic(fmt.Sprintf("core: PE %d: expected barrier %d release, got %v", k.id, id, m))
	}
	wire.PutMessage(m)
	end := pe.app.Now()
	pe.extra.WaitTime += end - start
	pe.extra.BarrierWait.Observe(end - start)
	if pe.spans != nil {
		pe.spans.Record(trace.Span{
			Kind: trace.SpanBarrier, PE: int32(k.id), Seq: uint64(uint32(id)),
			Start: start, End: end,
		})
	}
	if pe.hist != nil {
		pe.hist.Add(check.Event{
			Kind: check.KindBarrier, Addr: uint64(uint32(id)), Inv: start, Resp: end,
		})
	}
	// Acquire edge: pre-barrier lease snapshots must not outlive the crossing.
	pe.clearLeases()
}

// Lock acquires the cluster-wide lock id (FIFO, managed by kernel 0).
func (pe *PE) Lock(id int32) {
	pe.legacyCrossing()
	pe.extra.Locks++
	start := pe.app.Now()
	pe.sendSync(wire.OpLockAcquire, id)
	m := pe.takeSync()
	if m.Op != wire.OpLockGrant || m.Tag != id {
		panic(fmt.Sprintf("core: PE %d: expected lock %d grant, got %v", pe.k.id, id, m))
	}
	wire.PutMessage(m)
	end := pe.app.Now()
	pe.extra.WaitTime += end - start
	pe.extra.LockWait.Observe(end - start)
	if pe.spans != nil {
		pe.spans.Record(trace.Span{
			Kind: trace.SpanLock, PE: int32(pe.k.id), Seq: uint64(uint32(id)),
			Start: start, End: end,
		})
	}
	if pe.hist != nil {
		pe.hist.Add(check.Event{
			Kind: check.KindLock, Addr: uint64(uint32(id)), Inv: start, Resp: end,
		})
	}
	// Acquire edge: drop lease snapshots taken before the grant.
	pe.clearLeases()
}

// Unlock releases lock id. This is release consistency's namesake release
// edge: buffered release-mode writes are published while the lock is still
// held, so the next holder observes them.
func (pe *PE) Unlock(id int32) {
	pe.legacyCrossing()
	t0 := pe.app.Now()
	pe.flushWC(t0)
	if pe.hist != nil {
		pe.hist.Add(check.Event{
			Kind: check.KindUnlock, Addr: uint64(uint32(id)), Inv: t0, Resp: pe.app.Now(),
		})
	}
	pe.sendSync(wire.OpLockRelease, id)
}

// SemWait downs semaphore id, blocking while its value is zero.
func (pe *PE) SemWait(id int32) {
	pe.legacyCrossing()
	start := pe.app.Now()
	pe.sendSync(wire.OpSemWait, id)
	m := pe.takeSync()
	if m.Op != wire.OpSemGrant || m.Tag != id {
		panic(fmt.Sprintf("core: PE %d: expected sem %d grant, got %v", pe.k.id, id, m))
	}
	wire.PutMessage(m)
	pe.extra.WaitTime += pe.app.Now() - start
	// Acquire edge, like a lock grant.
	pe.clearLeases()
}

// SemPost ups semaphore id. A release edge: the flush's own KindFlush event
// is the fence the checker orders the published writes by.
func (pe *PE) SemPost(id int32) {
	pe.legacyCrossing()
	pe.flushWC(pe.app.Now())
	pe.sendSync(wire.OpSemPost, id)
}

// sendSync sends a synchronisation request to the central manager at
// kernel 0 using a pooled message.
func (pe *PE) sendSync(op wire.Op, id int32) {
	m := wire.GetMessage()
	m.Op, m.Src, m.Tag = op, int32(pe.k.id), id
	pe.app.Send(0, m)
	wire.PutMessage(m)
}

func (pe *PE) takeSync() *wire.Message {
	d := pe.k.requestTimeout()
	if pe.k.cfg.Ckpt != nil {
		// Under checkpoint/restart the kernels wake blocked sync waits with
		// OpPeerDown (below), so liveness does not need the lost-message
		// timeout — which would misfire on legitimately long checkpoint
		// barrier waits. Recovery runs forbid frame loss for exactly this
		// reason (DESIGN.md §10): a lost fire-and-forget arrival is the one
		// wedge the wake cannot break.
		d = 0
	}
	m, ok, timedOut := takeWithin(pe.k.syncMb, d)
	if timedOut {
		panic(fmt.Sprintf("core: PE %d: synchronisation wait timed out after %v", pe.k.id, d))
	}
	if !ok {
		panic(fmt.Sprintf("core: PE %d: cluster shut down during synchronisation", pe.k.id))
	}
	if m.Op == wire.OpPeerDown {
		// A peer died while we were blocked (kernels feed this only under
		// Config.Ckpt). The wait can never be satisfied — under recovery any
		// peer death rolls the whole cluster back, so fail fast with a typed
		// error the recovery coordinator can classify through the panic.
		peer := int(m.Src)
		wire.PutMessage(m)
		panic(&PeerDownError{PE: pe.k.id, Peer: peer, Op: "sync-wait"})
	}
	return m
}

// --- Coordinated checkpoint/restart ---

// ckptBarrierBase is the reserved barrier-tag region the checkpoint protocol
// rendezvouses at. The three phase tags alternate between two disjoint sets
// by epoch parity, so a straggler's late arrival at the previous epoch's
// barrier can never be miscounted into the next epoch's round at the central
// manager. Application code must not use these ids.
const ckptBarrierBase int32 = -0x7ffe0000

// RegisterCheckpoint installs the application's state hooks: save serialises
// the PE's progress into the snapshot (called inside every Checkpoint, at
// the quiesce barrier), restore rebuilds it from a snapshot blob. When this
// run was itself started from a snapshot, restore is invoked immediately
// with the restored blob and RegisterCheckpoint reports true — the program
// resumes from its checkpointed progress instead of from scratch.
func (pe *PE) RegisterCheckpoint(save func() []byte, restore func([]byte)) (restored bool) {
	pe.saveFn = save
	if pe.restored && restore != nil {
		restore(pe.restoredApp)
	}
	return pe.restored
}

// ViewGeneration reports how many recoveries this cluster has gone through:
// 0 for a fresh run, N after the N-th restart from a snapshot.
func (pe *PE) ViewGeneration() uint64 { return pe.viewGen }

// CheckpointEpoch reports the last completed checkpoint epoch (0 = none).
func (pe *PE) CheckpointEpoch() uint64 { return pe.ckptEpoch }

// Checkpoint takes one coordinated cluster snapshot: a collective every PE
// must call (like Barrier). The protocol is a Chandy-Lamport marker round
// degenerated to its quiesced special case — a barrier quiesces all
// application traffic, so there are no in-flight application sends to
// record, and each kernel's marker response carries its entire slice of
// global memory plus the coherence directory:
//
//	barrier(quiesce) -> save app blob + OpCkptMark to own kernel ->
//	Store.WriteSlice -> barrier(durable) -> PE 0 commits the generation and
//	GCs old ones -> barrier(commit-visible)
//
// A nil Config.Ckpt makes Checkpoint a no-op, so programs need no gating.
// Store errors are returned on the PE that observed them; every PE still
// passes all three barriers (no wedge), and a generation with a failed
// slice is never committed. Cluster failures (peer death, shutdown) panic
// like the rest of the Parallel API.
func (pe *PE) Checkpoint() error {
	k := pe.k
	cc := k.cfg.Ckpt
	if cc == nil {
		return nil
	}
	start := pe.app.Now()
	epoch := pe.ckptEpoch + 1
	tag := func(phase int32) int32 { return ckptBarrierBase - int32(3*(epoch%2)) - phase }

	pe.BarrierID(tag(0)) // quiesce: no application request is in flight past here
	var blob []byte
	if pe.saveFn != nil {
		blob = pe.saveFn()
	}
	req := wire.GetMessage()
	req.Op, req.Tag = wire.OpCkptMark, int32(epoch)
	resp, err := pe.requestErr(k.id, req)
	wire.PutMessage(req)
	var data []byte
	if err == nil {
		data = ckpt.EncodeSlice(ckpt.Slice{
			Epoch:    epoch,
			MarkTime: sim.Time(resp.Arg1),
			App:      blob,
			Kernel:   resp.Data,
		})
		wire.PutMessage(resp)
		err = cc.Store.WriteSlice(epoch, k.id, data)
	}

	pe.BarrierID(tag(1)) // durable: every slice of the generation is staged
	if k.id == 0 && err == nil {
		// Commit refuses a generation with any missing slice, so a peer's
		// write failure cannot half-commit; its error surfaces on that PE.
		if cerr := cc.Store.Commit(epoch, k.n); cerr != nil {
			err = cerr
		} else if gerr := cc.Store.GC(cc.Keep); gerr != nil {
			err = gerr
		}
	}
	pe.BarrierID(tag(2)) // commit-visible: recovery may now target this epoch

	// Epochs advance on every PE regardless of local errors, keeping the
	// collective's tags aligned for the next round.
	pe.ckptEpoch = epoch
	if err != nil {
		return err
	}
	pe.extra.Checkpoints++
	pe.extra.SnapshotBytes += uint64(len(data))
	if pe.spans != nil {
		pe.spans.Record(trace.Span{
			Kind: trace.SpanCkpt, PE: int32(k.id), Seq: epoch,
			Start: start, End: pe.app.Now(),
		})
	}
	return nil
}

// --- Collectives (built on the message exchange mechanism) ---

// Internal user-message tags; application tags must be non-negative.
const (
	tagReduceUp   int32 = -2
	tagReduceDown int32 = -3
)

// AllReduceF combines one float64 contribution from every PE with op
// (which must be commutative and associative) and returns the combined
// value on all of them: a gather to PE 0 and a broadcast back, 2(N-1)
// messages. It also acts as a synchronisation point: every PE's preceding
// global-memory writes are completed (acknowledged) before any PE receives
// the result — under release consistency that contract is kept by flushing
// the write-combining buffer before the contribution is sent, and lease-mode
// read caches are dropped so post-reduce reads observe post-reduce state.
func (pe *PE) AllReduceF(x float64, op func(a, b float64) float64) float64 {
	pe.syncFence()
	n := pe.N()
	if n == 1 {
		return x
	}
	if pe.ID() != 0 {
		pe.SendMsg(0, tagReduceUp, f64Bytes(x))
		_, data := pe.RecvMsg(tagReduceDown)
		return f64FromBytes(data)
	}
	acc := x
	for i := 1; i < n; i++ {
		_, data := pe.RecvMsg(tagReduceUp)
		acc = op(acc, f64FromBytes(data))
	}
	out := f64Bytes(acc)
	for i := 1; i < n; i++ {
		pe.SendMsg(i, tagReduceDown, out)
	}
	return acc
}

func f64Bytes(x float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	return b[:]
}

func f64FromBytes(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// AllReduceSum sums one float64 contribution per PE.
func (pe *PE) AllReduceSum(x float64) float64 {
	return pe.AllReduceF(x, func(a, b float64) float64 { return a + b })
}

// AllReduceMax takes the maximum over one float64 contribution per PE.
func (pe *PE) AllReduceMax(x float64) float64 {
	return pe.AllReduceF(x, func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	})
}

// --- PE-to-PE messages ---

// SendMsg delivers payload to PE dst under tag. It does not wait for the
// receiver. Application tags must be non-negative; negative tags are
// reserved for the runtime's own collectives.
func (pe *PE) SendMsg(dst int, tag int32, payload []byte) {
	pe.legacyCrossing()
	m := wire.GetMessage()
	m.Op, m.Src, m.Dst, m.Tag = wire.OpUserMsg, int32(pe.k.id), int32(dst), tag
	m.Data = payload // caller's buffer; fully serialised before Send returns
	pe.app.Send(dst, m)
	wire.PutMessage(m)
}

// RecvMsg blocks until a message with tag arrives, returning its sender
// and payload.
func (pe *PE) RecvMsg(tag int32) (src int, payload []byte) {
	pe.legacyCrossing()
	mb := pe.k.userMb(tag)
	start := pe.app.Now()
	d := pe.k.requestTimeout()
	m, ok, timedOut := takeWithin(mb, d)
	if timedOut {
		panic(fmt.Sprintf("core: PE %d: RecvMsg(tag=%d) timed out after %v", pe.k.id, tag, d))
	}
	if !ok {
		panic(fmt.Sprintf("core: PE %d: cluster shut down in RecvMsg", pe.k.id))
	}
	pe.extra.WaitTime += pe.app.Now() - start
	return int(m.Src), m.Data
}

// --- Process management / SSI ---

// register announces this DSE process to the global process table.
func (pe *PE) register() {
	req := wire.GetMessage()
	req.Op, req.Data = wire.OpProcRegister, []byte(pe.Hostname())
	resp := pe.request(0, req)
	wire.PutMessage(req)
	pe.gpid = resp.Arg1
	wire.PutMessage(resp)
}

// exit records this DSE process's termination.
func (pe *PE) exit(code int64) {
	req := wire.GetMessage()
	req.Op, req.Arg1, req.Arg2 = wire.OpProcExit, pe.gpid, code
	resp := pe.request(0, req)
	wire.PutMessage(req)
	wire.PutMessage(resp)
}

// Processes returns the cluster-global process table: the single-system
// image of everything running on the virtual machine.
func (pe *PE) Processes() []procmgmt.Entry {
	req := wire.GetMessage()
	req.Op = wire.OpProcList
	resp := pe.request(0, req)
	wire.PutMessage(req)
	entries, err := procmgmt.DecodeSnapshot(resp.Data)
	wire.PutMessage(resp)
	if err != nil {
		panic(fmt.Sprintf("core: PE %d: corrupt process table: %v", pe.k.id, err))
	}
	return entries
}

// Ping round-trips a liveness probe to kernel dst and reports the latency.
// Panics on failure.
func (pe *PE) Ping(dst int) sim.Duration {
	d, err := pe.PingErr(dst)
	must(err)
	return d
}

// PingErr is Ping with failures surfaced as errors: a dead peer reports
// *PeerDownError (fast, via the transport's failure detector) or
// *TimeoutError, an unreachable but undetected one only the latter.
func (pe *PE) PingErr(dst int) (sim.Duration, error) {
	start := pe.app.Now()
	req := wire.GetMessage()
	req.Op = wire.OpPing
	resp, err := pe.requestErr(dst, req)
	wire.PutMessage(req)
	if err != nil {
		return 0, err
	}
	wire.PutMessage(resp)
	return pe.app.Now() - start, nil
}
