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

	// everyone is the whole cluster as an all-reduce sees it: rank r is kernel r.
	everyone reduceView

	// job, when not nil, is the scheduled job this PE runs (BeginJob, group.go):
	// the Parallel API answers for the job's gang, namespace and tag window.
	job *jobScope

	// one is the single request in flight of everything but a range transfer
	// (whose groups are in reqs): the request engine (request.go) matches what
	// the kernel's reply mailbox holds against it by Seq.
	one [1]flight

	// The requests of the hot paths are the PE's own, not pooled: wreq is the
	// word executor's, reqMsgs[i] the request of a range operation's i-th
	// flight (made on first use). Send keeps nothing of a message, so each is
	// emptied with Reset once its exchange has returned.
	wreq    wire.Message
	reqMsgs []*wire.Message

	// Consistency-tier state (DESIGN.md §14). modes maps allocations to
	// their tier; wc buffers release-mode writes between sync edges; leases
	// caches lease-mode blocks until their grants expire.
	modes  *gmem.ModeTable
	wc     *gmem.WCBuf
	leases map[uint64]*leaseEntry // keyed by block base address

	// ns, when Limit != 0, confines every global-memory operation to the job
	// namespace BeginJob bound this PE to, until EndJob (dsesched, DESIGN.md
	// §15).
	// Checked before a request leaves the PE, which is what covers the
	// accesses in place with the same guard as the message path; the home
	// kernel independently re-checks arriving messages against its own
	// registry (kernelShard.nsDeny), and the admission rule of the path in
	// place the same registry (PE.inPlace).
	ns gmem.Region

	// pins is the PE's resolution table (access.go): block index to home and
	// pinned block, for the scalar accesses in place. Nil until the first.
	pins *[pinSlots]gmem.Pin

	// Scratch reused across calls by the hot-path operations.
	vruns  []vrun     // remote runs of the range operation being assembled
	groups []runGroup // their tally per home
	reqs   []flight   // one in-flight request per non-empty group
	fl     []uint64   // drained WC addresses (ascending) of the current flush
	flv    []int64    // drained WC values, parallel to fl

	// timeMask samples the round trips the sender serves: one of an op kind
	// is timed when its event count & timeMask is 0 (PE.timing). 0 times
	// every one, which a PE does whenever spans or LiveRTT read them.
	timeMask uint64
}

func newPE(k *Kernel) *PE {
	pe := &PE{
		k:      k,
		app:    k.node.App(),
		alloc:  gmem.NewAllocator(k.space),
		spans:  k.cfg.Tracing.NewRing(),
		live:   k.cfg.LiveRTT,
		hist:   k.cfg.recorder.PE(k.id),
		modes:  gmem.NewModeTable(k.cfg.GMDefaultMode),
		wc:     gmem.NewWCBuf(),
		leases: make(map[uint64]*leaseEntry),
		groups: make([]runGroup, k.n),

		everyone: reduceView{members: make([]int, k.n), rank: k.id, up: tagReduceUp, down: tagReduceDown},
	}
	if pe.spans == nil && pe.live == nil {
		pe.timeMask = timingMask(k.cfg.Transport)
	}
	pe.hist.SetClock(pe.app)
	for i := range pe.everyone.members {
		pe.everyone.members[i] = i
	}
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

// ID returns this PE's kernel id in [0, N), or its job rank inside a job.
func (pe *PE) ID() int {
	if pe.job != nil {
		return pe.job.gang.rank
	}
	return pe.k.id
}

// N returns the number of PEs in the cluster, or the gang size inside a job.
func (pe *PE) N() int {
	if pe.job != nil {
		return len(pe.job.Members)
	}
	return pe.k.n
}

// Hostname names the physical machine hosting this PE. Under a virtual
// cluster several PEs share one.
func (pe *PE) Hostname() string { return pe.k.node.Hostname() }

// Now returns the PE's clock (virtual time under simulation).
func (pe *PE) Now() sim.Time { return pe.app.Now() }

// Compute charges the cost of ops application operations (roughly flops)
// against this PE.
func (pe *PE) Compute(ops float64) { pe.app.Compute(ops) }

// Alloc reserves n global-memory words. Allocation is deterministic: every
// PE of the SPMD program performs the same Alloc sequence and obtains the
// same addresses without communicating. Inside a job it draws on the job's
// namespace, under the job's mode, and exceeding the quota panics with
// *gmem.QuotaError.
func (pe *PE) Alloc(n int) uint64 { return pe.alloc.Alloc(n) }

// AllocBlocks reserves n words starting on a block boundary.
func (pe *PE) AllocBlocks(n int) uint64 { return pe.alloc.AllocBlocks(n) }

// AllocMode reserves n words under the given consistency mode (DESIGN.md
// §14). Deterministic like Alloc: every PE performs the same AllocMode
// sequence, so the per-PE mode tables agree without communicating.
func (pe *PE) AllocMode(n int, m gmem.Mode) uint64 {
	addr := pe.alloc.Alloc(n)
	pe.modes.Set(addr, n, m)
	return addr
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

// --- Synchronisation ---

// flushWC publishes the write-combining buffer: one coalesced OpFlushV per
// home, own-home words applied directly. fenceInv is
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
	if k.cfg.Fault == FaultSkipReleaseFlush {
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
	pe.resetRuns()
	bw := uint64(k.space.BlockWords)
	for i := 0; i < len(pe.fl); {
		addr := pe.fl[i]
		blockEnd := addr - addr%bw + bw
		j := i + 1
		for j < len(pe.fl) && pe.fl[j] == pe.fl[j-1]+1 && pe.fl[j] < blockEnd {
			j++
		}
		pe.addRun(check.KindFlush, pe.flv, addr, j-i, i)
		i = j
	}
	ok := true
	pe.buildReqs(check.KindFlush, pe.flv)
	for fi := range pe.reqs {
		err := pe.exchange(pe.reqs[fi:fi+1], 0)
		if err == nil {
			continue
		}
		ok = false
		var down *PeerDownError
		if errors.As(err, &down) {
			continue
		}
		// The home may still be alive: keep its words buffered and retry this
		// part of the flush at the next sync edge.
		for _, r := range pe.vruns {
			if pe.groups[r.home].flight != fi {
				continue
			}
			for w := 0; w < r.count; w++ {
				pe.wc.Put(r.start+uint64(w), pe.flv[r.off+w])
			}
		}
	}
	pe.recycleReqs()
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

// A syncVerb indexes syncVerbs, the table every synchronisation call is driven
// from (DESIGN.md "The synchronisation pipeline"): what the verb sends, what
// answers it, and the edges and records that go with it. A verb with a reply
// is a wait (syncWait) and an acquire edge, one without is a post (Unlock).
// Nothing is written down per call site, so no verb loses its span or its
// history event by omission.
type syncVerb uint8

const (
	verbBarrier syncVerb = iota
	verbLock
	verbUnlock
)

var syncVerbs = [...]struct {
	req, reply wire.Op
	tree       bool           // unsized, the request starts at the local kernel under tree barriers
	release    bool           // release edge: publish the WC buffer before sending
	span       trace.SpanKind // of a wait
	hist       check.Kind     // zero (KindRead, no verb's kind): the checker has no kind for it
}{
	verbBarrier: {req: wire.OpBarrierArrive, reply: wire.OpBarrierRelease, tree: true, release: true, span: trace.SpanBarrier, hist: check.KindBarrier},
	verbLock:    {req: wire.OpLockAcquire, reply: wire.OpLockGrant, span: trace.SpanLock, hist: check.KindLock},
	// Unlock is release consistency's namesake release edge: buffered writes
	// are published while the lock is still held, so the next holder observes
	// them.
	verbUnlock: {req: wire.OpLockRelease, release: true, hist: check.KindUnlock},
}

// waitStats returns the counter and the wait histogram of a waiting verb:
// fields of trace.PEStats that reports read by name, so not an array the table
// could index.
func (pe *PE) waitStats(v syncVerb) (*uint64, *trace.Histogram) {
	if v == verbBarrier {
		return &pe.extra.Barriers, &pe.extra.BarrierWait
	}
	return &pe.extra.Locks, &pe.extra.LockWait
}

// syncRequest opens verb v's call about id — the legacy crossing, the release
// edge, a post's history event — and returns the instant it began and its
// request, pooled, to kernel dst. size != 0 makes a barrier a sized one (a
// job's gang), served centrally: a subset of PEs cannot complete the tree.
func (pe *PE) syncRequest(v syncVerb, id int32, size int) (t0 sim.Time, m *wire.Message, dst int) {
	vb, k := &syncVerbs[v], pe.k
	pe.legacyCrossing()
	t0 = pe.app.Now()
	if vb.release {
		// Before the request, so that whoever it lets go observes the writes.
		pe.flushWC(t0)
	}
	if vb.reply == wire.OpInvalid {
		pe.recordSync(v, id, t0)
	}
	if vb.tree && size == 0 && k.cfg.Barrier == BarrierTree {
		dst = k.id // else 0: the central managers live at kernel 0
	}
	m = wire.GetMessage()
	m.Op, m.Src, m.Dst, m.Tag, m.Arg2 = vb.req, int32(k.id), int32(dst), id, int64(size)
	return t0, m, dst
}

// recordSync adds verb v's history event: begun at inv, complete now.
func (pe *PE) recordSync(v syncVerb, id int32, inv sim.Time) {
	if kind := syncVerbs[v].hist; pe.hist != nil && kind != 0 {
		pe.hist.Add(check.Event{Kind: kind, Addr: uint64(uint32(id)), Inv: inv, Resp: pe.app.Now()})
	}
}

// syncWait is the one wait of the synchronisation pipeline: verb v's request
// for id is one flight of the request engine (launch, land), so a grant that
// answers no wait is a stale reply. It keeps its own accounting in place of
// exchange's round-trip event and span — counter, wait histogram, WaitTime,
// span, history event — and returns the engine's typed error.
func (pe *PE) syncWait(v syncVerb, id int32, size int) error {
	if err := pe.job.aborted(); err != nil {
		return err
	}
	vb := &syncVerbs[v]
	count, wait := pe.waitStats(v)
	*count++
	start, m, dst := pe.syncRequest(v, id, size)
	pe.one[0] = flight{req: m, dst: dst}
	err := pe.launch(pe.one[:], false, 0)
	if err == nil {
		err = pe.land(pe.one[:], false)
	}
	wire.PutMessage(m)
	wire.PutMessage(pe.one[0].resp)
	if err != nil {
		return err
	}
	end := pe.app.Now()
	pe.extra.WaitTime += end - start
	wait.Observe(end - start)
	if pe.spans != nil {
		pe.spans.Record(trace.Span{Kind: vb.span, PE: int32(pe.k.id), Seq: uint64(uint32(id)), Start: start, End: end})
	}
	pe.recordSync(v, id, start)
	// Acquire edge: lease snapshots taken before the grant must not outlive it.
	pe.clearLeases()
	return nil
}

// Barrier blocks until every PE has reached it (barrier id 0).
func (pe *PE) Barrier() { pe.BarrierID(0) }

// BarrierID blocks on the barrier with the given id; distinct ids are
// independent barriers. Inside a job the barrier is the gang's, private to
// the job, like its locks.
func (pe *PE) BarrierID(id int32) {
	size := 0
	if pe.job != nil {
		size = len(pe.job.Members)
	}
	must(pe.syncWait(verbBarrier, pe.scoped(id), size))
}

// Lock acquires the cluster-wide lock id (FIFO, managed by kernel 0).
func (pe *PE) Lock(id int32) { must(pe.syncWait(verbLock, pe.scoped(id), 0)) }

// Unlock releases lock id: a post, sent one way.
func (pe *PE) Unlock(id int32) {
	_, m, dst := pe.syncRequest(verbUnlock, pe.scoped(id), 0)
	pe.app.Send(dst, m)
	wire.PutMessage(m)
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

// Checkpoint takes one coordinated cluster snapshot: a collective every PE
// must call (like Barrier). The protocol is a Chandy-Lamport marker round
// degenerated to its quiesced special case — a barrier quiesces all
// application traffic, so there are no in-flight application sends to
// record, and each kernel's marker response carries its entire slice of
// global memory plus its membership directory:
//
//	barrier(quiesce) -> save app blob + OpCkptMark to own kernel ->
//	Store.WriteSlice -> barrier(durable) -> PE 0 commits the generation
//	(the store drops old ones) -> barrier(commit-visible)
//
// A nil Config.Ckpt makes Checkpoint a no-op, so programs need no gating.
// Store errors are returned on the PE that observed them; every PE still
// passes all three barriers (no wedge), and a generation with a failed
// slice is never committed. Cluster failures (peer death, shutdown) panic
// like the rest of the Parallel API.
func (pe *PE) Checkpoint() error {
	k := pe.k
	st := k.cfg.Ckpt
	if st == nil {
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
		err = st.WriteSlice(epoch, k.id, data)
	}

	pe.BarrierID(tag(1)) // durable: every slice of the generation is written
	if k.id == 0 && err == nil {
		// Commit refuses a generation with any missing slice, so a peer's
		// write failure cannot half-commit; its error surfaces on that PE.
		err = st.Commit(epoch, k.n)
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

// reduceView says who takes part in an all-reduce and under which tags: the
// whole cluster or a job's gang.
type reduceView struct {
	members  []int // members[rank] = kernel id
	rank     int   // the caller's
	up, down int32
}

// allReduce combines one float64 contribution from every member of v with op
// (which must be commutative and associative) and returns the combined
// value on all of them: a gather to rank 0 and a broadcast back, 2(n-1)
// messages. It also acts as a synchronisation point: every member's preceding
// global-memory writes are completed (acknowledged) before any member receives
// the result — under release consistency that contract is kept by flushing
// the write-combining buffer before the contribution is sent, and lease-mode
// read caches are dropped so post-reduce reads observe post-reduce state.
func (pe *PE) allReduce(v reduceView, x float64, op func(a, b float64) float64) float64 {
	pe.syncFence()
	n := len(v.members)
	if n == 1 {
		return x
	}
	if v.rank != 0 {
		pe.sendMsg(v.members[0], v.up, f64Bytes(x))
		_, data := pe.recvMsg(v.down)
		return f64FromBytes(data)
	}
	acc := x
	for i := 1; i < n; i++ {
		_, data := pe.recvMsg(v.up)
		acc = op(acc, f64FromBytes(data))
	}
	out := f64Bytes(acc)
	for i := 1; i < n; i++ {
		pe.sendMsg(v.members[i], v.down, out)
	}
	return acc
}

// allReduceF combines one float64 contribution from every PE with op (see
// allReduce); PE 0 is the root. Inside a job the gang takes part, under the
// top two ids of the job's window, and job rank 0 is the root.
func (pe *PE) allReduceF(x float64, op func(a, b float64) float64) float64 {
	if pe.job != nil {
		return pe.allReduce(pe.job.gang, x, op)
	}
	return pe.allReduce(pe.everyone, x, op)
}

func f64Bytes(x float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	return b[:]
}

func f64FromBytes(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func sumF(a, b float64) float64 { return a + b }
func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// AllReduceSum sums one float64 contribution per PE.
func (pe *PE) AllReduceSum(x float64) float64 { return pe.allReduceF(x, sumF) }

// AllReduceMax takes the maximum over one float64 contribution per PE.
func (pe *PE) AllReduceMax(x float64) float64 { return pe.allReduceF(x, maxF) }

// --- PE-to-PE messages ---

// SendMsg delivers payload to PE dst under tag. It does not wait for the
// receiver. Application tags must be non-negative; negative tags are
// reserved for the runtime's own collectives. Inside a job dst is a job rank
// and the tag is private to the job.
func (pe *PE) SendMsg(dst int, tag int32, payload []byte) {
	if j := pe.job; j != nil {
		if dst < 0 || dst >= len(j.Members) {
			panic(fmt.Sprintf("core: job %q: SendMsg to rank %d of %d", j.Name, dst, len(j.Members)))
		}
		dst = j.Members[dst]
	}
	pe.sendMsg(dst, pe.scoped(tag), payload)
}

// sendMsg is SendMsg by kernel id and raw tag, whatever the scope.
func (pe *PE) sendMsg(dst int, tag int32, payload []byte) {
	pe.legacyCrossing()
	m := wire.GetMessage()
	m.Op, m.Src, m.Dst, m.Tag = wire.OpUserMsg, int32(pe.k.id), int32(dst), tag
	m.Data = payload // caller's buffer; fully serialised before Send returns
	pe.app.Send(dst, m)
	wire.PutMessage(m)
}

// recvUser is the one wait on a user-message queue: the next message under
// tag, waiting at most d (0 = forever). ok is false when the queue closed
// (cluster shutdown, or the tag's job was purged).
func (pe *PE) recvUser(tag int32, d sim.Duration) (m *wire.Message, ok, timedOut bool) {
	must(pe.job.aborted())
	pe.legacyCrossing()
	mb := pe.k.userMb(tag)
	start := pe.app.Now()
	if d > 0 {
		m, ok, timedOut = mb.TakeTimeout(d)
	} else {
		m, ok = mb.Take()
	}
	pe.extra.WaitTime += pe.app.Now() - start
	return m, ok, timedOut
}

// RecvMsg blocks until a message with tag arrives, returning its sender
// and payload. It fails by panicking with the request tier's typed errors —
// *TimeoutError after Config.RequestTimeout, *ShutdownError — so that runPE
// reports a collective which loses a message or outlives the cluster with
// its type, and callers classify it with errors.As like any GM call.
// Inside a job the tag is private to the job and the sender a job rank (-1
// for a sender outside the gang, which only misuse of the tags can produce).
func (pe *PE) RecvMsg(tag int32) (src int, payload []byte) {
	src, payload = pe.recvMsg(pe.scoped(tag))
	return pe.rankOf(src), payload
}

// recvMsg is RecvMsg by raw tag and kernel id, whatever the scope.
func (pe *PE) recvMsg(tag int32) (src int, payload []byte) {
	m, ok, timedOut := pe.recvUser(tag, pe.k.cfg.RequestTimeout)
	switch {
	case timedOut: // from anybody: the queue is this kernel's
		panic(&TimeoutError{PE: pe.k.id, Dst: pe.k.id, Op: "recv-msg", Attempts: 1})
	case !ok:
		panic(&ShutdownError{PE: pe.k.id, Op: "recv-msg"})
	}
	return int(m.Src), m.Data
}

// RecvMsgTimeout is RecvMsg with a bounded wait: ok is false when d expires
// or the cluster shuts down before a message with tag arrives. The
// scheduler's control loops poll with it, so an idle worker can interleave
// waiting for work with checking for shutdown.
func (pe *PE) RecvMsgTimeout(tag int32, d sim.Duration) (src int, payload []byte, ok bool) {
	// recvUser reads 0 as forever; here it is the shortest wait.
	m, ok, _ := pe.recvUser(pe.scoped(tag), max(d, 1))
	if !ok {
		return 0, nil, false
	}
	return pe.rankOf(int(m.Src)), m.Data, true
}

// --- Process management / SSI ---

// register announces this DSE process to the global process table.
func (pe *PE) register() (err error) {
	req := wire.GetMessage()
	req.Op, req.Data = wire.OpProcRegister, []byte(pe.Hostname())
	pe.gpid, err = pe.ask(0, req)
	return err
}

// exit records this DSE process's termination.
func (pe *PE) exit(code int64) error {
	req := wire.GetMessage()
	req.Op, req.Arg1, req.Arg2 = wire.OpProcExit, pe.gpid, code
	_, err := pe.ask(0, req)
	return err
}

// Processes returns the cluster-global process table: the single-system
// image of everything running on the virtual machine. The table comes from
// kernel 0, so one that does not decode is an error, like one that does not
// arrive.
func (pe *PE) Processes() ([]procmgmt.Entry, error) {
	req := wire.GetMessage()
	req.Op = wire.OpProcList
	resp, err := pe.requestErr(0, req)
	wire.PutMessage(req)
	if err != nil {
		return nil, err
	}
	entries, err := procmgmt.DecodeSnapshot(resp.Data)
	wire.PutMessage(resp)
	if err != nil {
		return nil, fmt.Errorf("core: PE %d: corrupt process table: %w", pe.k.id, err)
	}
	return entries, nil
}

// PingErr round-trips a liveness probe to kernel dst and reports the
// latency. A dead peer reports *PeerDownError (fast, via the transport's
// failure detector) or *TimeoutError, an unreachable but undetected one only
// the latter.
func (pe *PE) PingErr(dst int) (sim.Duration, error) {
	start := pe.app.Now()
	req := wire.GetMessage()
	req.Op = wire.OpPing
	if _, err := pe.ask(dst, req); err != nil {
		return 0, err
	}
	return pe.app.Now() - start, nil
}
