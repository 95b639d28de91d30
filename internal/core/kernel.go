// Package core implements the DSE parallel processing library and API
// library of the paper: the DSE kernel (parallel processing mechanism,
// parallel process management, global memory management, message exchange)
// linked into the same "UNIX process" as the DSE application process, with
// the kernel running as a service context that interleaves with the
// application — the paper's reorganised, dynamic-linking-free design.
//
// Memory consistency: every global-memory word has a single home and, in
// the default strong mode, all accesses are serialised there (coherent and
// sequentially consistent per location). The release and lease tiers trade
// that for fewer messages, each bounded at synchronisation edges (DESIGN.md
// §14).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ckpt"
	"repro/internal/gmem"
	"repro/internal/procmgmt"
	"repro/internal/psync"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/internal/wire"
)

// Kernel is one DSE kernel: the runtime side of a PE. Its serve loop runs
// in the node's Svc context and fields every message addressed to this
// kernel, while the application programs against the PE façade in the App
// context. The home-side global-memory service is split into monitors, each
// serving a share of the requesters (see kernelShard), and the
// synchronisation service is one more (syncMu); any context may enter them —
// on inproc the sending PE's own goroutine does, past the serve loop, and
// hands user messages to their queues there too. Everything else — process
// management, checkpoint marks, membership, jobs, the combining tree's
// kernel-to-kernel frames — stays on the serial serve loop.
type Kernel struct {
	id    int
	n     int
	node  transport.Node
	svc   transport.Port
	cfg   *Config
	space gmem.Space
	seg   *gmem.Segment

	// dir is this kernel's view of the elastic membership directory, shared
	// with its PE. Lookups are lock-free; a static directory (all members
	// active, no overrides) keeps every hot path on the pure block-cyclic
	// layout.
	dir *gmem.Directory

	// escrow holds blocks this kernel extracted for a migration whose commit
	// has not yet arrived: the snapshot plus its destination. Any GM request
	// hitting an escrowed block re-offers the block to its destination
	// (fire-and-forget install) before NACKing, so a migration whose
	// initiator died mid-flight heals through normal request traffic.
	// Guarded by escrowMu: written by the serial loop, read by GM handlers on
	// whichever context holds a shard lock.
	escrowMu sync.Mutex
	escrow   map[uint64]escrowEntry

	// Membership grant state (kernel 0, serial loop only): at most one
	// join/leave transition is in flight cluster-wide. grantBusyMember is the
	// member holding the open grant (-1 = none); the grant clears when that
	// member's OpEpochUpdate arrives or the member is found dead.
	grantBusyMember int
	grantBusyGen    uint64

	// ns holds this kernel's namespace bindings (dsesched per-job GM
	// isolation): requester PE → bound region. The serial loop installs and
	// removes bindings (OpJobOpen, OpJobClose); GM handlers and every access
	// in place, by this kernel's PE or a co-located one (PE.inPlace), look
	// them up lock-free.
	ns *gmem.NSRegistry

	// sync is this kernel's synchronisation state: the central barrier and
	// lock managers at kernel 0, a node of the combining tree when
	// cfg.Barrier == BarrierTree. Every call of it (Serve, Purge, Residue) is
	// made under syncMu, as are syncDrops and syncDups, the CorruptDrops and
	// DupRequests serveSync counts: on inproc each PE's goroutine serves its
	// own sync messages beside the serve loop (serveInline). syncMu is not
	// taken under simulation (lockSync).
	syncMu              sync.Mutex
	sync                *psync.Set
	syncDrops, syncDups uint64

	// serving is set while the serve loop runs (goServe), and only then does
	// the sender serve sync and user messages (serveInline): before, they
	// queue for the loop, as everything does on a node without a sink.
	serving atomic.Bool
	// selfSink is set where the node offers its messages to itself to
	// deliverSelf (inproc): a sync grant to the own PE then wakes it at once,
	// so serveSync sends it after every other.
	selfSink bool
	// procs is the global process table, present at kernel 0 only.
	procs *procmgmt.Table

	// seqCtr allocates this kernel's request ids: the PE's request engine
	// and the shards' escrow re-offers draw from it concurrently.
	seqCtr atomic.Uint64

	// replyMb receives every reply addressed to this node, barrier releases
	// and lock grants included, and the peer-down notices: the request engine
	// of the kernel's PE (request.go) is its one taker and matches what it
	// finds against its requests in flight. On inproc the PE itself puts the
	// replies in (serveOnSender), so the default depth must exceed what it can
	// have in flight, one request per home: withDefaults rejects a cluster
	// whose NumPE could come close.
	replyMb transport.Mailbox

	mu sync.Mutex // guards userq
	// userq holds the user-message queue of every tag in use; nil once the
	// serve loop has exited (releaseUserQueues), when nothing can arrive any
	// more and userMb hands out closed mailboxes. leftQueues is how many it
	// held then: the residue census reads it (Residue.UserQueues).
	userq      map[int32]transport.Mailbox
	leftQueues int

	// Home-side global-memory service: nshards independent monitors, each
	// serving the requesters shardFor maps to it — Config.KernelShards on
	// inproc, one on every other transport (servingModel). simulated is
	// cfg.Transport == TransportSim: the engine runs one cooperative context
	// at a time, so the shard lock is not taken.
	nshards   int
	simulated bool
	shards    []*kernelShard

	// peers[i] is kernel i as this kernel sees it (this kernel included). Its
	// dead flag is set once the transport has declared the peer dead: the
	// requester paths (request issue, accesses in place) check it lock-free
	// and fail fast; see peerDown for what it is ordered against. Its segment
	// is set where this kernel's PE may reach it in place (PE.inPlace): its
	// own kernel always, every other one where the serving model turned the
	// paths in place on (Config.DirectReads, newCluster). Fixed after
	// cluster construction but for the dead flags (rebound on every recovery
	// restart).
	peers []peer

	// dedup holds the per-requester exactly-once window for the mutating
	// process-management ops the serial loop services (OpProcRegister,
	// OpProcExit); global-memory mutations dedup inside their shard. Serve
	// goroutine only.
	dedup dedupTable

	// extra accumulates reliability counters and service-time histograms the
	// transport does not track (kernel side; the PE keeps its own in
	// pe.extra, shards in kernelShard.extra). Serve goroutine only
	// (histograms follow their own concurrency contract and may additionally
	// be read live).
	extra trace.PEStats

	// spans records one service span per handled message (nil unless
	// Config.Tracing). Serve goroutine only; requests served on the sender
	// record into their shard's ring.
	spans *trace.SpanRing
}

// peer is one kernel as another sees it: whether it is dead, and what a PE
// touches of it in place — its segment (nil where there is no path in place)
// and its namespace bindings. Held by value in one table, so an access in
// place finds all of it with one load less than through the *Kernel.
type peer struct {
	seg  *gmem.Segment
	ns   *gmem.NSRegistry
	dead atomic.Bool
}

// The dedup window: the home kernel remembers the last dedupWindow mutating
// requests per requester, so a retried request (same Seq) is absorbed instead
// of re-applied. A PE has at most one request in flight per home — a scalar
// operation's only request, or its share of a range transfer — so a window
// this size is far deeper than any retry can reach back. A requester's
// window lives in the one shard that serves it (shardFor).
const dedupWindow = 32

const (
	dedupEmpty      uint8 = iota
	dedupInProgress       // dispatched; response not yet produced
	dedupDone             // response sent; cached for resend
)

// dedupEntry records one mutating request and, once known, its response.
// data caches a payload-carrying response (OpMigrateStartResp: a retried
// migrate-start must resend the extracted blocks, which no longer exist in
// the segment); nil for the scalar responses of ordinary GM mutations.
type dedupEntry struct {
	seq    uint64
	respOp wire.Op
	arg1   int64
	arg2   int64
	data   []byte
	state  uint8
}

// escrowEntry is one block awaiting its migration commit at the old home.
type escrowEntry struct {
	dst   int
	block gmem.BlockSnapshot
}

// dedupRing is a fixed ring of the most recent mutating requests from one
// requester.
type dedupRing struct {
	entries [dedupWindow]dedupEntry
	next    int
}

// dedupTable is an exactly-once window keyed by requester. The kernel's
// serial loop and every shard own one each; a table has no lock of its own
// (the serve goroutine's is private, a shard's is guarded by the shard lock).
type dedupTable struct {
	rings map[int32]*dedupRing
}

func newDedupTable() dedupTable { return dedupTable{rings: make(map[int32]*dedupRing)} }

// lookup returns the entry recorded for (src, seq); a first-seen seq is
// recorded as in-progress and nil is returned.
func (d *dedupTable) lookup(src int32, seq uint64) *dedupEntry {
	r := d.rings[src]
	if r == nil {
		r = &dedupRing{}
		d.rings[src] = r
	}
	for i := range r.entries {
		e := &r.entries[i]
		if e.state != dedupEmpty && e.seq == seq {
			return e
		}
	}
	r.entries[r.next] = dedupEntry{seq: seq, state: dedupInProgress}
	r.next = (r.next + 1) % dedupWindow
	return nil
}

// complete caches the response of a mutating request so a later retry can be
// answered by resend. data is copied (the response message is recycled after
// Send); pass nil for responses without a payload.
func (d *dedupTable) complete(src int32, seq uint64, respOp wire.Op, arg1, arg2 int64, data []byte) {
	r := d.rings[src]
	if r == nil {
		return
	}
	for i := range r.entries {
		e := &r.entries[i]
		if e.state != dedupEmpty && e.seq == seq {
			e.respOp, e.arg1, e.arg2 = respOp, arg1, arg2
			e.data = nil
			if len(data) > 0 {
				e.data = append([]byte(nil), data...)
			}
			e.state = dedupDone
			return
		}
	}
}

// forget erases the entry recorded for (src, seq), returning the slot to
// the window. Used when a request is answered with a migrate NACK: the NACK
// is side-effect-free and is simply recomputed if the request is retried
// here, while a cached copy would keep answering the sequence number after
// the block lands at this kernel — a requester whose early redirect raced
// the install would have its legitimate retry masked forever.
func (d *dedupTable) forget(src int32, seq uint64) {
	r := d.rings[src]
	if r == nil {
		return
	}
	for i := range r.entries {
		e := &r.entries[i]
		if e.state != dedupEmpty && e.seq == seq {
			*e = dedupEntry{}
			return
		}
	}
}

func newKernel(id int, node transport.Node, cfg *Config) *Kernel {
	space := gmem.NewSpace(cfg.NumPE, cfg.GMBlockWords)
	k := &Kernel{
		id:      id,
		n:       cfg.NumPE,
		node:    node,
		svc:     node.Svc(),
		cfg:     cfg,
		space:   space,
		seg:     gmem.NewSegment(space, id),
		replyMb: node.NewMailbox(0),
		userq:   make(map[int32]transport.Mailbox),
		dedup:   newDedupTable(),
		spans:   cfg.Tracing.NewRing(),
		ns:      gmem.NewNSRegistry(cfg.NumPE),

		dir:             newDirectory(cfg, id),
		escrow:          make(map[uint64]escrowEntry),
		grantBusyMember: -1,
	}
	k.seg.SetDirectory(k.dir)
	k.peers = make([]peer, cfg.NumPE)
	k.peers[id].seg, k.peers[id].ns = k.seg, k.ns
	k.nshards = cfg.KernelShards
	k.simulated = cfg.Transport == TransportSim
	k.shards = make([]*kernelShard, k.nshards)
	for i := range k.shards {
		k.shards[i] = newKernelShard(k, i)
	}
	node.SetPeerDown(k.peerDown)
	if id == 0 {
		k.procs = procmgmt.NewTable()
	}
	k.sync = psync.NewSet(id, cfg.NumPE, cfg.Barrier == BarrierTree)
	if cfg.restore != nil {
		// Recovery: rebuild this kernel's slice of global memory from the
		// snapshot before serving. newDirectory restored the membership directory, so ownership checks
		// on Import (and every later request) see the snapshotted view;
		// escrowed blocks resume their pending handoff via the re-offer path.
		// loadSnapshot checked the slice against that view, so Import cannot
		// refuse it.
		if ds := cfg.restore.dirs[id]; ds != nil {
			for _, es := range ds.Escrow {
				k.escrow[es.Block.Index] = escrowEntry{dst: es.Dst, block: es.Block}
			}
		}
		if err := k.seg.Import(cfg.restore.blocks[id]); err != nil {
			panic(fmt.Sprintf("core: kernel %d: restoring snapshot: %v", id, err))
		}
	}
	if sn, ok := node.(transport.SinkNode); ok {
		// Real transports hand app-bound messages over on the context that
		// received them, past the serve loop; simnet has no sink and routes
		// the same messages through handle. On inproc that context is the
		// sending application itself, in this address space and about to do
		// nothing but wait for the reply, so it also serves its own GM
		// requests and sync messages and queues its user messages, and what
		// it sends its own kernel of these goes the same way (deliverSelf).
		// tcpnet's delivering context is a per-peer reader that must get back
		// to its socket: there the serve loop keeps serving.
		sink := transport.Sink(k.deliverApp)
		if cfg.Transport == TransportInproc {
			sink = func(m *wire.Message) bool { return k.deliverApp(m) || k.serveOnSender(m) || k.serveInline(m) }
			if ln, ok := node.(*inproc.Node); ok {
				ln.SetLocalSink(k.deliverSelf)
				k.selfSink = true
			}
		}
		sn.SetSink(sink)
	}
	return k
}

// peerDown is the transport's peer-failure callback (any goroutine). It
// stores the peer's dead flag FIRST, so new requests to it fail fast, and then
// puts one OpPeerDown notice into the reply mailbox, which the request engine
// turns into *PeerDownError iff a request in flight fails with that peer
// (deadFor), so a blocked requester wakes immediately instead of waiting out
// the timeout. The order closes the race without a lock: a request issued
// after the store sees the flag, one issued before it is still in flight when
// the notice — put after the store — is taken.
//
// It deliberately does NOT fence the GM shards: a handler's own reply Send
// can be what reports the peer down, made under the shard lock a fence would
// wait for. No fence is needed — shard state is keyed by requester/seq and a
// dead requester's entries are inert.
func (k *Kernel) peerDown(peer int) {
	if k.peers[peer].dead.Swap(true) {
		return
	}
	m := wire.GetMessage()
	m.Op, m.Src, m.Dst = wire.OpPeerDown, int32(peer), int32(k.id)
	k.replyMb.Put(m)
}

// deadFor returns the dead peer that fails a request of op to kernel dst
// before it is sent: dst, or any peer under the any-peer rule; -1 if none.
func (k *Kernel) deadFor(op wire.Op, dst int) int {
	if k.peers[dst].dead.Load() {
		return dst
	}
	if k.anyPeer(op) {
		for p := range k.peers {
			if k.peers[p].dead.Load() {
				return p
			}
		}
	}
	return -1
}

// anyPeer reports whether a request of op fails on the death of any peer, not
// only of the one it addresses: a sync wait under Config.Ckpt, where any death
// rolls the whole cluster back (DESIGN.md §10). It fails at send on the dead
// flags, since an earlier exchange may have taken the death's notice, and on
// a notice that arrives while it waits.
func (k *Kernel) anyPeer(op wire.Op) bool {
	return k.cfg.Ckpt != nil && (op == wire.OpBarrierArrive || op == wire.OpLockAcquire)
}

// isMutating reports whether op changes state at its destination, i.e.
// whether a blind retransmission could apply it twice. These are exactly the
// ops the dedup windows track.
func isMutating(op wire.Op) bool {
	switch op {
	case wire.OpWrite, wire.OpWriteV, wire.OpFlushV, wire.OpFetchAdd, wire.OpCAS,
		wire.OpProcRegister, wire.OpProcExit,
		wire.OpMigrateStart, wire.OpMigrateInstall, wire.OpJoin, wire.OpLeave:
		// Migrate-start extracts blocks (a retry must resend the cached
		// payload, not re-extract nothing); install adopts them; join/leave
		// allocate a membership generation (a retry must get the same one).
		// Commit and epoch updates are idempotent and stay un-deduped.
		return true
	}
	return false
}

// absorb consults the dedup window d before the mutating request m is
// dispatched, counting a duplicate in st, and reports whether m is one. A
// duplicate whose response is cached is answered by resend; one still in
// progress is dropped, as the eventual response will serve it. The serial
// loop's window and every shard's go through here, each under its owner's
// guard.
func (k *Kernel) absorb(d *dedupTable, st *trace.PEStats, m *wire.Message) bool {
	e := d.lookup(m.Src, m.Seq)
	if e == nil {
		return false
	}
	st.DupRequests++
	if e.state == dedupDone {
		resp := wire.GetMessage()
		resp.Op, resp.Arg1, resp.Arg2 = e.respOp, e.arg1, e.arg2
		if len(e.data) > 0 {
			resp.Data = append(resp.Data[:0], e.data...)
		}
		k.reply(d, m, resp)
	}
	return true
}

// userMb returns (creating on demand) the queue for user messages with tag.
// After the serve loop has exited the queue it creates is born closed: a
// RecvMsg on a tag first used then fails like one that was already waiting,
// instead of parking on a queue nothing will ever fill or close.
func (k *Kernel) userMb(tag int32) transport.Mailbox {
	k.mu.Lock()
	defer k.mu.Unlock()
	mb, ok := k.userq[tag]
	if !ok {
		mb = k.node.NewMailbox(0)
		if k.userq == nil {
			mb.Close()
		} else {
			k.userq[tag] = mb
		}
	}
	return mb
}

// releaseUserQueues closes and forgets every user-message mailbox. Called
// once when the serve loop exits (PE shutdown): tags registered by userMb
// used to accumulate for the kernel's lifetime — a leak for programs cycling
// through many tags — and a closed mailbox wakes any straggling RecvMsg,
// which still drains what its queue held.
func (k *Kernel) releaseUserQueues() {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, mb := range k.userq {
		mb.Close()
	}
	k.leftQueues = len(k.userq)
	k.userq = nil
}

// goServe runs the serve loop on a goroutine of its own, calling done when it
// exits. The kernel is marked serving first, so that no PE started after this
// call finds it not yet serving: a real run starts every serve loop before any
// PE.
func (k *Kernel) goServe(done func()) {
	k.serving.Store(true)
	go func() {
		defer done()
		k.serve()
	}()
}

// serve is the DSE kernel main loop (the "parallel processing mechanism"):
// it receives every message addressed to this kernel and dispatches it,
// until the node shuts down. Around every dispatch it observes the per-op
// service time (receive timestamp → handling done) and, when tracing is
// enabled, records a service span. What the sender serves or hands over
// (serveOnSender, serveInline) never comes through here: a GM request is
// accounted in its shard, a sync or user message records no service.
func (k *Kernel) serve() {
	defer k.releaseUserQueues()
	defer k.serving.Store(false)
	for {
		m, ok := k.node.Recv()
		if !ok {
			return
		}
		// Copy the header before handle: for unconsumed messages ownership
		// moves to another context (a mailbox) the moment handle returns.
		op, src, seq, rcv := m.Op, m.Src, m.Seq, m.RecvAt
		// A GM service ends as its reply leaves (kernelShard.reply), any
		// other as handle returns.
		consumed, end := k.handle(m)
		if end == 0 {
			end = k.svc.Now()
		}
		if int(op) < wire.NumOps {
			k.extra.ServiceByOp.Of(op).Observe(end - rcv)
		}
		if k.spans != nil {
			k.spans.Record(trace.Span{
				Kind: trace.SpanService, Op: op,
				PE: int32(k.id), Peer: src, Seq: seq,
				Start: rcv, End: end,
			})
		}
		if consumed {
			wire.PutMessage(m)
		}
	}
}

// isReply reports whether op answers a request of this kernel's PE.
func isReply(op wire.Op) bool {
	switch op {
	case wire.OpReadResp, wire.OpWriteAck, wire.OpFetchAddResp, wire.OpCASResp,
		wire.OpReadVResp, wire.OpCkptMarkResp,
		wire.OpProcRegResp, wire.OpProcExitAck, wire.OpProcListResp,
		wire.OpPong,
		wire.OpMigrateStartResp, wire.OpMigrateInstallResp, wire.OpMigrateCommitResp,
		wire.OpMigrateNack, wire.OpJoinResp, wire.OpLeaveResp, wire.OpEpochUpdateResp,
		wire.OpReadLeaseResp,
		wire.OpJobOpenAck, wire.OpJobCloseAck, wire.OpNsNack,
		wire.OpLockGrant, wire.OpBarrierRelease:
		return true
	}
	return false
}

// treeRelease reports whether the barrier release m travels the combining
// tree: an unsized one under tree barriers (a job's are sized, hence central).
func (k *Kernel) treeRelease(m *wire.Message) bool {
	return m.Op == wire.OpBarrierRelease && m.Arg2 == 0 && k.cfg.Barrier == BarrierTree
}

// deliverSelf is the inproc node's local sink, offered what this kernel sends
// its own node. It takes a sync grant, which only serveSync sends and sends
// last (DESIGN.md §17), into the reply mailbox, and serves a sync request or
// user message of the own PE (serveInline). Everything else — what a serve
// loop handler answers its own PE, the PE's GM requests to its own kernel — is
// declined and queues for the serve loop, routed only after the handler that
// sent it has returned.
func (k *Kernel) deliverSelf(m *wire.Message) bool {
	if m.Op == wire.OpLockGrant || m.Op == wire.OpBarrierRelease {
		return k.deliverApp(m)
	}
	return k.serveInline(m)
}

// serveInline is the inproc sink's last step: a PE's sync message is served
// right here, on the sending goroutine, under the sync lock, and a user
// message is put into its tag's queue — all that the serve loop would do with
// either — so no barrier, lock or all-reduce waits for a serve loop to wake.
// Every message still crossed Send, counted and through the codec. Declined,
// and left to the serve loop: everything while the loop is not running
// (serving), and the combining tree's kernel-to-kernel frames, whose handling
// sends further frames from the serve loop (treeArrival; a tree release is
// no sync request).
func (k *Kernel) serveInline(m *wire.Message) bool {
	if !k.serving.Load() {
		return false
	}
	switch m.Op {
	case wire.OpUserMsg:
		k.userMb(m.Tag).Put(m)
		return true
	case wire.OpBarrierArrive, wire.OpLockAcquire, wire.OpLockRelease:
		if k.treeArrival(m) {
			return false
		}
		k.serveSync(m)
		wire.PutMessage(m)
		return true
	}
	return false
}

// treeArrival reports whether m is an arrival one kernel of the combining tree
// sends another: unsized, under tree barriers, from a kernel other than this
// one (a PE's tree arrival goes to its own kernel).
func (k *Kernel) treeArrival(m *wire.Message) bool {
	return m.Op == wire.OpBarrierArrive && m.Arg2 == 0 && k.cfg.Barrier == BarrierTree && m.Src != int32(k.id)
}

// deliverApp is the one router for app-bound messages: a reply — a lock grant
// and a central barrier release among them — goes to the reply mailbox, by op
// alone, with no table to consult. It reports whether it took m; everything
// else — a request, a tree-barrier release (which forwards down the tree from
// the serve loop) — is declined and left to handle. Whether anybody still
// awaits a reply is the request engine's business: it drops what matches none
// of its requests in flight (PE.await, StaleReplies).
//
// It has three callers. Real transports call it as (the first half of) the
// node's sink, on the context that received m (any goroutine, concurrently),
// so the blocked application is woken without a visit to this kernel's serve
// loop — possibly while that context holds a shard lock or the sync lock of
// the replying kernel, which is why nothing here may take one; inproc's local
// sink (deliverSelf) calls it for a sync grant to the own PE; handle
// calls it first for every message Recv returns, which is how simnet and
// messages that arrived before the sink was installed are routed. It
// therefore touches only state safe from any goroutine: the reply mailbox.
func (k *Kernel) deliverApp(m *wire.Message) bool {
	if !isReply(m.Op) || k.treeRelease(m) {
		return false
	}
	k.replyMb.Put(m)
	return true
}

// handle dispatches one incoming message. It reports whether the message
// was consumed here (true → serve recycles it); false means ownership moved
// to another context: the reply mailbox or a user queue.
// answered is when a GM request's reply left (dispatchGM), 0 for any other
// message.
func (k *Kernel) handle(m *wire.Message) (consumed bool, answered sim.Time) {
	if k.deliverApp(m) {
		return false, 0
	}
	switch m.Op {
	// Global memory service (this kernel is the home): serve under the lock
	// of the requester's shard. GM mutations dedup inside the shard.
	case wire.OpRead, wire.OpReadV, wire.OpWrite, wire.OpWriteV,
		wire.OpFetchAdd, wire.OpCAS, wire.OpFlushV, wire.OpReadLease:
		return true, k.dispatchGM(m)

	// Synchronisation service. The one release that gets here is a tree
	// barrier's (deliverApp took the others).
	case wire.OpBarrierArrive, wire.OpBarrierRelease,
		wire.OpLockAcquire, wire.OpLockRelease:
		k.serveSync(m)

	// Parallel process management (kernel 0 hosts the global table).
	case wire.OpProcRegister:
		if k.absorb(&k.dedup, &k.extra, m) {
			return true, 0
		}
		gpid := k.procs.Register(m.Src, string(m.Data), k.svc.Now())
		resp := wire.GetMessage()
		resp.Op, resp.Arg1 = wire.OpProcRegResp, gpid
		k.reply(&k.dedup, m, resp)
	case wire.OpProcExit:
		if k.absorb(&k.dedup, &k.extra, m) {
			return true, 0
		}
		if err := k.procs.Exit(m.Arg1, m.Arg2, k.svc.Now()); err != nil {
			// Unknown or already-exited gpid: a duplicate that outlived the
			// dedup window. Exit is idempotent, so count it and ack anyway.
			k.extra.StrayDrops++
		}
		resp := wire.GetMessage()
		resp.Op = wire.OpProcExitAck
		k.reply(&k.dedup, m, resp)
	case wire.OpProcList:
		resp := wire.GetMessage()
		resp.Op = wire.OpProcListResp
		resp.Data = procmgmt.EncodeSnapshot(k.procs.Snapshot())
		k.reply(&k.dedup, m, resp)

	// Application-level messages: the payload escapes to the application
	// via RecvMsg, so the message is never recycled.
	case wire.OpUserMsg:
		k.userMb(m.Tag).Put(m)
		return false, 0

	// Coordinated checkpoint: export this kernel's slice of global memory
	// plus its membership directory. The requesting PE is this kernel's own
	// application context, quiesced at a barrier, so the slice is a
	// consistent cut — no request of this PE is in flight while we
	// serialise. The shard fence extends that cut across the shards: a
	// service another context still has in flight completes before the
	// export.
	case wire.OpCkptMark:
		k.fenceShards()
		resp := wire.GetMessage()
		resp.Op = wire.OpCkptMarkResp
		resp.Data = ckpt.EncodeKernelStateDir(k.cfg.GMBlockWords, k.seg.Export(), k.dirSnapshot())
		resp.Arg1 = int64(k.svc.Now())
		k.reply(&k.dedup, m, resp)

	// Elastic membership: home migration, join/leave grants, epoch updates.
	// All serviced on the serial loop (they fence the shards themselves).
	case wire.OpMigrateStart, wire.OpMigrateInstall, wire.OpJoin, wire.OpLeave:
		if k.absorb(&k.dedup, &k.extra, m) {
			return true, 0
		}
		switch m.Op {
		case wire.OpMigrateStart:
			k.handleMigrateStart(m)
		case wire.OpMigrateInstall:
			k.handleMigrateInstall(m)
		default:
			k.handleGrant(m)
		}
	case wire.OpMigrateCommit:
		k.handleMigrateCommit(m)
	case wire.OpEpochUpdate:
		k.handleEpochUpdate(m)

	// Scheduler jobs (dsesched): open binds the members, close unbinds them,
	// drops the region's blocks and purges the tag window. Both idempotent,
	// so no dedup window is needed; both serial-loop (close fences the
	// shards).
	case wire.OpJobOpen, wire.OpJobClose:
		k.handleJob(m)

	// Liveness.
	case wire.OpPing:
		resp := wire.GetMessage()
		resp.Op = wire.OpPong
		k.reply(&k.dedup, m, resp)

	default:
		// Unknown op: malformed or hostile traffic must not take the kernel
		// down. Count and drop.
		k.extra.CorruptDrops++
	}
	return true, 0
}

// serveSync is the synchronisation service's one entry point: every barrier
// and lock message goes through this kernel's psync.Set, under the sync lock,
// and what the set answers is sent. A sync message is input from another
// node: one whose source names no PE, or that the set refuses (Set.Serve), is
// counted in CorruptDrops and dropped, not allowed to take the kernel down, to
// release a barrier somebody has not reached or to hand out a grant nobody is
// waiting for; a retried wait is counted in DupRequests.
//
// Where the node hands its messages to itself to deliverSelf (selfSink), the
// grant to this kernel's own PE wakes that PE the moment it is sent, so it is
// sent after every other: a PE let through a shutdown barrier may close its
// node, and no other grant may wait behind that. Elsewhere the grants leave in
// the set's order, which every simulated time was measured in. The unlock is
// deferred so that a panic on the sending PE's goroutine, which its runPE
// recovers, does not leave every later sync message waiting for the lock.
func (k *Kernel) serveSync(m *wire.Message) {
	k.lockSync()
	defer k.unlockSync()
	var wake []psync.Grant
	dup, ok := false, m.Src >= 0 && int(m.Src) < k.n
	if ok {
		wake, dup, ok = k.sync.Serve(int(m.Src), m.Op, m.Tag, m.Arg2, m.Seq)
	}
	switch {
	case !ok:
		k.syncDrops++
	case dup:
		k.syncDups++
	}
	own := -1 // a set answers a PE once per message: at most one grant is the own PE's
	for i, g := range wake {
		if g.Dst == k.id && k.selfSink {
			own = i
			continue
		}
		k.grant(g)
	}
	if own >= 0 {
		k.grant(wake[own])
	}
}

// grant sends what the set asked for in g. The tree's release of this
// kernel's own PE goes straight into the reply mailbox: sent to itself, it
// would come back to serveSync and go down the tree again.
func (k *Kernel) grant(g psync.Grant) {
	out := wire.GetMessage()
	out.Op, out.Src, out.Dst, out.Seq = g.Op, int32(k.id), int32(g.Dst), g.Seq
	out.Tag, out.Arg2 = g.ID, g.Size
	if g.Dst == k.id && k.treeRelease(out) {
		k.replyMb.Put(out)
		return
	}
	k.svc.Send(g.Dst, out)
	wire.PutMessage(out)
}

// lockSync enters the synchronisation service's monitor. Under simulation it
// does nothing, as kernelShard.lock: one cooperative process runs at a time,
// and a grant's Send switches to others.
func (k *Kernel) lockSync() {
	if !k.simulated {
		k.syncMu.Lock()
	}
}

func (k *Kernel) unlockSync() {
	if !k.simulated {
		k.syncMu.Unlock()
	}
}

// reply answers request m with the pooled message resp (respond) and
// recycles resp: the transport keeps nothing of it once Send has returned.
func (k *Kernel) reply(d *dedupTable, m *wire.Message, resp *wire.Message) {
	k.respond(d, m, resp)
	wire.PutMessage(resp)
}

// respond answers request m, echoing its Seq, and caches the answer of a
// mutating request in d, the dedup window m went through: the serial loop's
// or its shard's. The window copies what it keeps, so resp stays the
// caller's, to recycle or to reuse (kernelShard.reply).
func (k *Kernel) respond(d *dedupTable, m *wire.Message, resp *wire.Message) {
	if isMutating(m.Op) {
		d.complete(m.Src, m.Seq, resp.Op, resp.Arg1, resp.Arg2, resp.Data)
	}
	k.send(m.Src, m.Seq, resp)
}

// refuse answers request m with the refusal op(arg1, arg2) — a migrate NACK,
// a namespace NACK — and lets go of the in-progress entry d's lookup
// registered for a mutating m. A refusal is deliberately NOT cached: it
// applies nothing and is recomputed on a retry, while a cached one would keep
// masking the sequence number after ownership or a binding changes again.
func (k *Kernel) refuse(d *dedupTable, m *wire.Message, op wire.Op, arg1, arg2 int64) {
	if isMutating(m.Op) {
		d.forget(m.Src, m.Seq)
	}
	resp := wire.GetMessage()
	resp.Op, resp.Arg1, resp.Arg2 = op, arg1, arg2
	k.send(m.Src, m.Seq, resp)
	wire.PutMessage(resp)
}

// send addresses resp to request seq of kernel dst and sends it; resp stays
// the caller's.
func (k *Kernel) send(dst int32, seq uint64, resp *wire.Message) {
	resp.Src, resp.Dst, resp.Seq = int32(k.id), dst, seq
	k.svc.Send(int(dst), resp)
}

// Stats returns the node's transport-level counters.
func (k *Kernel) Stats() *trace.PEStats { return k.node.Stats() }
