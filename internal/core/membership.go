package core

import (
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/gmem"
	"repro/internal/wire"
)

// Elastic membership: PEs join and leave a running cluster with no restart,
// and block ranges re-home while requests are in flight (DESIGN.md §13).
//
// The invariants the protocol leans on:
//
//   - The directory's probe rule gives a join exactly one prior holder (the
//     joiner's successor) and a leave exactly one handoff target, so both
//     are single pairwise handoffs.
//   - The home-side dedup check runs BEFORE the ownership check, so a retry
//     of an already-applied mutation is absorbed at the old home instead of
//     being NACKed to the new one — no dedup state ever needs to move.
//   - The old home updates its directory before fencing and extracting, so
//     from the first moment a block's data can disappear, every fresh
//     request is NACKed with the new home's address; the requester retries
//     with the same sequence number and the new home's window keeps the
//     operation exactly-once.
//   - Extracted blocks sit in escrow until the commit (or epoch update)
//     arrives; any request hitting an escrowed block re-offers the block to
//     its destination first, so a migration whose initiator died heals
//     through normal traffic.

// OpMigrateStart modes (wire Arg1).
const (
	migModeBlock int64 = iota // re-home one block to an explicit destination
	migModeJoin               // successor hands a joiner its probe-rule slice
	migModeLeave              // leaver extracts everything for its successor
)

// maxMigrateBounces bounds how many consecutive new-home redirects one
// request follows before giving up (a cycle of stale hints would otherwise
// never terminate).
const maxMigrateBounces = 64

// grantRetries bounds how long a PE waits for the cluster-wide membership
// transition slot before its Join/Leave fails.
const grantRetries = 64

// --- Kernel-side service (serial loop) ---

// homeOf is the directory-aware home lookup (the pure block-cyclic layout
// while the directory is static: gmem.Directory.HomeOfBlock).
func (k *Kernel) homeOf(addr uint64) int { return k.dir.HomeOf(k.space, addr) }

// escrowPut parks an extracted block until its commit (or epoch update).
func (k *Kernel) escrowPut(b gmem.BlockSnapshot, dst int) {
	k.escrowMu.Lock()
	k.escrow[b.Index] = escrowEntry{dst: dst, block: b}
	k.escrowMu.Unlock()
}

// escrowLookup returns the escrow entry for block b, if any. Safe from any
// context (GM handlers call it under their shard lock).
func (k *Kernel) escrowLookup(b uint64) (escrowEntry, bool) {
	k.escrowMu.Lock()
	e, ok := k.escrow[b]
	k.escrowMu.Unlock()
	return e, ok
}

// escrowSweep drops every escrowed block whose destination the directory now
// agrees owns it — the handoff is visible cluster-wide, the crash net is no
// longer needed.
func (k *Kernel) escrowSweep() {
	k.escrowMu.Lock()
	for b, e := range k.escrow {
		if k.dir.HomeOfBlock(b) == e.dst {
			delete(k.escrow, b)
		}
	}
	k.escrowMu.Unlock()
}

// dirTable snapshots the membership table and overrides: what a join/leave
// handoff payload carries (escrow stays local — escrowed blocks are already
// covered by override entries), and what a checkpoint mark adds its escrow
// to.
func (k *Kernel) dirTable() *ckpt.DirectorySnapshot {
	ds := &ckpt.DirectorySnapshot{Epoch: k.dir.Epoch()}
	for _, m := range k.dir.Members() {
		ds.Members = append(ds.Members, ckpt.MemberSnapshot{State: uint64(m.State), Gen: m.Gen})
	}
	for b, h := range k.dir.Overrides() {
		ds.Overrides = append(ds.Overrides, [2]uint64{b, uint64(h)})
	}
	sort.Slice(ds.Overrides, func(i, j int) bool { return ds.Overrides[i][0] < ds.Overrides[j][0] })
	return ds
}

// dirSnapshot captures the membership directory and escrow for a checkpoint
// mark. It returns nil — the V1 encoding — while the directory is static and
// no handoff is in flight, so static clusters produce byte-identical
// snapshots to earlier versions.
func (k *Kernel) dirSnapshot() *ckpt.DirectorySnapshot {
	k.escrowMu.Lock()
	var esc []ckpt.EscrowSnapshot
	for _, e := range k.escrow {
		esc = append(esc, ckpt.EscrowSnapshot{Dst: e.dst, Block: e.block})
	}
	k.escrowMu.Unlock()
	if k.dir.Static() && len(esc) == 0 {
		return nil
	}
	sort.Slice(esc, func(i, j int) bool { return esc[i].Block.Index < esc[j].Block.Index })
	ds := k.dirTable()
	ds.Escrow = esc
	return ds
}

// dropCorrupt counts a malformed membership request and releases the
// in-progress dedup entry its lookup registered. Dropping without the forget
// would make the silence permanent: the initiator's retry — which resends the
// payload precisely so a truncated one can be re-evaluated — would be
// absorbed as an in-progress duplicate (Kernel.absorb), and the Join/Leave/
// MigrateRange driving it would hang forever.
func (k *Kernel) dropCorrupt(m *wire.Message) {
	k.extra.CorruptDrops++
	k.dedup.forget(m.Src, m.Seq)
}

// memberID narrows a frame's int64 kernel id to an int, reporting false when
// it names no kernel of an n-kernel cluster. The check is made before the
// narrowing, so an id of 2³²+1 cannot wrap to kernel 1 on a 32-bit target.
func memberID(v int64, n int) (int, bool) {
	if v < 0 || v >= int64(n) {
		return 0, false
	}
	return int(v), true
}

// handleMigrateStart is the old-home half of a handoff. It runs inside every
// shard's monitor, so no GM handler is between its ownership check and its
// segment access while ownership changes, and the order within is the
// protocol's safety core: (1) the directory flips first, so ownership checks
// NACK every later request toward the new home; (2) only then are the blocks
// extracted, each stripe under its mutex, inside which a mutation in place
// checks ownership (gmem.Pin's Store, FetchAdd and CAS, and WriteRunAt): it
// landed before the snapshot or is refused. A write can therefore
// never land in a block after its snapshot was taken.
func (k *Kernel) handleMigrateStart(m *wire.Message) {
	k.lockShards()
	defer k.unlockShards()
	var flips func(b uint64) bool
	switch m.Arg1 {
	case migModeBlock:
		b := k.space.BlockOf(m.Addr)
		dst, ok := memberID(m.Arg2, k.n)
		if !ok {
			k.dropCorrupt(m)
			return
		}
		if !k.dir.Owns(k.id, b) {
			k.refuse(&k.dedup, m, wire.OpMigrateNack, int64(k.dir.HomeOfBlock(b)), 0)
			return
		}
		if dst == k.id {
			// The initiator's view was stale: a NACK redirect landed this
			// start at its own destination. Extracting here would park the
			// block in escrow-to-self while lazy faulting resurrects a
			// phantom zero block (and the sweep then drops the real data).
			// The block is already home — succeed with an empty payload.
			resp := wire.GetMessage()
			resp.Op = wire.OpMigrateStartResp
			resp.Data = ckpt.EncodeKernelState(k.cfg.GMBlockWords, nil)
			k.reply(&k.dedup, m, resp)
			return
		}
		k.dir.SetOverride(b, dst)
		flips = func(bb uint64) bool { return bb == b }
	case migModeJoin:
		j, ok := memberID(m.Arg2, k.n)
		if !ok {
			k.dropCorrupt(m)
			return
		}
		// Mark the joiner active in our view: every block whose probe now
		// stops at it flips away from us.
		k.dir.SetMember(j, gmem.MemberActive, m.Addr)
		flips = func(b uint64) bool { return !k.dir.Owns(k.id, b) }
	case migModeLeave:
		succ, ok := k.dir.Successor(k.id)
		if !ok {
			k.refuse(&k.dedup, m, wire.OpMigrateNack, int64(k.id), 0)
			return
		}
		// Redirect our explicitly-migrated blocks to the successor, then
		// step out of the probe rule; everything we held flips away.
		k.dir.RewriteOverrides(k.id, succ)
		k.dir.SetMember(k.id, gmem.MemberLeft, m.Addr)
		flips = func(b uint64) bool { return !k.dir.Owns(k.id, b) }
	default:
		k.dropCorrupt(m)
		return
	}
	blocks := k.seg.Extract(flips)
	for _, b := range blocks {
		k.escrowPut(b, k.dir.HomeOfBlock(b.Index))
	}
	k.extra.Migrations++
	k.extra.MigratedBlocks += uint64(len(blocks))
	resp := wire.GetMessage()
	resp.Op = wire.OpMigrateStartResp
	resp.Arg1 = int64(len(blocks))
	if m.Arg1 == migModeBlock {
		resp.Data = ckpt.EncodeKernelState(k.cfg.GMBlockWords, blocks)
	} else {
		// Join/leave handoffs also carry this kernel's directory view. The
		// installee is about to become the probe-rule home for the moving
		// slice, and blocks in that slice may have uncommitted explicit
		// overrides it has never heard of: without the table it would treat
		// such a block as its own, lazily materialise a zero block and
		// accept writes that the delayed commit later strands elsewhere.
		resp.Data = ckpt.EncodeKernelStateDir(k.cfg.GMBlockWords, blocks, k.dirTable())
	}
	k.reply(&k.dedup, m, resp)
}

// handleMigrateInstall is the new-home half: adopt the blocks, then flip the
// local directory. Adoption-before-flip means a write redirected here early
// keeps bouncing (NACKed by our own ownership check) until the data is in
// place — it can never land in a zero block that adoption then clobbers.
// Blocks this kernel already owns and holds are skipped: a late escrow
// re-offer must not overwrite writes applied since the first install.
func (k *Kernel) handleMigrateInstall(m *wire.Message) {
	leaver, ok := memberID(m.Arg2, k.n)
	if m.Arg1 < migModeBlock || m.Arg1 > migModeLeave || m.Arg1 == migModeLeave && !ok {
		k.dropCorrupt(m)
		return
	}
	_, blocks, dirSnap, err := ckpt.DecodeKernelStateDir(m.Data)
	if err != nil {
		k.dropCorrupt(m)
		return // no reply; the initiator's retry resends the payload
	}
	var payload []uint64
	if dirSnap != nil {
		// Capture the payload's block set before the fresh filter below
		// compacts the slice in place.
		payload = make([]uint64, len(blocks))
		for i, b := range blocks {
			payload[i] = b.Index
		}
	}
	fresh := blocks[:0]
	for _, b := range blocks {
		if k.dir.Owns(k.id, b.Index) && k.seg.Has(b.Index) {
			continue
		}
		if _, parked := k.escrowLookup(b.Index); parked {
			// This kernel is the old home of an in-flight outbound handoff
			// of this very block: it adopted the block once, served writes,
			// and has since extracted it toward the next destination. The
			// incoming payload (a late escrow re-offer from the previous
			// home, or a delayed initiator retransmit) predates that chain —
			// adopting it would resurrect a stale copy AND re-claim
			// ownership, which the commit broadcast's staleness guard then
			// refuses to correct: permanent split brain. Skipping still acks
			// the sender, letting it release its own obsolete escrow entry.
			continue
		}
		fresh = append(fresh, b)
	}
	k.fenceShards()
	if err := k.seg.Adopt(fresh); err != nil {
		k.dropCorrupt(m)
		return
	}
	if dirSnap != nil {
		k.inheritDir(dirSnap, payload)
	}
	switch m.Arg1 {
	case migModeBlock:
		for _, b := range fresh {
			k.dir.SetOverride(b.Index, k.id)
		}
		if len(blocks) == 0 {
			// Initiator install for a block never materialised at the old
			// home: there is no snapshot to adopt, but this kernel must
			// still claim the block (it logically holds zeros), or requests
			// ping-pong between the old home's redirect and our probe-rule
			// NACK until the commit lands. Escrow re-offers never take this
			// path — their payload always carries the parked block.
			k.dir.SetOverride(k.space.BlockOf(m.Addr), k.id)
		}
	case migModeJoin:
		k.dir.SetMember(k.id, gmem.MemberActive, m.Addr)
	case migModeLeave:
		k.dir.SetMember(leaver, gmem.MemberLeft, m.Addr)
	}
	resp := wire.GetMessage()
	resp.Op, resp.Arg1 = wire.OpMigrateInstallResp, int64(len(fresh))
	k.reply(&k.dedup, m, resp)
}

// inheritDir folds the old authority's directory view into ours before we
// start answering probe-rule traffic for the transferred slice. Payload
// blocks are pinned to this kernel (a leaver's explicitly-migrated blocks
// flip here by override, not by the probe rule). Other inherited overrides
// only fill gaps: an entry we already hold may be newer — we may have been a
// party to a later handoff of that block — and a merely-stale local hint
// heals through NACK redirects, while clobbering a newer one could resurrect
// a phantom ownership claim. The membership table merges last-writer-wins
// per member, so a joiner also learns of transitions that predate it.
func (k *Kernel) inheritDir(ds *ckpt.DirectorySnapshot, payload []uint64) {
	mine := k.dir.Overrides()
	carried := make(map[uint64]bool, len(payload))
	for _, b := range payload {
		carried[b] = true
	}
	for _, ov := range ds.Overrides {
		b, h := ov[0], ov[1]
		switch {
		case carried[b]:
			k.dir.SetOverride(b, k.id)
		case h < uint64(k.n):
			if _, known := mine[b]; !known {
				k.dir.SetOverride(b, int(h))
			}
		}
	}
	for i, ms := range ds.Members {
		if i < k.n {
			k.dir.SetMember(i, gmem.MemberState(ms.State), ms.Gen)
		}
	}
}

// handleMigrateCommit installs the lazy new-home hint for a migrated range
// and, at the old home, releases the escrowed blocks — the handoff is
// durable at the destination. Idempotent; not deduped.
func (k *Kernel) handleMigrateCommit(m *wire.Message) {
	b0 := k.space.BlockOf(m.Addr)
	dst, ok := memberID(m.Arg2, k.n)
	if m.Arg1 < 0 || m.Arg1 > 1<<20 || !ok {
		k.extra.CorruptDrops++
		return
	}
	n := int(m.Arg1)
	// Per-block staleness guards: a commit broadcast can interleave with an
	// independent join/leave/migration that re-homed part of the range after
	// this commit's install, and blindly installing the hint would overwrite
	// the newer truth. Two cases are provably stale and skipped:
	//
	//   - A self-claim (dst == us) for a block we neither hold nor already
	//     claim: accepting it would resurrect phantom ownership of a block
	//     whose data now lives elsewhere (e.g. our own leave handed it away
	//     between this commit's install and its arrival here).
	//   - A hint pointing elsewhere for a block we hold AND own: only the
	//     holder can hand a block off (the extract empties the segment
	//     first), so a commit contradicting a holding owner lost that race.
	//
	// Skipped blocks converge through NACK chains like any stale hint.
	for i := 0; i < n; i++ {
		b := b0 + uint64(i)
		if dst == k.id && !k.seg.Has(b) && k.dir.HomeOfBlock(b) != k.id {
			continue
		}
		if dst != k.id && k.dir.Owns(k.id, b) && k.seg.Has(b) {
			continue
		}
		k.dir.SetOverride(b, dst)
	}
	k.escrowSweep()
	resp := wire.GetMessage()
	resp.Op = wire.OpMigrateCommitResp
	k.reply(&k.dedup, m, resp)
}

// handleGrant is kernel 0's membership transition service: it serialises
// join/leave cluster-wide by handing out at most one open grant at a time.
// A busy response (Arg1 = 0) tells the PE to back off and retry; the same
// member re-requesting its open grant gets the same generation back (its
// first response was lost). The grant clears when the member's epoch update
// arrives or the member is found dead.
func (k *Kernel) handleGrant(m *wire.Message) {
	if k.id != 0 {
		k.dropCorrupt(m) // misrouted grant: same hang risk as a corrupt start
		return
	}
	if k.grantBusyMember >= 0 && k.peers[k.grantBusyMember].dead.Load() {
		k.grantBusyMember = -1 // grantee died holding the slot
	}
	respOp := wire.OpJoinResp
	if m.Op == wire.OpLeave {
		respOp = wire.OpLeaveResp
	}
	resp := wire.GetMessage()
	resp.Op = respOp
	switch src := int(m.Src); {
	case k.grantBusyMember == src:
		resp.Arg1 = int64(k.grantBusyGen)
	case k.grantBusyMember >= 0:
		resp.Arg1 = 0 // busy: another transition is in flight
	default:
		gen := k.dir.Epoch() + 1
		if gen <= k.grantBusyGen {
			gen = k.grantBusyGen + 1 // a died-out grant must not be reissued
		}
		k.grantBusyMember, k.grantBusyGen = src, gen
		resp.Arg1 = int64(gen)
	}
	k.reply(&k.dedup, m, resp)
}

// handleEpochUpdate applies one broadcast membership transition. Last-writer
// -wins per member, so replays and reorderings converge in any order.
func (k *Kernel) handleEpochUpdate(m *wire.Message) {
	member, ok := memberID(m.Arg1, k.n)
	if !ok || m.Arg2 < int64(gmem.MemberActive) || m.Arg2 > int64(gmem.MemberDead) {
		k.extra.CorruptDrops++
		return
	}
	k.dir.SetMember(member, gmem.MemberState(m.Arg2), m.Addr)
	k.escrowSweep()
	// Close the membership grant only when the update's generation covers
	// it: epoch updates are idempotent and retransmitted, so a delayed
	// duplicate of the member's PREVIOUS transition can arrive after the
	// same member acquired a fresh grant — clearing the slot on the stale
	// broadcast would let two transitions run concurrently.
	if k.id == 0 && member == k.grantBusyMember && m.Addr >= k.grantBusyGen {
		k.grantBusyMember = -1
	}
	resp := wire.GetMessage()
	resp.Op = wire.OpEpochUpdateResp
	k.reply(&k.dedup, m, resp)
}

// --- PE-side membership API ---

// Members returns the cluster membership table as this PE's kernel sees it.
func (pe *PE) Members() []gmem.Member { return pe.k.dir.Members() }

// HomeOf returns the kernel currently homing addr (directory-aware; equal to
// Space().HomeOf under a static membership).
func (pe *PE) HomeOf(addr uint64) int { return pe.k.homeOf(addr) }

// grant asks kernel 0 for the cluster-wide membership transition slot,
// backing off while another transition is in flight.
func (pe *PE) grant(op wire.Op) (uint64, error) {
	k := pe.k
	for attempt := 0; attempt < grantRetries; attempt++ {
		req := wire.GetMessage()
		req.Op = op
		gen, err := pe.ask(0, req)
		if err != nil {
			return 0, err
		}
		if gen != 0 {
			return uint64(gen), nil
		}
		pe.app.Sleep(k.cfg.pause)
	}
	return 0, fmt.Errorf("core: PE %d: membership grant still busy after %d attempts", k.id, grantRetries)
}

// install is the second exchange of a handoff: inst, carrying the blocks the
// migrate-start response start brought back, goes to their new home dst. The
// payload is not copied — inst.Data aliases start's buffer — so start is
// recycled only once the exchange is over: the engine retransmits inst as it
// is after a loss, and a buffer back in the pool by then belongs to whatever
// message took it since.
func (pe *PE) install(dst int, inst, start *wire.Message) error {
	inst.Data = start.Data
	resp, err := pe.requestErr(dst, inst)
	wire.PutMessage(inst)
	wire.PutMessage(start)
	wire.PutMessage(resp)
	return err
}

// Join brings a latent PE into the active membership: its kernel takes over
// the global-memory blocks the probe rule assigns it, handed off live by the
// prior holder. No-op when already active. The cluster keeps serving
// throughout — concurrent requests for the moving blocks follow NACK
// redirects and apply exactly once.
func (pe *PE) Join() error {
	k := pe.k
	if k.dir.Member(k.id).State == gmem.MemberActive {
		return nil
	}
	// Membership fence: nothing this PE buffered or leased may straddle a
	// re-homing (the flushed homes are about to change).
	pe.syncFence()
	gen, err := pe.grant(wire.OpJoin)
	if err != nil {
		return err
	}
	succ, ok := k.dir.Successor(k.id)
	if !ok {
		return fmt.Errorf("core: PE %d: no active member to join from", k.id)
	}
	req := wire.GetMessage()
	req.Op, req.Arg1, req.Arg2, req.Addr = wire.OpMigrateStart, migModeJoin, int64(k.id), gen
	resp, err := pe.requestErr(succ, req)
	wire.PutMessage(req)
	if err != nil {
		// Hand the slot back: the successor never flipped us active (or died
		// trying); broadcasting our unchanged state at the granted generation
		// clears kernel 0's busy flag.
		pe.broadcastEpoch(k.id, gmem.MemberLatent, gen)
		return err
	}
	inst := wire.GetMessage()
	inst.Op, inst.Arg1, inst.Arg2, inst.Addr = wire.OpMigrateInstall, migModeJoin, int64(k.id), gen
	if err := pe.install(k.id, inst, resp); err != nil {
		return err
	}
	pe.broadcastEpoch(k.id, gmem.MemberActive, gen)
	pe.extra.Joins++
	return nil
}

// Leave gracefully retires this PE's kernel from the membership: every block
// it homes is handed to its successor before it steps out of the probe rule.
// The kernel keeps serving (NACKing redirected requests, absorbing retries)
// until the run ends, and the application may keep issuing global-memory
// operations as a pure client. Kernel 0 cannot leave — it hosts the
// synchronisation managers and the grant service.
func (pe *PE) Leave() error {
	k := pe.k
	if k.id == 0 {
		return fmt.Errorf("core: PE 0 hosts the central managers and cannot leave")
	}
	if k.dir.Member(k.id).State != gmem.MemberActive {
		return nil
	}
	// Membership fence, as in Join: escrowed blocks must not carry unflushed
	// release-mode writes or stale lease snapshots across the handoff.
	pe.syncFence()
	gen, err := pe.grant(wire.OpLeave)
	if err != nil {
		return err
	}
	succ, ok := k.dir.Successor(k.id)
	if !ok {
		pe.broadcastEpoch(k.id, gmem.MemberActive, gen)
		return fmt.Errorf("core: PE %d: cannot leave as the last active member", k.id)
	}
	req := wire.GetMessage()
	req.Op, req.Arg1, req.Arg2, req.Addr = wire.OpMigrateStart, migModeLeave, int64(k.id), gen
	resp, err := pe.requestErr(k.id, req)
	wire.PutMessage(req)
	if err != nil {
		pe.broadcastEpoch(k.id, gmem.MemberActive, gen)
		return err
	}
	inst := wire.GetMessage()
	inst.Op, inst.Arg1, inst.Arg2, inst.Addr = wire.OpMigrateInstall, migModeLeave, int64(k.id), gen
	if err := pe.install(succ, inst, resp); err != nil {
		// The handoff is stuck at our escrow; broadcast the transition anyway
		// so the cluster converges and the escrow re-offer keeps the data
		// reachable.
		pe.broadcastEpoch(k.id, gmem.MemberLeft, gen)
		return err
	}
	pe.broadcastEpoch(k.id, gmem.MemberLeft, gen)
	pe.extra.Leaves++
	return nil
}

// MigrateRange re-homes nblocks consecutive blocks starting at addr's block
// to kernel dst, while the cluster keeps serving. Per block: a migrate-start
// at the current owner (directory-updated, fenced, extracted into escrow),
// an install at dst, and finally one commit broadcast installing the new-home
// hint everywhere and releasing the escrow — 2 messages per block plus N-1
// per range.
func (pe *PE) MigrateRange(addr uint64, nblocks, dst int) error {
	k := pe.k
	if dst < 0 || dst >= k.n {
		return fmt.Errorf("core: PE %d: migrate to invalid kernel %d", k.id, dst)
	}
	if k.dir.Member(dst).State != gmem.MemberActive {
		return fmt.Errorf("core: PE %d: migrate to non-active kernel %d", k.id, dst)
	}
	// Membership fence, as in Join/Leave.
	pe.syncFence()
	bw := uint64(k.space.BlockWords)
	b0 := k.space.BlockOf(addr)
	for i := 0; i < nblocks; i++ {
		b := b0 + uint64(i)
		owner := k.dir.HomeOfBlock(b)
		if owner == dst {
			continue
		}
		req := wire.GetMessage()
		req.Op, req.Arg1, req.Arg2, req.Addr = wire.OpMigrateStart, migModeBlock, int64(dst), b*bw
		resp, err := pe.requestErr(owner, req) // NACK redirects track a moving owner
		wire.PutMessage(req)
		if err != nil {
			return err
		}
		inst := wire.GetMessage()
		inst.Op, inst.Arg1, inst.Addr = wire.OpMigrateInstall, migModeBlock, b*bw
		if err := pe.install(dst, inst, resp); err != nil {
			return err
		}
	}
	for p := 0; p < k.n; p++ {
		req := wire.GetMessage()
		req.Op, req.Addr, req.Arg1, req.Arg2 = wire.OpMigrateCommit, b0*bw, int64(nblocks), int64(dst)
		pe.ask(p, req) // dead or slow peers converge via NACK hints
	}
	pe.extra.Migrations++
	return nil
}

// broadcastEpoch announces one member transition to every kernel (own kernel
// included — it clears kernel 0's grant and the old home's escrow). Errors
// are ignored: peers that miss the update converge lazily through NACK
// hints and later broadcasts.
func (pe *PE) broadcastEpoch(member int, state gmem.MemberState, gen uint64) {
	k := pe.k
	for p := 0; p < k.n; p++ {
		req := wire.GetMessage()
		req.Op, req.Arg1, req.Arg2, req.Addr = wire.OpEpochUpdate, int64(member), int64(state), gen
		pe.ask(p, req)
	}
}
