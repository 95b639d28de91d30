package core

import (
	"runtime"

	"repro/internal/check"
	"repro/internal/gmem"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The GM access pipeline (DESIGN.md §16). Every global-memory operation of
// the Parallel API runs the same ladder, in the same order:
//
//	guard → legacy charge → mode → tier → home → path → record
//
// through one of two executors: wordOp (word.go) for scalar read, write,
// fetch-add and CAS, rangeOp (ranges.go) for block, gather, scatter and the
// write-combining flush. This file holds the pieces both executors call, each
// written once: route resolution, the consistency tiers (write-combining
// buffer, leases, write-invalidate cache) and the one-sided paths (window,
// ring). The word's mode, looked up at the mode step, is the only selector of
// its tier. A rule that must hold for every access has one place to go.
//
// Record: with Config.RecordHistory every access is recorded the same way
// through pe.hist (nil, and every call a no-op, with recording off): one
// event per word, opened at invocation and left Failed — "may have applied" —
// until the word's result closes it, so an operation that dies mid-request
// (timeout, panic, peer down) is retained open rather than lost.

// resolve routes the word or single-home run located at l, whose mode is
// mode: its home under the live directory, computed once per word/run, and
// whether this PE serves it from its own segment — a read whenever its kernel
// homes the word, a mutation unless the word is cached: only the home's
// request service may change a word other PEs hold copies of, so that one
// travels as a message even to the PE's own kernel (via the own-node message
// path).
func (pe *PE) resolve(l gmem.Loc, mode gmem.Mode, mutates bool) (home int, local bool) {
	home = pe.k.dir.HomeAt(l)
	return home, home == pe.k.id && !(mutates && mode == gmem.ModeCached)
}

// chargeLocal accounts one access served without leaving the PE.
func (pe *PE) chargeLocal() {
	pe.app.LocalAccess()
	pe.extra.LocalGM++
}

// --- Tier: write-invalidate cache (ModeCached, DESIGN.md §14) ---

// cacheFill installs the whole block a cached-mode read reply carries (the
// fetch registered this PE in the home's copyset) and returns addr's word.
func (pe *PE) cacheFill(addr uint64, resp *wire.Message) int64 {
	pe.words = resp.WordsInto(pe.words)
	pe.k.cache.Insert(addr, pe.words)
	return pe.words[addr%uint64(pe.k.space.BlockWords)]
}

// cacheDrop discards this PE's copy of addr's block when the home serves one
// of its mutations as a message: the home takes the writer out of the copyset
// without invalidating it, so a copy kept warm could never be invalidated
// again — whatever the written word's mode, as a cached one may share its block.
func (pe *PE) cacheDrop(addr uint64) { pe.k.cache.Invalidate(addr) }

// CacheStats reports cache hits, misses and invalidations (zeros for a
// program with no cached-mode reads).
func (pe *PE) CacheStats() (hits, misses, invalidations uint64) {
	return pe.k.cache.Stats()
}

// --- Tier: release consistency (ModeRelease, DESIGN.md §14) ---

// bufferWords absorbs release-mode stores into the write-combining buffer:
// purely local, same-word stores coalesce last-writer-wins, and the next sync
// edge publishes the buffer (flushWC). Each recorded event's instantaneous
// interval is the buffering instant; the checker derives the store's effect
// window from the first sync fence at or after it.
func (pe *PE) bufferWords(addr uint64, words []int64) {
	pe.chargeLocal()
	for i, v := range words {
		pe.hist.Close(pe.hist.Open(check.KindWrite, addr+uint64(i), v, 0, gmem.ModeRelease.Tag()), 0, true)
		pe.wc.Put(addr+uint64(i), v)
	}
}

// overlayWC merges the PE's own buffered release-mode writes over a fetched
// range — the block-read half of read-your-writes between sync edges. The
// history records the overlaid values: they are what the application saw.
func (pe *PE) overlayWC(out []int64, addr uint64) {
	if pe.wc.Len() == 0 {
		return
	}
	for i := range out {
		if v, ok := pe.wc.Lookup(addr + uint64(i)); ok {
			out[i] = v
		}
	}
}

// --- Tier: read leases (ModeLease, DESIGN.md §14) ---

// leaseEntry is one cached block under a read lease: words is the block
// snapshot fetched from the home, grant the fetch request's start instant
// (the staleness bound the checker holds lease-served reads to) and until
// the expiry instant after which the snapshot must not be served.
type leaseEntry struct {
	words []int64
	grant sim.Time
	until sim.Time
}

// leaseRead serves a lease-mode read of [addr, addr+len(out)) block by block:
// a live lease answers locally with no messages, an own-home block reads the
// segment directly (always fresh, so it carries a strong staleness bound), a
// miss fetches the block under a fresh time-bounded lease. h is the first of
// the range's open history events; each block's words close as it is served.
func (pe *PE) leaseRead(out []int64, addr uint64, h int) error {
	bw := uint64(pe.k.space.BlockWords)
	end := addr + uint64(len(out))
	for base := addr - addr%bw; base < end; base += bw {
		lo, hi := max(base, addr), min(base+bw, end)
		part := out[lo-addr : hi-addr]
		le := pe.leaseHit(base)
		if le != nil {
			pe.chargeLocal()
		} else if home, local := pe.resolve(pe.k.space.Locate(base), gmem.ModeLease, false); local {
			pe.chargeLocal()
			pe.k.seg.ReadInto(part, lo)
		} else {
			var err error
			if le, err = pe.fetchLease(base, home); err != nil {
				return err
			}
		}
		if le != nil {
			copy(part, le.words[lo-base:hi-base])
		}
		for i, v := range part {
			if le != nil {
				// Lease-served: tagged with the lease's grant and expiry, the
				// window the checker's lease rules bound its staleness by.
				pe.hist.CloseRead(h+int(lo-addr)+i, v, true, le.grant, le.until)
			} else {
				pe.hist.CloseRead(h+int(lo-addr)+i, v, false, 0, 0)
			}
		}
	}
	return nil
}

// leaseHit returns the live lease covering the block at base, dropping an
// expired one. The TEST-ONLY FaultIgnoreLeaseExpiry keeps serving expired
// leases — the checker's lease-overstay rule must flag those reads.
func (pe *PE) leaseHit(base uint64) *leaseEntry {
	le, ok := pe.leases[base]
	if !ok {
		return nil
	}
	if pe.app.Now() > le.until && !pe.k.cfg.FaultIgnoreLeaseExpiry {
		delete(pe.leases, base)
		pe.extra.LeaseExpiries++
		return nil
	}
	return le
}

// fetchLease fetches the block at base from its home under a read lease and
// caches it until the home-granted duration elapses (measured from receipt).
// The recorded staleness bound is the REQUEST start: the home serves the
// block no earlier than that, so every write completed before the grant
// instant is already reflected in the snapshot.
func (pe *PE) fetchLease(base uint64, home int) (*leaseEntry, error) {
	grant := pe.app.Now()
	pe.extra.RemoteGM++
	req := wire.GetMessage()
	req.Op, req.Addr = wire.OpReadLease, base
	resp, err := pe.requestErr(home, req)
	wire.PutMessage(req)
	if err != nil {
		return nil, err
	}
	le := &leaseEntry{grant: grant, until: pe.app.Now() + sim.Duration(resp.Arg2)}
	le.words = resp.WordsInto(le.words)
	wire.PutMessage(resp)
	pe.leases[base] = le
	pe.extra.LeaseGrants++
	return le, nil
}

// dropLeases discards this PE's leases covering [addr, addr+n): its own
// mutations must not keep being answered from a snapshot that predates them.
func (pe *PE) dropLeases(addr uint64, n int) {
	if len(pe.leases) == 0 {
		return
	}
	bw := uint64(pe.k.space.BlockWords)
	for base := addr - addr%bw; base < addr+uint64(n); base += bw {
		delete(pe.leases, base)
	}
}

// clearLeases drops every cached lease: crossing an acquire edge (barrier,
// lock or semaphore grant, membership transition) must re-observe the
// cluster instead of extending pre-edge snapshots past it.
func (pe *PE) clearLeases() {
	clear(pe.leases)
}

// --- Path: one-sided window and ring (co-located homes, word not cached) ---

// windowRead is the one-sided read path: the home's segment is mapped in
// this address space, so the read resolves directly through its seqlock
// instead of a request/reply pair. Every word has a single home and the
// seqlock yields a torn-free value, so this is as consistent as the message
// path it replaces. The ownership check inside the home's seqlock critical
// section makes the window migration-safe: a block mid-handoff fails the
// check (the extract bumped the write sequence) and the caller falls through
// to the message path, which follows the NACK redirect. l is the word's place.
func (pe *PE) windowRead(home int, l gmem.Loc) (int64, bool) {
	k := pe.k
	if k.windows == nil || k.deadFlags[home].Load() {
		return 0, false
	}
	pe.app.LocalAccess()
	v, ok := k.windows[home].DirectReadAt(l)
	if ok {
		pe.extra.DirectGM++
	}
	return v, ok
}

// ringStatus is the outcome of a one-sided write submission attempt.
type ringStatus int

const (
	// ringUnavailable: nothing was published (path off, home dead, home no
	// longer owns the block, or ring full) — fall back to the message path
	// with a fresh sequence.
	ringUnavailable ringStatus = iota
	// ringApplied: the write was consumed with no migration in flight — it
	// is applied and globally visible.
	ringApplied
	// ringAmbiguous: the write was consumed, but the home's migration
	// generation moved while it was in flight, so the drain may have
	// discarded it as disowned. The caller must confirm through the message
	// path REUSING the ring sequence: if the drain did apply it, the home's
	// dedup window absorbs the message as a duplicate; if it was discarded,
	// the message applies it (or chases the NACK redirect to the new home).
	// Either way the write lands exactly once.
	ringAmbiguous
)

// ringWrite attempts the one-sided write path: publish (addr, v) into the
// co-located home's per-shard submission ring, then enter that shard's
// monitor and drain the ring — this write and whatever other producers have
// published — so the write is applied when the call returns, with nobody to
// wake. The ring sequence comes from the same counter as
// message sequences, so the home's dedup window gives the two paths one
// exactly-once space. The home's migration generation is sampled before the
// push and rechecked after consumption — see ringAmbiguous for the race this
// closes. l is addr's place.
func (pe *PE) ringWrite(home int, addr uint64, l gmem.Loc, v int64) (ringStatus, uint64) {
	k := pe.k
	if k.ringPeers == nil || k.deadFlags[home].Load() {
		return ringUnavailable, 0
	}
	hk := k.ringPeers[home]
	sh := hk.shards[l.Shard(hk.nshards)]
	if sh.ring == nil {
		return ringUnavailable, 0
	}
	// The generation is sampled UNCONDITIONALLY, not gated on the directory
	// being live: the FIRST migration can flip the directory between this
	// point and the shard drain, and a producer that skipped the sample
	// because the directory looked static would also skip the recheck below
	// and report ringApplied for a write the drain filtered as disowned. A
	// static directory never bumps migGen, so the cost is one atomic load.
	gen := hk.migGen.Load()
	if !hk.dir.Static() && !hk.dir.Owns(home, l.Block) {
		return ringUnavailable, 0 // block already migrated away
	}
	pe.app.LocalAccess()
	w := gmem.RingWrite{Addr: addr, Val: v, Seq: k.seqCtr.Add(1), Src: int32(k.id)}
	pos, ok := sh.ring.Push(w)
	if !ok {
		return ringUnavailable, 0
	}
	pe.extra.RingGM++
	// One pass through the monitor applies this write, or finds it applied:
	// a producer whose drain took it released the slot before letting go of
	// the lock. The exception is a producer that claimed an earlier slot and
	// has yet to publish it — a drain stops there, so give it the processor
	// and go again; GMWrite may not return before its store is visible.
	for sh.fence(); !sh.ring.Consumed(pos); sh.fence() {
		runtime.Gosched()
	}
	if hk.migGen.Load() != gen {
		return ringAmbiguous, w.Seq
	}
	return ringApplied, w.Seq
}
