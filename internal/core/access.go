package core

import (
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
// written once: the consistency tiers (write-combining buffer, leases) and
// the admission rule of the path in place. The word's mode, looked up at the
// mode step, is the only selector of its tier. A rule that must hold for
// every access has one place to go.
//
// Record: with Config.RecordHistory every access is recorded the same way
// through pe.hist (nil, and every call a no-op, with recording off): one
// event per word, opened at invocation and left Failed — "may have applied" —
// until the word's result closes it, so an operation that dies mid-request
// (timeout, panic, peer down) is retained open rather than lost.

// --- Path: in place (a home whose segment lives in this address space) ---

// inPlace is the path step's admission rule: it returns the segment of home,
// the live directory's answer for the n words at addr, if this PE may access
// them there in place, else nil. One rule for the own kernel and a
// co-located peer (Kernel.peers):
//   - the home is alive: a dead one is left to the message path, which
//     produces peer-down;
//   - at a peer, the paths in place are on (Config.DirectReads);
//   - the home's namespace binding for this PE admits the words: the message
//     path's nsDeny answers one it does not with OpNsNack, so a forged
//     requester gets *NamespaceError whichever path it would have taken.
//
// Ownership is the segment's to check, inside the access. Nothing in place
// retries, so nothing needs a Seq or a dedup record (DESIGN.md §12).
func (pe *PE) inPlace(home int, addr uint64, n int) *gmem.Segment {
	k := pe.k
	p := &k.peers[home]
	if p.seg == nil || p.dead.Load() || !p.ns.Admits(k.id, addr, n) {
		return nil
	}
	return p.seg
}

// runInPlace serves what it may of a range operation's run at addr, located
// at l and homed at home by the live directory, from home's segment if inPlace
// admits it: all of a read or none, or a write's prefix stored before a
// migration took the block (gmem.Segment.WriteRunAt). It returns the words
// served; the rest takes the message path to the home the directory names
// now. A run served at a peer counts as remote, and as a direct read or a
// store in place.
func (pe *PE) runInPlace(home int, l gmem.Loc, write bool, addr uint64, run []int64) (n int) {
	seg := pe.inPlace(home, addr, len(run))
	if seg == nil {
		return 0
	}
	pe.app.LocalAccess()
	if write {
		n = seg.WriteRunAt(l, run)
	} else if seg.ReadRunAt(run, l) {
		n = len(run)
	}
	switch e := &pe.extra; {
	case home == pe.k.id:
		e.LocalGM++
	case n > 0 && write:
		e.RemoteGM++
		e.RingGM++
	case n > 0:
		e.RemoteGM++
		e.DirectGM++
	}
	return n
}

// chargeLocal accounts one access served without leaving the PE.
func (pe *PE) chargeLocal() {
	pe.app.LocalAccess()
	pe.extra.LocalGM++
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
// segment directly (runInPlace: always fresh, so it carries a strong staleness
// bound), a miss fetches the block under a fresh time-bounded lease from the
// home the live directory names. h is the first of the range's open history
// events; each block's words close as it is served.
func (pe *PE) leaseRead(out []int64, addr uint64, h int) error {
	k := pe.k
	bw := uint64(k.space.BlockWords)
	end := addr + uint64(len(out))
	for base := addr - addr%bw; base < end; base += bw {
		lo, hi := max(base, addr), min(base+bw, end)
		part := out[lo-addr : hi-addr]
		le := pe.leaseHit(base)
		if le != nil {
			pe.chargeLocal()
		} else if l := k.space.Locate(lo); k.dir.HomeAt(l) != k.id || pe.runInPlace(k.id, l, false, lo, part) == 0 {
			var err error
			if le, err = pe.fetchLease(base, k.dir.HomeAt(l)); err != nil {
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
	if pe.app.Now() > le.until && pe.k.cfg.Fault != FaultIgnoreLeaseExpiry {
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

// clearLeases drops every cached lease: crossing an acquire edge (barrier
// release, lock grant, membership transition) must re-observe the
// cluster instead of extending pre-edge snapshots past it.
func (pe *PE) clearLeases() {
	clear(pe.leases)
}
