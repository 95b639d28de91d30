package core

// Kernel-side namespace support for the dsesched multi-job scheduler
// (DESIGN.md §15): binding a requester PE to its job's region, rejecting
// bound traffic that strays outside it with the typed OpNsNack, freeing a
// namespace's homed blocks at teardown, and purging a finished job's
// message/sync residue.

import (
	"repro/internal/gmem"
	"repro/internal/wire"
)

// handleNsBind installs (Arg2 != 0) or removes (Arg2 == 0) the namespace
// binding of requester PE Arg1: the word region [Addr, Arg2). Idempotent —
// a rebind overwrites — so no dedup window is needed. Serial loop only; no
// shard fence is required because GM handlers read the registry through
// an atomic snapshot, and the scheduler binds before the job's first GM
// access and unbinds after its last.
func (k *Kernel) handleNsBind(m *wire.Message) {
	pe := int(m.Arg1)
	if m.Arg2 == 0 {
		k.ns.Unbind(pe)
	} else {
		k.ns.Bind(pe, gmem.Region{Base: m.Addr, Limit: uint64(m.Arg2)})
	}
	resp := wire.GetMessage()
	resp.Op = wire.OpNsBindAck
	k.reply(&k.dedup, m, resp)
}

// handleNsFree drops every materialised block this kernel homes inside
// [Addr, Addr + Arg1*BlockWords): namespace teardown, so a finished job's
// data is released before the region is re-carved for the next job. The
// shard fence lets in-flight service finish first, so no write served before
// the free can re-materialise a dropped block (a mutation in place has
// completed when its PE moves on, fenceShards).
func (k *Kernel) handleNsFree(m *wire.Message) {
	dropped := 0
	if m.Arg1 > 0 {
		k.fenceShards()
		dropped = k.seg.DropRange(k.space.BlockOf(m.Addr), uint64(m.Arg1))
	}
	resp := wire.GetMessage()
	resp.Op, resp.Arg1 = wire.OpNsFreeAck, int64(dropped)
	k.reply(&k.dedup, m, resp)
}

// handleJobPurge releases a finished job's residue at this kernel: every
// user-message mailbox whose tag lies in [Tag, Tag+Arg1) is closed and
// forgotten (waking any straggling RecvMsg), and the same id range is
// purged from the synchronisation state (which only kernel 0 holds any of).
func (k *Kernel) handleJobPurge(m *wire.Message) {
	if n := int32(m.Arg1); n > 0 {
		lo, hi := m.Tag, m.Tag+n
		k.mu.Lock()
		for tag, mb := range k.userq {
			if tag >= lo && tag < hi {
				mb.Close()
				delete(k.userq, tag)
			}
		}
		k.mu.Unlock()
		k.sync.Purge(lo, hi)
	}
	resp := wire.GetMessage()
	resp.Op = wire.OpJobPurgeAck
	k.reply(&k.dedup, m, resp)
}

// nsDeny enforces per-job namespace isolation at the home: if the requester
// is bound to a region, every located run of the request is held against it
// and a request straying outside is rejected whole with the typed OpNsNack —
// before any read or write, so a forged address can never reach another job's
// blocks, and all-or-nothing so no partial mutation lands.
func (sh *kernelShard) nsDeny(m *wire.Message) bool {
	k := sh.k
	region, bound := k.ns.Lookup(int(m.Src))
	if !bound {
		return false
	}
	violation := false
	bw := uint64(k.space.BlockWords)
	for i := range sh.runs {
		if r := &sh.runs[i]; !region.Contains(r.block*bw+uint64(r.off), r.count) {
			violation = true
			break
		}
	}
	if !violation {
		return false
	}
	sh.extra.NsViolations++
	k.refuse(&sh.dedup, m, wire.OpNsNack, int64(region.Base), int64(region.Limit))
	return true
}
