package core

// Kernel-side job support for the dsesched multi-job scheduler (DESIGN.md
// §15): opening a job (binding its members to its region), rejecting bound
// traffic that strays outside the region with the typed OpNsNack, and closing
// a job (unbinding, freeing the region's homed blocks and purging the job's
// message/sync residue).

import "repro/internal/wire"

// handleJob serves a job's two idempotent control requests (DESIGN.md §15).
// OpJobOpen binds every listed member to the job's region. OpJobClose unbinds
// a listed member only while it is still bound to this region (a stale close
// must not unbind a PE a newer job bound), fences the shards so that no write
// served before it re-materialises a dropped block, drops the region's
// blocks, and closes the job tag window's user queues (waking any straggling
// RecvMsg) and sync state. A malformed frame (fault; it is input from another
// node) is counted and dropped unanswered with nothing applied, like a
// corrupt GM request (kernelShard.locate).
func (k *Kernel) handleJob(m *wire.Message) {
	bw := uint64(k.space.BlockWords)
	g, ok := jobOf(m)
	if !ok || g.fault(k.n, bw) != "" {
		k.extra.CorruptDrops++
		return
	}
	resp := wire.GetMessage()
	if m.Op == wire.OpJobOpen {
		for _, pe := range g.Members {
			k.ns.Bind(pe, g.Region)
		}
		resp.Op = wire.OpJobOpenAck
	} else {
		for _, pe := range g.Members {
			if r, bound := k.ns.Lookup(pe); bound && r == g.Region {
				k.ns.Unbind(pe)
			}
		}
		k.fenceShards()
		dropped := k.seg.DropRange(g.Region.Base/bw, g.Region.Words()/bw)
		lo, hi := g.TagBase, g.TagBase+JobTagSpan
		k.mu.Lock()
		for tag, mb := range k.userq {
			if tag >= lo && tag < hi {
				mb.Close()
				delete(k.userq, tag)
			}
		}
		k.mu.Unlock()
		k.sync.Purge(lo, hi)
		resp.Op, resp.Arg1 = wire.OpJobCloseAck, int64(dropped)
	}
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
