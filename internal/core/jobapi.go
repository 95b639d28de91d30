package core

// PE-side scheduler API (dsesched, DESIGN.md §15): binding a PE to its
// job's namespace, the local guard that refuses out-of-namespace accesses
// before they leave the PE (covering the accesses in place), the
// control-plane requests the scheduler uses to install kernel-
// side bindings and tear a finished job down.

import (
	"repro/internal/gmem"
	"repro/internal/wire"
)

// BindNamespace confines this PE's global-memory operations to the word
// region [base, limit). BeginJob binds a job's region this way; limit 0
// would mean unbound, so it is rejected — use ClearNamespace.
func (pe *PE) BindNamespace(base, limit uint64) {
	if limit == 0 {
		panic("core: BindNamespace with zero limit (use ClearNamespace)")
	}
	pe.ns = gmem.Region{Base: base, Limit: limit}
}

// ClearNamespace lifts the confinement installed by BindNamespace.
func (pe *PE) ClearNamespace() { pe.ns = gmem.Region{} }

// nsCheck is the PE-side namespace guard: when this PE is bound, an access
// of n words at addr outside the bound region is refused with the typed
// *NamespaceError before any request (or access in place) is issued, and
// counted as a denial.
func (pe *PE) nsCheck(op string, addr uint64, n int) error {
	if pe.ns.Limit == 0 {
		return nil
	}
	if err := pe.job.aborted(); err != nil {
		return err
	}
	if pe.ns.Contains(addr, n) {
		return nil
	}
	pe.extra.NsDenials++
	return &NamespaceError{
		PE: pe.k.id, Op: op, Addr: addr,
		Base: pe.ns.Base, Limit: pe.ns.Limit,
	}
}

// NamespaceBind installs (limit != 0) or clears (limit == 0) PE member's
// kernel-side namespace binding [base, limit) at every kernel, so the homes
// themselves reject member's traffic outside the region — the enforcement a
// forged or corrupted requester cannot bypass.
func (pe *PE) NamespaceBind(member int, base, limit uint64) error {
	for dst := 0; dst < pe.k.n; dst++ {
		req := wire.GetMessage()
		req.Op, req.Addr = wire.OpNsBind, base
		req.Arg1, req.Arg2 = int64(member), int64(limit)
		resp, err := pe.requestErr(dst, req)
		wire.PutMessage(req)
		if err != nil {
			return err
		}
		wire.PutMessage(resp)
	}
	return nil
}

// NamespaceFree drops every materialised block of the word region starting
// at base and spanning nBlocks blocks, at every kernel, returning the total
// number of blocks released — namespace teardown, before the scheduler
// re-carves the region for the next job.
func (pe *PE) NamespaceFree(base uint64, nBlocks int) (int, error) {
	total := 0
	for dst := 0; dst < pe.k.n; dst++ {
		req := wire.GetMessage()
		req.Op, req.Addr, req.Arg1 = wire.OpNsFree, base, int64(nBlocks)
		resp, err := pe.requestErr(dst, req)
		wire.PutMessage(req)
		if err != nil {
			return total, err
		}
		total += int(resp.Arg1)
		wire.PutMessage(resp)
	}
	return total, nil
}

// JobPurge releases a finished job's message and synchronisation residue
// cluster-wide: every user-message mailbox with tag in [tagLo, tagLo+n) is
// closed at every kernel, and kernel 0 drops the same id range from the
// central barrier, lock and semaphore managers.
func (pe *PE) JobPurge(tagLo, n int32) error {
	for dst := 0; dst < pe.k.n; dst++ {
		req := wire.GetMessage()
		req.Op, req.Tag, req.Arg1 = wire.OpJobPurge, tagLo, int64(n)
		resp, err := pe.requestErr(dst, req)
		wire.PutMessage(req)
		if err != nil {
			return err
		}
		wire.PutMessage(resp)
	}
	return nil
}
