package core

// PE-side scheduler API (dsesched, DESIGN.md §15): binding a PE to its
// job's namespace, the local guard that refuses out-of-namespace accesses
// before they leave the PE (covering the accesses in place), and the two
// control-plane requests the scheduler opens and closes a job with at every
// kernel.

import (
	"fmt"

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

// OpenJob binds every member of job g to the job's namespace at every
// kernel, with one OpJobOpen each, so the homes themselves reject a member's
// traffic outside the region — the enforcement a forged or corrupted
// requester cannot bypass. The scheduler opens a job before any member can
// issue a job GM operation. A job that fails the check BeginJob makes is
// refused before any request.
func (pe *PE) OpenJob(g JobGroup) error {
	_, err := pe.jobRequest(wire.OpJobOpen, g)
	return err
}

// CloseJob tears job g down at every kernel with one OpJobClose each: the
// members still bound to the job's region are unbound, the region's blocks
// dropped and the job's tag window purged of queued messages and
// synchronisation state. It returns the blocks dropped cluster-wide. Every
// kernel is asked even after one failed, and the first failure is returned.
func (pe *PE) CloseJob(g JobGroup) (freedBlocks int, err error) {
	return pe.jobRequest(wire.OpJobClose, g)
}

// jobRequest sends job g's op request to every kernel and sums what the
// answers carry in Arg1.
func (pe *PE) jobRequest(op wire.Op, g JobGroup) (sum int, err error) {
	if why := g.fault(pe.k.n, uint64(pe.k.space.BlockWords)); why != "" {
		return 0, fmt.Errorf("core: %v of job %q refused: %s", op, g.Name, why)
	}
	for dst := 0; dst < pe.k.n; dst++ {
		req := wire.GetMessage()
		g.frame(req, op)
		n, rerr := pe.ask(dst, req)
		if err == nil {
			err = rerr
		}
		sum += int(n)
	}
	return sum, err
}
