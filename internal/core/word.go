package core

import (
	"repro/internal/check"
	"repro/internal/gmem"
	"repro/internal/wire"
)

// wordOps names the scalar operations for the namespace guard's error and
// maps them to their request op, indexed by the history kind that identifies
// them throughout the word executor.
var wordOps = [...]struct {
	name string
	wire wire.Op
}{
	check.KindRead:     {"read", wire.OpRead},
	check.KindWrite:    {"write", wire.OpWrite},
	check.KindFetchAdd: {"fetch-add", wire.OpFetchAdd},
	check.KindCAS:      {"cas", wire.OpCAS},
}

// wordOp is the word executor: one scalar read, write, fetch-add or CAS run
// through the access pipeline (see access.go). a1 and a2 are the operation's
// arguments — the value written, the delta added, or the expected and new
// values — and out its result: the value read or the previous value. ok is
// meaningful for CAS only (the swap happened). Everything stays in registers,
// the PE's own request message and the pooled reply: the remote paths do not
// allocate.
func (pe *PE) wordOp(kind check.Kind, addr uint64, a1, a2 int64) (out int64, ok bool, err error) {
	if pe.ns.Limit != 0 {
		if err = pe.nsCheck(wordOps[kind].name, addr, 1); err != nil {
			return 0, false, err
		}
	}
	pe.legacyCrossing()
	k := pe.k

	// Tiers. The word's mode picks the contract: release stores stop at the
	// write-combining buffer and release reads see them there first; lease
	// reads are served from time-bounded block snapshots. Atomics always run
	// the strong protocol at the home — the mode only tags which per-word rule
	// set judges them — and any mutation drops the PE's own lease on the word
	// so its later lease reads re-observe it.
	mode := pe.modes.Lookup(addr)
	switch {
	case mode == gmem.ModeRelease && kind == check.KindWrite:
		pe.bufferWords(addr, []int64{a1})
		return 0, false, nil
	case mode == gmem.ModeLease && kind != check.KindRead:
		pe.dropLeases(addr, 1)
	}
	h := pe.hist.Open(kind, addr, a1, a2, mode.Tag())
	if kind == check.KindRead {
		switch mode {
		case gmem.ModeLease:
			var one [1]int64
			if err = pe.leaseRead(one[:], addr, h); err != nil {
				pe.hist.FailReads(h, 1)
			}
			return one[0], false, err
		case gmem.ModeRelease:
			if v, hit := pe.wc.Lookup(addr); hit {
				pe.chargeLocal()
				pe.hist.CloseRead(h, v, false, 0, 0)
				return v, false, nil
			}
		}
	}

	// Home: the word's block index picks its slot in the PE's resolution
	// table (pinned). The slot's pin stands if the live directory still names
	// the pinned segment's kernel as the home and inPlace's rule still admits
	// the word there — the home is alive and its namespace binding admits it,
	// written out here because a call costs as much as the rest of the hit.
	// Those are the answers the steps below would give now, so a hit takes the
	// path they would. Otherwise the word is located — block, offset, stripe
	// and static home — the live directory names the home and inPlace
	// decides. Either way the block index is computed once.
	b := k.space.BlockOf(addr)
	var l gmem.Loc
	var home int
	var seg *gmem.Segment
	pin := pe.pinned(b)
	if pin != nil {
		l, home = pin.Loc(), pin.Home()
		if p := &k.peers[home]; k.dir.HomeAt(l) == home && !p.dead.Load() && p.ns.Admits(k.id, addr, 1) {
			seg = p.seg
		} else {
			pin = nil
		}
	}
	if pin == nil {
		l = k.space.LocateBlock(b)
		home = k.dir.HomeAt(l)
		seg = pe.inPlace(home, addr, 1)
	}
	l.Off = int(addr - b*uint64(k.space.BlockWords))

	// Every mutation that completes succeeds, except a CAS that finds another
	// value.
	ok = true

	// Path: in place if inPlace admits it — the own kernel's segment or a
	// co-located peer's, through one pinned block — else by a message. Each
	// pin op checks ownership under the stripe's seqlock or mutex, which a
	// migration's Extract passes only after the directory has flipped: the
	// access lands before the block's snapshot is taken, and moves with it, or
	// is refused with nothing applied and follows the block by message under a
	// fresh Seq.
	if seg == nil || home != k.id {
		pe.extra.RemoteGM++
	} else {
		pe.extra.LocalGM++
	}
	if seg != nil {
		pe.localAccess()
		var done bool
		for {
			if pin != nil {
				switch kind {
				case check.KindRead:
					out, done = pin.Read(l.Off)
				case check.KindWrite:
					done = pin.Store(l.Off, a1)
				case check.KindFetchAdd:
					out, done = pin.FetchAdd(l.Off, a1)
				case check.KindCAS:
					out, ok, done = pin.CAS(l.Off, a1, a2)
				}
				if done {
					break
				}
			}
			// No pin yet, or a stale one. Only a publish between pinning and
			// the op makes a fresh pin stale, so this repeats only while
			// publishes keep winning.
			if pin = pe.repin(seg, l, kind != check.KindRead); pin == nil {
				break
			}
		}
		if done {
			if kind == check.KindRead {
				if home != k.id {
					pe.extra.DirectGM++
				}
				pe.hist.CloseRead(h, out, false, 0, 0)
				return out, false, nil
			}
			if home != k.id {
				pe.extra.RingGM++
			}
			pe.hist.Close(h, out, ok)
			return out, ok, nil
		}
		home = k.dir.HomeAt(l) // the block moved away during the charge
	}
	req := &pe.wreq
	req.Op, req.Addr = wordOps[kind].wire, addr
	switch kind {
	case check.KindRead:
		req.Arg1 = 1
	case check.KindWrite:
		req.PutWord(a1)
	default:
		req.Arg1, req.Arg2 = a1, a2
	}
	resp, err := pe.requestErr(home, req)
	req.Reset()
	if err != nil {
		pe.hist.FailReads(h, 1) // a failed mutation stays open: it may have applied
		return 0, false, err
	}
	switch kind {
	case check.KindRead:
		out = resp.Word(0)
		wire.PutMessage(resp)
		pe.hist.CloseRead(h, out, false, 0, 0)
		return out, false, nil
	case check.KindFetchAdd:
		out = resp.Arg1
	case check.KindCAS:
		out, ok = resp.Arg1, resp.Arg2 == 1
	}
	wire.PutMessage(resp)
	pe.hist.Close(h, out, ok)
	return out, ok, nil
}

// GMReadErr reads the global-memory word at addr, surfacing request
// failures (timeout, peer down, shutdown) as errors instead of panicking.
// The word's consistency mode picks the protocol: strong words take the
// home-served path, release words consult the PE's own write-combining
// buffer first (read-your-writes between sync edges), lease words are
// served from time-bounded block leases.
func (pe *PE) GMReadErr(addr uint64) (int64, error) {
	v, _, err := pe.wordOp(check.KindRead, addr, 0, 0)
	return v, err
}

// GMWriteErr stores v at addr, surfacing request failures as errors. The
// word's consistency mode picks the protocol: release-mode stores land in
// the PE's write-combining buffer (published at the next sync edge), every
// other mode runs the home-served strong protocol.
func (pe *PE) GMWriteErr(addr uint64, v int64) error {
	_, _, err := pe.wordOp(check.KindWrite, addr, v, 0)
	return err
}

// FetchAddErr atomically adds delta to the word at addr, returning the old
// value, and surfaces request failures as errors: the primitive behind job
// pools and work counters. A retry that slips past a lost reply is absorbed
// by the home's dedup window, so the addition is applied exactly once even
// under retransmission.
func (pe *PE) FetchAddErr(addr uint64, delta int64) (int64, error) {
	old, _, err := pe.wordOp(check.KindFetchAdd, addr, delta, 0)
	return old, err
}

// CASErr atomically compares-and-swaps the word at addr; it returns the
// previous value and whether the swap happened, and surfaces request
// failures as errors. Like FetchAddErr it stays exactly-once under
// retransmission.
func (pe *PE) CASErr(addr uint64, old, new int64) (int64, bool, error) {
	return pe.wordOp(check.KindCAS, addr, old, new)
}
