package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/gmem"
	"repro/internal/sim"
	"repro/internal/transport/simnet"
	"repro/internal/wire"
)

// pathDelta is what one operation added to the issuing PE's path counters:
// accesses served locally, remote words/runs, the share of those that took
// the one-sided window or a mutation in place, and messages its node put on the wire
// (requests by the PE plus whatever its own kernel sent meanwhile).
type pathDelta struct{ local, remote, direct, ring, msgs uint64 }

func pathCounters(pe *PE) pathDelta {
	e := &pe.extra
	return pathDelta{e.LocalGM, e.RemoteGM, e.DirectGM, e.RingGM, pe.k.Stats().MsgsSent}
}

func (a pathDelta) sub(b pathDelta) pathDelta {
	return pathDelta{a.local - b.local, a.remote - b.remote, a.direct - b.direct, a.ring - b.ring, a.msgs - b.msgs}
}

// evTag is what the table pins of one recorded event.
type evTag struct {
	kind   check.Kind
	mode   gmem.Mode
	cached bool
}

func tags(n int, t evTag) []evTag {
	out := make([]evTag, n)
	for i := range out {
		out[i] = t
	}
	return out
}

// The two clusters the table runs on. Both simulated (every path exists
// there, and the counters can be read mid-run because the engine runs one
// context at a time). A cluster's rows run in one program.
const (
	onMsg = "message"  // every one-sided path off
	onOne = "onesided" // window reads and mutations in place on
)

// accessRow is one cell of the GM access ladder: an operation issued by PE 0
// of a 2-PE cluster against l (a word PE 0's kernel homes) and r (a word PE 1
// homes), the first words of two adjacent blocks of a fresh allocation under
// mode. prep runs first, outside the measured bracket. The mode in an ev tag
// is the one the history records.
type accessRow struct {
	name string
	on   string
	mode gmem.Mode
	prep func(pe *PE, l, r uint64)
	op   func(pe *PE, l, r uint64) int64
	want int64 // op's result: the value read, or the previous value of an atomic
	d    pathDelta
	ev   []evTag
}

func rd(m gmem.Mode) evTag  { return evTag{check.KindRead, m, false} }
func rdC(m gmem.Mode) evTag { return evTag{check.KindRead, m, true} } // lease-served
func wr(m gmem.Mode) evTag  { return evTag{check.KindWrite, m, false} }
func fa(m gmem.Mode) evTag  { return evTag{check.KindFetchAdd, m, false} }
func cas(m gmem.Mode) evTag { return evTag{check.KindCAS, m, false} }

const (
	strong  = gmem.ModeStrong
	release = gmem.ModeRelease
	lease   = gmem.ModeLease
)

// span returns the n consecutive values starting at v.
func span(n int, v int64) []int64 {
	ws := make([]int64, n)
	for i := range ws {
		ws[i] = v + int64(i)
	}
	return ws
}

var accessRows = []accessRow{
	// --- word executor, strong tier ---
	{name: "strong/local/read", on: onMsg, mode: strong,
		prep: func(pe *PE, l, r uint64) { mustWrite(pe, l, 5) },
		op:   func(pe *PE, l, r uint64) int64 { return mustRead(pe, l) }, want: 5,
		d: pathDelta{local: 1}, ev: []evTag{rd(strong)}},
	{name: "strong/local/write", on: onMsg, mode: strong,
		op: func(pe *PE, l, r uint64) int64 { mustWrite(pe, l, 6); return pe.k.seg.ReadWord(l) }, want: 6,
		d: pathDelta{local: 1}, ev: []evTag{wr(strong)}},
	{name: "strong/local/fetch-add", on: onOne, mode: strong,
		prep: func(pe *PE, l, r uint64) { mustFetchAdd(pe, l, 3) },
		op:   func(pe *PE, l, r uint64) int64 { return mustFetchAdd(pe, l, 3) }, want: 3,
		d: pathDelta{local: 1}, ev: []evTag{fa(strong)}},
	{name: "strong/local/cas", on: onOne, mode: strong,
		op: func(pe *PE, l, r uint64) int64 { prev, _, err := pe.CASErr(l, 0, 9); must(err); return prev }, want: 0,
		d: pathDelta{local: 1}, ev: []evTag{cas(strong)}},
	{name: "strong/message/read", on: onMsg, mode: strong,
		prep: func(pe *PE, l, r uint64) { mustWrite(pe, r, 7) },
		op:   func(pe *PE, l, r uint64) int64 { return mustRead(pe, r) }, want: 7,
		d: pathDelta{remote: 1, msgs: 1}, ev: []evTag{rd(strong)}},
	{name: "strong/message/write", on: onMsg, mode: strong,
		op: func(pe *PE, l, r uint64) int64 { mustWrite(pe, r, 8); return mustRead(pe, r) }, want: 8,
		d: pathDelta{remote: 2, msgs: 2}, ev: []evTag{wr(strong), rd(strong)}},
	{name: "strong/message/fetch-add", on: onMsg, mode: strong,
		prep: func(pe *PE, l, r uint64) { mustFetchAdd(pe, r, 2) },
		op:   func(pe *PE, l, r uint64) int64 { return mustFetchAdd(pe, r, 2) }, want: 2,
		d: pathDelta{remote: 1, msgs: 1}, ev: []evTag{fa(strong)}},
	{name: "strong/message/cas", on: onMsg, mode: strong,
		prep: func(pe *PE, l, r uint64) { mustWrite(pe, r, 30) },
		op:   func(pe *PE, l, r uint64) int64 { prev, _, err := pe.CASErr(r, 30, 31); must(err); return prev }, want: 30,
		d: pathDelta{remote: 1, msgs: 1}, ev: []evTag{cas(strong)}},
	{name: "strong/window/read", on: onOne, mode: strong,
		prep: func(pe *PE, l, r uint64) { mustWrite(pe, r, 7) },
		op:   func(pe *PE, l, r uint64) int64 { return mustRead(pe, r) }, want: 7,
		d: pathDelta{remote: 1, direct: 1}, ev: []evTag{rd(strong)}},
	{name: "strong/ring/write", on: onOne, mode: strong,
		op: func(pe *PE, l, r uint64) int64 { mustWrite(pe, r, 8); return mustRead(pe, r) }, want: 8,
		d: pathDelta{remote: 2, direct: 1, ring: 1}, ev: []evTag{wr(strong), rd(strong)}},
	{name: "strong/onesided/fetch-add-in-place", on: onOne, mode: strong,
		op: func(pe *PE, l, r uint64) int64 { return mustFetchAdd(pe, r, 2) }, want: 0,
		d: pathDelta{remote: 1, ring: 1}, ev: []evTag{fa(strong)}},
	{name: "strong/onesided/cas-in-place", on: onOne, mode: strong,
		op: func(pe *PE, l, r uint64) int64 { prev, _, err := pe.CASErr(r, 1, 2); must(err); return prev }, want: 0,
		d: pathDelta{remote: 1, ring: 1}, ev: []evTag{cas(strong)}},

	// --- word executor, release tier ---
	{name: "release/write-buffers", on: onMsg, mode: release,
		op: func(pe *PE, l, r uint64) int64 {
			n := pe.wc.Len()
			mustWrite(pe, r, 4)
			return int64(pe.wc.Len() - n)
		}, want: 1,
		d: pathDelta{local: 1}, ev: []evTag{wr(release)}},
	{name: "release/read-own-buffered-write", on: onMsg, mode: release,
		prep: func(pe *PE, l, r uint64) { mustWrite(pe, r, 4) },
		op:   func(pe *PE, l, r uint64) int64 { return mustRead(pe, r) }, want: 4,
		d: pathDelta{local: 1}, ev: []evTag{rd(release)}},
	{name: "release/message/read-miss", on: onMsg, mode: release,
		op: func(pe *PE, l, r uint64) int64 { return mustRead(pe, r) }, want: 0,
		d: pathDelta{remote: 1, msgs: 1}, ev: []evTag{rd(release)}},
	{name: "release/window/read-miss", on: onOne, mode: release,
		op: func(pe *PE, l, r uint64) int64 { return mustRead(pe, r) }, want: 0,
		d: pathDelta{remote: 1, direct: 1}, ev: []evTag{rd(release)}},
	{name: "release/local/read-miss", on: onMsg, mode: release,
		op: func(pe *PE, l, r uint64) int64 { return mustRead(pe, l) }, want: 0,
		d: pathDelta{local: 1}, ev: []evTag{rd(release)}},
	{name: "release/message/fetch-add-is-strong", on: onMsg, mode: release,
		op: func(pe *PE, l, r uint64) int64 { mustFetchAdd(pe, r, 5); return mustFetchAdd(pe, r, 5) }, want: 5,
		d: pathDelta{remote: 2, msgs: 2}, ev: []evTag{fa(release), fa(release)}},
	{name: "release/onesided/fetch-add-in-place", on: onOne, mode: release,
		op: func(pe *PE, l, r uint64) int64 { mustFetchAdd(pe, r, 5); return mustFetchAdd(pe, r, 5) }, want: 5,
		d: pathDelta{remote: 2, ring: 2}, ev: []evTag{fa(release), fa(release)}},

	// --- word executor, lease tier ---
	{name: "lease/read-miss-fetches", on: onOne, mode: lease,
		op: func(pe *PE, l, r uint64) int64 { return mustRead(pe, r) }, want: 0,
		d: pathDelta{remote: 1, msgs: 1}, ev: []evTag{rdC(lease)}},
	{name: "lease/read-hit", on: onOne, mode: lease,
		prep: func(pe *PE, l, r uint64) { mustRead(pe, r) },
		op:   func(pe *PE, l, r uint64) int64 { return mustRead(pe, r+1) }, want: 0,
		d: pathDelta{local: 1}, ev: []evTag{rdC(lease)}},
	{name: "lease/local/read", on: onMsg, mode: lease,
		op: func(pe *PE, l, r uint64) int64 { return mustRead(pe, l) }, want: 0,
		d: pathDelta{local: 1}, ev: []evTag{rd(lease)}},
	{name: "lease/message/write-drops-own-lease", on: onMsg, mode: lease,
		prep: func(pe *PE, l, r uint64) { mustRead(pe, r) },
		op:   func(pe *PE, l, r uint64) int64 { mustWrite(pe, r, 3); return mustRead(pe, r) }, want: 3,
		d: pathDelta{remote: 2, msgs: 2}, ev: []evTag{wr(lease), rdC(lease)}},
	{name: "lease/ring/write", on: onOne, mode: lease,
		op: func(pe *PE, l, r uint64) int64 { mustWrite(pe, r, 3); return 0 }, want: 0,
		d: pathDelta{remote: 1, ring: 1}, ev: []evTag{wr(lease)}},
	{name: "lease/message/fetch-add-drops-own-lease", on: onMsg, mode: lease,
		prep: func(pe *PE, l, r uint64) { mustRead(pe, r) },
		op:   func(pe *PE, l, r uint64) int64 { mustFetchAdd(pe, r, 2); return mustRead(pe, r) }, want: 2,
		d: pathDelta{remote: 2, msgs: 2}, ev: []evTag{fa(lease), rdC(lease)}},
	// In place, the fetch-add drops the own lease too: the read after it fetches
	// a fresh one.
	{name: "lease/onesided/fetch-add-in-place-drops-own-lease", on: onOne, mode: lease,
		prep: func(pe *PE, l, r uint64) { mustRead(pe, r) },
		op:   func(pe *PE, l, r uint64) int64 { mustFetchAdd(pe, r, 2); return mustRead(pe, r) }, want: 2,
		d: pathDelta{remote: 2, ring: 1, msgs: 1}, ev: []evTag{fa(lease), rdC(lease)}},

	// --- range executor: l is followed by r's block or the other way round,
	// so a two-block range always has one local and one remote run. With the
	// one-sided paths on, a peer run is served in place like a scalar: remote,
	// and a direct read or a store in place, with no message ---
	{name: "strong/block-read-in-place", on: onOne, mode: strong,
		prep: func(pe *PE, l, r uint64) { mustWrite(pe, r, 9) },
		op:   func(pe *PE, l, r uint64) int64 { return mustReadBlock(pe, min(l, r), 64)[r-min(l, r)] }, want: 9,
		d: pathDelta{local: 1, remote: 1, direct: 1}, ev: tags(64, rd(strong))},
	{name: "strong/block-write-in-place", on: onOne, mode: strong,
		op: func(pe *PE, l, r uint64) int64 {
			mustWriteBlock(pe, min(l, r), span(64, 100))
			return pe.k.seg.ReadWord(l) - int64(l-min(l, r))
		}, want: 100,
		d: pathDelta{local: 1, remote: 1, ring: 1}, ev: tags(64, wr(strong))},
	{name: "strong/gather-in-place", on: onOne, mode: strong,
		prep: func(pe *PE, l, r uint64) { mustWrite(pe, r+1, 9) },
		op:   func(pe *PE, l, r uint64) int64 { return mustGather(pe, []uint64{r + 1, l, r})[0] }, want: 9,
		d: pathDelta{local: 1, remote: 2, direct: 2}, ev: tags(3, rd(strong))},
	{name: "strong/scatter-in-place", on: onOne, mode: strong,
		op: func(pe *PE, l, r uint64) int64 {
			must(pe.GMScatterErr([]uint64{r, l}, []int64{1, 2}))
			return mustRead(pe, r)
		}, want: 1,
		d: pathDelta{local: 1, remote: 2, direct: 1, ring: 1}, ev: []evTag{wr(strong), wr(strong), rd(strong)}},
	{name: "strong/message/block-read", on: onMsg, mode: strong,
		prep: func(pe *PE, l, r uint64) { mustWrite(pe, r, 9) },
		op:   func(pe *PE, l, r uint64) int64 { return mustReadBlock(pe, min(l, r), 64)[r-min(l, r)] }, want: 9,
		d: pathDelta{local: 1, remote: 1, msgs: 1}, ev: tags(64, rd(strong))},
	{name: "strong/message/scatter", on: onMsg, mode: strong,
		op: func(pe *PE, l, r uint64) int64 {
			must(pe.GMScatterErr([]uint64{r, l}, []int64{1, 2}))
			return mustRead(pe, r)
		}, want: 1,
		d: pathDelta{local: 1, remote: 2, msgs: 2}, ev: []evTag{wr(strong), wr(strong), rd(strong)}},
	{name: "strong/message/scatter-length-mismatch-refused", on: onMsg, mode: strong,
		op: func(pe *PE, l, r uint64) int64 {
			var refused int64
			if pe.GMScatterErr([]uint64{r, l}, []int64{1}) != nil {
				refused = 1
			}
			return refused
		}, want: 1,
		d: pathDelta{}, ev: []evTag{}},
	{name: "release/onesided/block-read-overlays-own-writes", on: onOne, mode: release,
		prep: func(pe *PE, l, r uint64) { mustWrite(pe, r+2, 77) },
		op:   func(pe *PE, l, r uint64) int64 { return mustReadBlock(pe, r, 4)[2] }, want: 77,
		d: pathDelta{remote: 1, direct: 1}, ev: tags(4, rd(release))},
	// The release publication stays a message at a peer: a flush is one
	// OpFlushV to r's home and a store in place at the own home (prep
	// publishes what earlier rows left buffered first).
	{name: "release/onesided/flush-stays-message", on: onOne, mode: release,
		prep: func(pe *PE, l, r uint64) { pe.flushWC(pe.Now()); mustWrite(pe, r, 5); mustWrite(pe, l, 6) },
		op: func(pe *PE, l, r uint64) int64 {
			n := pe.k.Stats().MsgsSent
			pe.flushWC(pe.Now())
			return int64(pe.k.Stats().MsgsSent - n)
		}, want: 1,
		d: pathDelta{local: 1, remote: 1, msgs: 1}},
	{name: "release/block-write-buffers", on: onMsg, mode: release,
		op: func(pe *PE, l, r uint64) int64 {
			n := pe.wc.Len()
			mustWriteBlock(pe, min(l, r), span(64, 1))
			return int64(pe.wc.Len() - n)
		}, want: 64,
		d: pathDelta{local: 1}, ev: tags(64, wr(release))},
	{name: "release/block-read-overlays-own-writes", on: onMsg, mode: release,
		prep: func(pe *PE, l, r uint64) { mustWrite(pe, r+2, 77) },
		op:   func(pe *PE, l, r uint64) int64 { return mustReadBlock(pe, r, 4)[2] }, want: 77,
		d: pathDelta{remote: 1, msgs: 1}, ev: tags(4, rd(release))},
	{name: "lease/block-read", on: onMsg, mode: lease,
		op: func(pe *PE, l, r uint64) int64 { return mustReadBlock(pe, min(l, r), 64)[0] }, want: 0,
		// One own-home block (read fresh, not lease-served) and one fetched under
		// a lease; which comes first depends on the allocation, so the tags of
		// this cell are pinned by the single-block rows around it.
		d: pathDelta{local: 1, remote: 1, msgs: 1}},
	{name: "lease/block-read-hit", on: onMsg, mode: lease,
		prep: func(pe *PE, l, r uint64) { mustRead(pe, r) },
		op:   func(pe *PE, l, r uint64) int64 { return mustReadBlock(pe, r, 8)[0] }, want: 0,
		d: pathDelta{local: 1}, ev: tags(8, rdC(lease))},
	{name: "lease/block-write-drops-own-lease", on: onMsg, mode: lease,
		prep: func(pe *PE, l, r uint64) { mustRead(pe, r) },
		op:   func(pe *PE, l, r uint64) int64 { mustWriteBlock(pe, r, span(4, 50)); return mustRead(pe, r+1) }, want: 51,
		d: pathDelta{remote: 2, msgs: 2}, ev: append(tags(4, wr(lease)), rdC(lease))},
	{name: "mixed-mode-gather-falls-back-to-words", on: onMsg, mode: release,
		prep: func(pe *PE, l, r uint64) { mustWrite(pe, r, 6) },
		op:   func(pe *PE, l, r uint64) int64 { return mustGather(pe, []uint64{r, l})[0] }, want: 6,
		d: pathDelta{local: 2}, ev: []evTag{rd(release), rd(release)}},
}

// TestAccessPipelineTable is the one-row-per-cell check of the GM access
// pipeline: operation × consistency tier × path, each asserting the value the
// operation produced, what it added to the path counters, and how the history
// recorded it. A rule added to the pipeline has one obvious place to be
// tested: a row here.
func TestAccessPipelineTable(t *testing.T) {
	for on, cfg := range map[string]Config{
		onMsg: {DirectReads: -1},
		onOne: {DirectReads: 1},
	} {
		t.Run(on, func(t *testing.T) {
			base := simCfg(2)
			cfg.NumPE, cfg.Platform, cfg.Seed, cfg.RecordHistory = base.NumPE, base.Platform, base.Seed, true
			type outcome struct {
				got    int64
				d      pathDelta
				t0, t1 sim.Time
			}
			var rows []accessRow
			for _, row := range accessRows {
				if row.on == on {
					rows = append(rows, row)
				}
			}
			outcomes := make([]outcome, len(rows))
			res, err := Run(cfg, func(pe *PE) error {
				bw := uint64(pe.Space().BlockWords)
				ls, rs := make([]uint64, len(rows)), make([]uint64, len(rows))
				for i, row := range rows {
					a := AllocArrayMode[int64](pe, int(2*bw), row.mode).Addr()
					ls[i], rs[i] = a, a+bw
					if pe.HomeOf(a) != 0 {
						ls[i], rs[i] = a+bw, a
					}
				}
				pe.Barrier()
				if pe.ID() == 0 {
					for i, row := range rows {
						if row.prep != nil {
							row.prep(pe, ls[i], rs[i])
						}
						pe.Compute(1000) // separates the bracket from prep and neighbours in time
						o := &outcomes[i]
						before := pathCounters(pe)
						o.t0 = pe.Now()
						o.got = row.op(pe, ls[i], rs[i])
						o.t1 = pe.Now()
						o.d = pathCounters(pe).sub(before)
						pe.Compute(1000)
					}
				}
				pe.Barrier()
				return nil
			})
			if err != nil || res.FirstErr() != nil {
				t.Fatal(err, res.FirstErr())
			}
			if rep := check.Check(res.History); !rep.OK() {
				t.Errorf("checker violations:\n%s", rep)
			}
			for i, row := range rows {
				o := outcomes[i]
				if o.got != row.want {
					t.Errorf("%s: result %d, want %d", row.name, o.got, row.want)
				}
				if o.d != row.d {
					t.Errorf("%s: path counters %+v, want %+v", row.name, o.d, row.d)
				}
				if row.ev == nil {
					continue
				}
				var got []evTag
				for _, e := range res.History.Events {
					if e.PE == 0 && e.Inv >= o.t0 && e.Inv <= o.t1 && !e.Failed {
						got = append(got, evTag{e.Kind, gmem.Mode(e.Mode), e.Cached})
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(row.ev) {
					t.Errorf("%s: recorded %v, want %v", row.name, got, row.ev)
				}
			}
		})
	}
}

// TestPanickingFormsKeepErrorType pins the contract runPE's recover relies
// on: a program that panics with a GM error (must over the error forms, as
// GMReadBlock and GMGather do) delivers that typed error to Result.Errs,
// classifiable with errors.As. Scalar, block and vectored reads against a
// killed home must each surface *PeerDownError.
func TestPanickingFormsKeepErrorType(t *testing.T) {
	cfg := simCfg(4)
	cfg.RequestTimeout = 20 * sim.Millisecond
	cfg.RequestRetries = 20
	cfg.PeerLossBudget = 4
	cfg.Kills = []simnet.Kill{{Node: 3, At: 50 * sim.Millisecond}}
	forms := []func(pe *PE, dead uint64){
		func(pe *PE, dead uint64) { mustRead(pe, dead) },
		func(pe *PE, dead uint64) { mustReadBlock(pe, dead, 4) },
		func(pe *PE, dead uint64) { mustGather(pe, []uint64{dead, dead + 1}) },
	}
	res, err := Run(cfg, func(pe *PE) error {
		dead := pe.AllocBlocks(4 * pe.Space().BlockWords)
		for pe.HomeOf(dead) != 3 {
			dead += uint64(pe.Space().BlockWords)
		}
		if pe.ID() == 3 {
			return nil // the victim exits before its station dies
		}
		pe.Compute(1e6)
		for pe.Now() < 60*sim.Millisecond {
			pe.Compute(1e6)
		}
		// Let the failure detector declare the home dead (the Err tier reports
		// it without panicking), then issue the panicking form.
		var down *PeerDownError
		for i := 0; !errors.As(pe.GMWriteErr(dead, 1), &down); i++ {
			if i > 10 {
				return fmt.Errorf("PE %d: home 3 never declared down", pe.ID())
			}
		}
		forms[pe.ID()](pe, dead)
		return fmt.Errorf("PE %d: operation against a dead home succeeded", pe.ID())
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range forms {
		var down *PeerDownError
		if !errors.As(res.Errs[i], &down) || down.Peer != 3 {
			t.Errorf("PE %d: Errs = %v, want a *PeerDownError naming peer 3", i, res.Errs[i])
		}
	}

	// The synchronisation waits raise the same typed errors: a barrier PE 0
	// never reaches, a lock it never releases and an all-reduce whose root
	// never joins each time out as a *TimeoutError, not as a formatted string.
	syncForms := []struct {
		name string
		wait func(pe *PE)
		op   string
	}{
		{"Barrier", func(pe *PE) { pe.Barrier() }, wire.OpBarrierArrive.String()},
		{"Lock", func(pe *PE) { pe.Lock(3) }, wire.OpLockAcquire.String()},
		{"AllReduce", func(pe *PE) { pe.AllReduceSum(1) }, "recv-msg"},
	}
	for _, f := range syncForms {
		cfg := simCfg(2)
		cfg.RequestTimeout = 20 * sim.Millisecond
		res, err := Run(cfg, func(pe *PE) error {
			if pe.ID() == 0 {
				pe.Lock(3)
				return nil
			}
			pe.Compute(1e6) // PE 0 holds the lock by now
			f.wait(pe)
			return fmt.Errorf("%s returned", f.name)
		})
		if err != nil {
			t.Fatal(err)
		}
		var timeout *TimeoutError
		if !errors.As(res.Errs[1], &timeout) || timeout.Op != f.op {
			t.Errorf("%s: Errs[1] = %v, want a *TimeoutError of the %s", f.name, res.Errs[1], f.op)
		}
	}
}

// TestPanickingFormsKeepNamespaceError: a bound PE straying outside its
// namespace gets the typed *NamespaceError from all eight raw-address GM
// forms, and a panic with it (must) carries it typed into Result.Errs.
func TestPanickingFormsKeepNamespaceError(t *testing.T) {
	forms := []struct {
		op   string
		call func(pe *PE, in, out uint64)
	}{
		{"read", func(pe *PE, in, out uint64) { mustRead(pe, out) }},
		{"write", func(pe *PE, in, out uint64) { mustWrite(pe, out, 1) }},
		{"fetch-add", func(pe *PE, in, out uint64) { mustFetchAdd(pe, out, 1) }},
		{"cas", func(pe *PE, in, out uint64) { _, _, err := pe.CASErr(out, 0, 1); must(err) }},
		{"read-block", func(pe *PE, in, out uint64) { mustReadBlock(pe, out-2, 4) }},
		{"write-block", func(pe *PE, in, out uint64) { mustWriteBlock(pe, out-2, make([]int64, 4)) }},
		{"gather", func(pe *PE, in, out uint64) { mustGather(pe, []uint64{in, out}) }},
		{"scatter", func(pe *PE, in, out uint64) { must(pe.GMScatterErr([]uint64{in, out}, []int64{1, 2})) }},
	}
	cfg := simCfg(len(forms))
	res, err := Run(cfg, func(pe *PE) error {
		in := pe.Alloc(64)
		out := pe.Alloc(64)
		pe.ns = gmem.Region{Base: in, Limit: in + 64}
		forms[pe.ID()].call(pe, in, out)
		return fmt.Errorf("PE %d: %s outside the namespace succeeded", pe.ID(), forms[pe.ID()].op)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range forms {
		var ns *NamespaceError
		if !errors.As(res.Errs[i], &ns) || ns.Op != f.op {
			t.Errorf("%s: Errs = %v, want a *NamespaceError for %q", f.op, res.Errs[i], f.op)
		}
	}
	if got := res.Total.NsDenials; got != uint64(len(forms)) {
		t.Errorf("NsDenials = %d, want %d", got, len(forms))
	}
}
