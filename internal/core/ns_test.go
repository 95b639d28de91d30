package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/gmem"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Namespace-isolation enforcement tests (DESIGN.md §15): a PE bound to a
// job namespace must not be able to touch memory outside it on any path —
// the two-sided message path (kernel-side typed NACK), and every access in
// place (PE-side guard, plus the home's binding, which the admission rule of
// the path in place consults as defense in depth against a forged requester).

// TestNamespaceKernelEnforcement exercises the kernel-side check alone: the
// scheduler installs PE 1's binding at every kernel, but PE 1 itself stays
// unbound PE-side — the "forged requester" a compromised PE guard would
// produce. Every out-of-region request must come back as the typed
// *NamespaceError carrying the bound region, and be counted as a kernel
// violation. Windows and rings are forced off so every access takes the
// message path.
func TestNamespaceKernelEnforcement(t *testing.T) {
	const bw = 32
	// PE 1's namespace: blocks 8..12, words [256, 384).
	region := gmem.Region{Base: 8 * bw, Limit: 12 * bw}
	outside := uint64(2 * bw) // block 2, homed at kernel 0: remote for PE 1
	job := JobGroup{Name: "forged", Members: []int{1}, TagBase: JobSlotBase(0), Region: region}
	prog := func(pe *PE) error {
		if pe.ID() == 0 {
			if err := pe.OpenJob(job); err != nil {
				return err
			}
			pe.Barrier()
			pe.Barrier()
			_, err := pe.CloseJob(job)
			return err
		}
		pe.Barrier()
		check := func(op string, err error) {
			var nsErr *NamespaceError
			if !errors.As(err, &nsErr) {
				t.Errorf("%s outside namespace: got %v, want *NamespaceError", op, err)
				return
			}
			if nsErr.Base != region.Base || nsErr.Limit != region.Limit {
				t.Errorf("%s: error region [%d,%d), want [%d,%d)",
					op, nsErr.Base, nsErr.Limit, region.Base, region.Limit)
			}
		}
		_, err := pe.GMReadErr(outside)
		check("read", err)
		check("write", pe.GMWriteErr(outside, 7))
		_, err = pe.FetchAddErr(outside, 1)
		check("fetch-add", err)
		_, _, err = pe.CASErr(outside, 0, 1)
		check("cas", err)
		// Inside the region every operation works.
		if err := pe.GMWriteErr(region.Base, 42); err != nil {
			return err
		}
		if v, err := pe.GMReadErr(region.Base); err != nil || v != 42 {
			t.Errorf("in-region read = %d, %v, want 42", v, err)
		}
		pe.Barrier()
		return nil
	}
	res, err := Run(Config{
		NumPE: 2, Transport: TransportInproc,
		KernelShards: 1, DirectReads: -1,
	}, prog)
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
	if res.Total.NsViolations < 4 {
		t.Errorf("kernel NsViolations = %d, want >= 4", res.Total.NsViolations)
	}
	if res.Total.NsDenials != 0 {
		t.Errorf("PE-side NsDenials = %d, want 0 (PE guard was never installed)", res.Total.NsDenials)
	}
}

// TestNamespacePEGuardOneSidedPaths exercises the PE-side guard with the
// one-sided fast paths on: a window read or a store in place of memory
// outside the bound region must be refused with the typed error before
// anything is read from the window or stored, and counted as a denial.
// In-region traffic keeps flowing through the fast paths.
func TestNamespacePEGuardOneSidedPaths(t *testing.T) {
	const bw = 32
	region := gmem.Region{Base: 8 * bw, Limit: 16 * bw}
	outside := uint64(2 * bw) // homed at kernel 0: remote, one-sided territory
	prog := func(pe *PE) error {
		if pe.ID() != 1 {
			pe.Barrier()
			pe.Barrier()
			return nil
		}
		pe.Barrier()
		pe.ns = region
		var nsErr *NamespaceError
		if _, err := pe.GMReadErr(outside); !errors.As(err, &nsErr) {
			t.Errorf("window read outside namespace: got %v, want *NamespaceError", err)
		}
		if err := pe.GMWriteErr(outside, 7); !errors.As(err, &nsErr) {
			t.Errorf("one-sided write outside namespace: got %v, want *NamespaceError", err)
		}
		if _, err := pe.GMReadBlockErr(outside, 4); !errors.As(err, &nsErr) {
			t.Errorf("block read outside namespace: got %v, want *NamespaceError", err)
		}
		if _, err := pe.GMGatherErr([]uint64{region.Base, outside}); !errors.As(err, &nsErr) {
			t.Errorf("gather outside namespace: got %v, want *NamespaceError", err)
		}
		// In-region traffic still flows through the one-sided paths.
		for i := uint64(0); i < 8; i++ {
			mustWrite(pe, region.Base+i, int64(i+1))
		}
		for i := uint64(0); i < 8; i++ {
			if v := mustRead(pe, region.Base+i); v != int64(i+1) {
				t.Errorf("in-region word %d = %d", i, v)
			}
		}
		pe.ns = gmem.Region{}
		pe.Barrier()
		return nil
	}
	res, err := Run(Config{
		NumPE: 2, Transport: TransportInproc,
		KernelShards: 2, DirectReads: 1,
	}, prog)
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
	if res.Total.NsDenials < 4 {
		t.Errorf("PE-side NsDenials = %d, want >= 4", res.Total.NsDenials)
	}
	if res.Total.NsViolations != 0 {
		t.Errorf("kernel NsViolations = %d, want 0 (nothing escaped the PE guard)", res.Total.NsViolations)
	}
	if res.Total.RingGM == 0 {
		t.Error("no stores in place: the one-sided write path never engaged")
	}
}

// TestNamespaceHomeRefusesInPlace is the home's check on an access in place:
// PE 1's binding is installed at the word's home, but PE 1 itself stays
// unbound PE-side — the forged requester a bypassed PE guard would produce —
// and reads or mutates a word of that home outside its region, or a range
// starting there, at a co-located peer (kernel 0) or at its own kernel. The
// admission rule must consult the home's binding and leave the access to the
// message path, whose OpNsNack surfaces as the typed error: the words keep
// their values, the home counts the violation, and nothing is applied in
// place. (A window read used to skip the binding and return the other job's
// word, and an own-home access consulted none; refusing silently, and
// reporting success for an access that never happened, is the other failure
// this pins.)
func TestNamespaceHomeRefusesInPlace(t *testing.T) {
	const bw, before = 32, 42
	region := gmem.Region{Base: 8 * bw, Limit: 12 * bw}
	ops := []struct {
		name string
		op   func(pe *PE, addr uint64) error
	}{
		{"read", func(pe *PE, addr uint64) error {
			v, err := pe.GMReadErr(addr)
			if err == nil {
				return fmt.Errorf("read %d", v)
			}
			return err
		}},
		{"write", func(pe *PE, addr uint64) error { return pe.GMWriteErr(addr, 99) }},
		{"fetch-add", func(pe *PE, addr uint64) error {
			_, err := pe.FetchAddErr(addr, 1)
			return err
		}},
		{"cas", func(pe *PE, addr uint64) error {
			_, _, err := pe.CASErr(addr, before, 99)
			return err
		}},
		{"block-read", func(pe *PE, addr uint64) error {
			v, err := pe.GMReadBlockErr(addr, 2)
			if err == nil {
				return fmt.Errorf("read %v", v)
			}
			return err
		}},
		{"block-write", func(pe *PE, addr uint64) error { return pe.GMWriteBlockErr(addr, []int64{99, 99}) }},
		{"gather", func(pe *PE, addr uint64) error {
			v, err := pe.GMGatherErr([]uint64{addr + 1, addr})
			if err == nil {
				return fmt.Errorf("read %v", v)
			}
			return err
		}},
		{"scatter", func(pe *PE, addr uint64) error { return pe.GMScatterErr([]uint64{addr + 1, addr}, []int64{99, 99}) }},
	}
	for _, home := range []int{0, 1} {
		for _, o := range ops {
			name := o.name + "/peer"
			if home == 1 {
				name = o.name + "/own-home"
			}
			t.Run(name, func(t *testing.T) {
				res, err := Run(Config{
					NumPE: 2, Transport: TransportInproc, GMBlockWords: bw,
					KernelShards: 2, DirectReads: 1,
				}, func(pe *PE) error {
					outside := homedAt(pe, home, 1)[0]
					if pe.ID() == home {
						pe.k.seg.WriteWord(outside, before)
						pe.k.ns.Bind(1, region)
					}
					pe.Barrier() // binding installed
					if pe.ID() == 1 {
						var nsErr *NamespaceError
						if err := o.op(pe, outside); !errors.As(err, &nsErr) || nsErr.Base != region.Base || nsErr.Limit != region.Limit {
							t.Errorf("%s outside the namespace: %v, want *NamespaceError for [%d,%d)", o.name, err, region.Base, region.Limit)
						}
					}
					pe.Barrier()
					if pe.ID() == home {
						if v, next := pe.k.seg.ReadWord(outside), pe.k.seg.ReadWord(outside+1); v != before || next != 0 {
							t.Errorf("forged %s landed: words = %d, %d, want %d, 0", o.name, v, next, before)
						}
						pe.k.ns.Unbind(1)
					}
					return nil
				})
				if err != nil || res.FirstErr() != nil {
					t.Fatal(err, res.FirstErr())
				}
				if res.Total.NsViolations < 1 {
					t.Errorf("kernel NsViolations = %d, want >= 1", res.Total.NsViolations)
				}
				if got := res.Total.DirectGM + res.Total.RingGM; got != 0 {
					t.Errorf("DirectGM + RingGM = %d, want 0: the refused access is no access in place", got)
				}
			})
		}
	}
}

// TestNamespaceHomeRefusesRanges is the kernel-side check for the range
// operations: PE 0's region is bound at the home kernel only, so nothing
// PE-side stands between a stray block or vector and the home's OpNsNack. A
// range transfer used to take that answer for success — a write group marked
// done, a read group landing stale scratch in the caller's buffer. Through the
// one request engine it is the scalar operations' *NamespaceError: nothing
// written, nothing recorded as completed. Lone runs travel as OpRead/OpWrite,
// the two-block vectors as OpReadV/OpWriteV.
func TestNamespaceHomeRefusesRanges(t *testing.T) {
	const bw = 32
	region := gmem.Region{Base: 8 * bw, Limit: 12 * bw}
	outside := uint64(1 * bw) // blocks 1 and 3 are homed at kernel 1, outside the region
	vec := []uint64{outside, outside + 2*bw}
	for _, tr := range []TransportKind{TransportInproc, TransportSim} {
		t.Run(string(tr), func(t *testing.T) {
			cfg := simCfg(2)
			cfg.Transport, cfg.GMBlockWords, cfg.RecordHistory = tr, bw, true
			cfg.KernelShards, cfg.DirectReads = 1, -1
			res, err := Run(cfg, func(pe *PE) error {
				if pe.ID() == 1 {
					pe.k.seg.Write(outside, []int64{11, 12, 13, 14})
					pe.k.seg.Write(vec[1], []int64{15})
					pe.k.ns.Bind(0, region)
					pe.Barrier()
					pe.Barrier()
					for i, want := range []int64{11, 12, 13, 14} {
						if v := pe.k.seg.ReadWord(outside + uint64(i)); v != want {
							t.Errorf("word %d outside the namespace = %d, want %d", i, v, want)
						}
					}
					if v := pe.k.seg.ReadWord(vec[1]); v != 15 {
						t.Errorf("scattered word outside the namespace = %d, want 15", v)
					}
					return nil
				}
				pe.Barrier()
				if h := pe.HomeOf(outside); h != 1 {
					t.Fatalf("word %d is homed at %d", outside, h)
				}
				check := func(op string, err error) {
					var nsErr *NamespaceError
					if !errors.As(err, &nsErr) || nsErr.Base != region.Base || nsErr.Limit != region.Limit {
						t.Errorf("%s outside the namespace: %v, want *NamespaceError for [%d,%d)", op, err, region.Base, region.Limit)
					}
				}
				_, err := pe.GMReadBlockErr(outside, 4)
				check("read-block", err)
				check("write-block", pe.GMWriteBlockErr(outside, []int64{1, 2, 3, 4}))
				_, err = pe.GMGatherErr(vec)
				check("gather", err)
				check("scatter", pe.GMScatterErr(vec, []int64{5, 6}))
				pe.Barrier()
				return nil
			})
			if err != nil || res.FirstErr() != nil {
				t.Fatal(err, res.FirstErr())
			}
			if res.Total.NsViolations != 4 || res.Total.NsDenials != 0 {
				t.Errorf("NsViolations = %d, NsDenials = %d, want 4 refusals at the home and none PE-side",
					res.Total.NsViolations, res.Total.NsDenials)
			}
			for _, e := range res.History.Events {
				if e.PE == 0 && !e.Failed && (e.Kind == check.KindRead || e.Kind == check.KindWrite) {
					t.Errorf("completed event of a refused range operation: %v", e)
				}
			}
		})
	}
}

// namespaceProgram drives all eight GM entry points from PEs bound to a
// namespace (the guard BeginJob installs for a scheduled job): in-region
// traffic over the one-sided and message paths, plus one stray per entry
// point that the PE-side guard must refuse before anything is recorded or
// sent.
func namespaceProgram(pe *PE) error {
	const words = 128
	data := pe.Alloc(words)
	outside := pe.Alloc(words)
	pe.Barrier()
	pe.ns = gmem.Region{Base: data, Limit: data + words}
	rng := sim.NewRand(77 ^ uint64(pe.ID()+1)*0x9e3779b97f4a7c15)
	uniq := int64(pe.ID()+1) << 40
	next := func() int64 { uniq++; return uniq }
	for i := 0; i < 120; i++ {
		a := data + uint64(rng.Intn(words-16))
		var err error
		switch i % 8 {
		case 0:
			_, err = pe.GMReadErr(a)
		case 1:
			err = pe.GMWriteErr(a, next())
		case 2:
			_, err = pe.FetchAddErr(data+words-1-uint64(rng.Intn(4)), 1)
		case 3:
			_, _, err = pe.CASErr(data+words-8+uint64(rng.Intn(4)), 0, next())
		case 4:
			_, err = pe.GMReadBlockErr(a, 2+rng.Intn(14))
		case 5:
			ws := make([]int64, 2+rng.Intn(14))
			for j := range ws {
				ws[j] = next()
			}
			err = pe.GMWriteBlockErr(a, ws)
		case 6:
			_, err = pe.GMGatherErr([]uint64{a, data + uint64(rng.Intn(words-16)), a + 9})
		case 7:
			err = pe.GMScatterErr([]uint64{a, data + uint64(rng.Intn(words-16))}, []int64{next(), next()})
		}
		if err != nil {
			return err
		}
		if i%40 == 39 {
			pe.Barrier()
		}
	}
	_, rerr := pe.GMReadErr(outside)
	_, faerr := pe.FetchAddErr(outside, 1)
	_, _, caserr := pe.CASErr(outside, 0, 1)
	errOf := func(_ []int64, err error) error { return err }
	strays := []struct {
		what string
		err  error
	}{
		{"read", rerr},
		{"write", pe.GMWriteErr(outside, 1)},
		{"fetch-add", faerr},
		{"cas", caserr},
		{"read-block", errOf(pe.GMReadBlockErr(data+words-2, 4))},
		{"write-block", pe.GMWriteBlockErr(data+words-2, make([]int64, 4))},
		{"gather", errOf(pe.GMGatherErr([]uint64{data, outside}))},
		{"scatter", pe.GMScatterErr([]uint64{data, outside}, []int64{1, 2})},
	}
	for _, s := range strays {
		var nsErr *NamespaceError
		if !errors.As(s.err, &nsErr) {
			return fmt.Errorf("PE %d: stray %s: got %v, want *NamespaceError", pe.ID(), s.what, s.err)
		}
	}
	pe.ns = gmem.Region{}
	pe.Barrier()
	return nil
}

// TestNamespaceGoldenPrograms pins the access ladder's branches for a PE
// bound to a namespace as history digests, like check/stress's
// TestLadderGoldenPrograms (where these rows were captured), over the message
// path, the one-sided paths and the legacy organisation's per-call IPC
// charge.
func TestNamespaceGoldenPrograms(t *testing.T) {
	for _, g := range []struct {
		name   string
		direct int
		legacy bool // the old two-process organisation's per-call IPC charge
		want   string
	}{
		{"ns-message", -1, false, "5968ed679ff96c1a240c17665ab8e932bdb38b097672aed66cec4e4bbe9e5d64"},
		{"ns-onesided", 1, false, "d5b17b894ce8bb0d4b852dffb65d5bf2e2c8fbe97fc93c4c36ac519b63032c82"},
		{"ns-legacy", -1, true, "8729cecea53a0a6c4816972717353f457835ca677c1ea903074191153d782131"},
	} {
		res, err := Run(Config{
			NumPE: 4, Platform: platform.SparcSunOS, Seed: 77, RecordHistory: true,
			DirectReads: g.direct, Legacy: g.legacy,
			LeaseDuration: 200 * sim.Microsecond,
		}, namespaceProgram)
		if err != nil {
			t.Fatalf("%s: run: %v", g.name, err)
		}
		if err := res.FirstErr(); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := res.Total.NsDenials; got != 4*8 {
			t.Errorf("%s: NsDenials = %d, want %d", g.name, got, 4*8)
		}
		if rep := check.Check(res.History); !rep.OK() {
			t.Fatalf("%s: checker violations:\n%s", g.name, rep)
		}
		if got := res.History.Digest(); got != g.want {
			t.Errorf("%s: history digest drifted (%d events):\n got %s\nwant %s", g.name, res.History.Len(), got, g.want)
		}
	}
}
