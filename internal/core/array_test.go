package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/check"
)

// TestArrayRejectsOutOfRange: an access through an Array that reaches past
// either end — where a raw address would land in the neighbouring allocation
// — is refused with *IndexError before the pipeline runs. Nothing is sent,
// nothing is recorded, and neither the array nor its neighbour changes, on
// the message path and on the paths in place.
func TestArrayRejectsOutOfRange(t *testing.T) {
	for name, cfg := range map[string]Config{
		"simnet-message": {NumPE: 2, Platform: simCfg(2).Platform, Seed: 1, DirectReads: -1},
		"inproc":         {NumPE: 2, Transport: TransportInproc},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.RecordHistory = true
			res, err := Run(cfg, func(pe *PE) error {
				bw := pe.Space().BlockWords
				a := AllocArray[int64](pe, bw)
				b := AllocArray[int64](pe, bw) // a's neighbour: a.Addr()+bw is b[0]
				c := AllocCounter(pe, 1)
				floats := AllocArray[float64](pe, 1)
				pe.Barrier()
				if pe.ID() != 0 {
					pe.Barrier()
					return nil
				}
				must(b.Store(0, 5))
				sent := pe.k.Stats().MsgsSent
				errOf := func(_ any, err error) error { return err }
				refused := []struct {
					err               error
					op                string
					index, count, len int
				}{
					{a.Store(bw, 7), "store", bw, 1, bw},
					{a.Store(-1, 7), "store", -1, 1, bw},
					{errOf(a.Load(bw)), "load", bw, 1, bw},
					{errOf(floats.Load(1)), "load", 1, 1, 1},
					{a.LoadRange(bw-1, make([]int64, 2)), "load-range", bw - 1, 2, bw},
					{a.StoreRange(1, make([]int64, bw)), "store-range", 1, bw, bw},
					{errOf(c.FetchAdd(1, 1)), "fetch-add", 1, 1, 1},
				}
				for _, r := range refused {
					var ie *IndexError
					if !errors.As(r.err, &ie) || ie.Op != r.op || ie.Index != r.index || ie.Count != r.count || ie.Len != r.len {
						t.Errorf("%s at %d: got %v, want an *IndexError", r.op, r.index, r.err)
					}
				}
				if d := pe.k.Stats().MsgsSent - sent; d != 0 {
					t.Errorf("refused accesses sent %d messages", d)
				}
				if v, err := b.Load(0); v != 5 || err != nil {
					t.Errorf("neighbour b[0] = %d (%v), want 5", v, err)
				}
				if v, err := a.Load(bw - 1); v != 0 || err != nil {
					t.Errorf("a[%d] = %d (%v), want 0", bw-1, v, err)
				}
				pe.Barrier()
				return nil
			})
			if err != nil || res.FirstErr() != nil {
				t.Fatal(err, res.FirstErr())
			}
			// PE 0's recorded GM operations are exactly its three that passed
			// the bounds check: b.Store(0), b.Load(0), a.Load(bw-1).
			var gm []string
			for _, e := range res.History.Events {
				if e.PE == 0 && e.Kind <= check.KindCAS {
					gm = append(gm, e.String())
				}
			}
			if len(gm) != 3 {
				t.Errorf("PE 0 recorded %d GM events, want 3: %v", len(gm), gm)
			}
		})
	}
}

// TestArrayAllocationFree: in a steady state an Array[int64]'s Load, Store
// and LoadRange allocate nothing on inproc, for an element homed at the
// caller's kernel and for one homed at the peer, and a float64 LoadRange
// (the same words, viewed without a copy) allocates nothing either.
// AllocsPerRun truncates its average, which absorbs incidental runtime noise.
func TestArrayAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse")
	}
	res, err := Run(Config{NumPE: 2, Transport: TransportInproc}, func(pe *PE) error {
		bw := pe.Space().BlockWords
		a := AllocArray[int64](pe, 2*bw) // one block homed at each kernel
		fs := AllocArray[float64](pe, 2*bw)
		pe.Barrier()
		if pe.ID() == 0 {
			dst, fdst := make([]int64, 2*bw), make([]float64, 2*bw)
			for _, i := range []int{0, bw} {
				cases := []struct {
					name string
					fn   func()
				}{
					{"Load", func() { _, _ = a.Load(i) }},
					{"Store", func() { _ = a.Store(i, 42) }},
					{"LoadRange", func() { _ = a.LoadRange(0, dst) }},
					{"float LoadRange", func() { _ = fs.LoadRange(0, fdst) }},
				}
				for _, c := range cases {
					if n := testing.AllocsPerRun(1000, c.fn); n > 0 {
						t.Errorf("%s of element %d (home %d) allocates %v/op, want 0", c.name, i, pe.HomeOf(a.Addr()+uint64(i)), n)
					}
				}
			}
		}
		pe.Barrier()
		return nil
	})
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
}

// TestArrayFloatBitExact: an Array[float64] views words through unsafe, so a
// float's bits must reach the home and come back untouched — NaN payloads
// (quiet and signalling, either sign), −0, ±Inf, the smallest subnormal and
// the largest finite value — through Store/Load and StoreRange/LoadRange, at
// the caller's own kernel and at the peer, on the simulated message path and
// on inproc's paths in place.
func TestArrayFloatBitExact(t *testing.T) {
	bits := []uint64{
		0x7ff8dead0000beef, // quiet NaN, non-default payload
		0xfff8000000000001, // quiet NaN, sign and low payload bit
		0x7ff400000000c0de, // signalling NaN
		0x7ff0000000000001, // signalling NaN, lowest payload
		0x8000000000000000, // −0
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // −Inf
		0x0000000000000001, // smallest subnormal
		0x7fefffffffffffff, // math.MaxFloat64
	}
	vals := make([]float64, len(bits))
	for i, b := range bits {
		vals[i] = math.Float64frombits(b)
	}
	for _, tr := range []TransportKind{TransportSim, TransportInproc} {
		t.Run(string(tr), func(t *testing.T) {
			cfg := simCfg(2)
			cfg.Transport = tr
			res, err := Run(cfg, func(pe *PE) error {
				bw, n := pe.Space().BlockWords, len(vals)
				a := AllocArray[float64](pe, 2*bw) // block 0 homed at kernel 0, block 1 at kernel 1
				if pe.ID() == 0 {
					for _, off := range []int{0, bw} {
						for i, v := range vals {
							must(a.Store(off+i, v))
						}
						must(a.StoreRange(off+n, vals))
					}
				}
				pe.Barrier()
				got := make([]float64, n)
				for _, off := range []int{0, n, bw, bw + n} {
					for i := range vals {
						v, err := a.Load(off + i)
						must(err)
						if math.Float64bits(v) != bits[i] {
							t.Errorf("PE %d: Load(%d) = %#x, want %#x", pe.ID(), off+i, math.Float64bits(v), bits[i])
						}
					}
					must(a.LoadRange(off, got))
					for i, v := range got {
						if math.Float64bits(v) != bits[i] {
							t.Errorf("PE %d: LoadRange(%d)[%d] = %#x, want %#x", pe.ID(), off, i, math.Float64bits(v), bits[i])
						}
					}
				}
				pe.Barrier()
				return nil
			})
			if err != nil || res.FirstErr() != nil {
				t.Fatal(err, res.FirstErr())
			}
		})
	}
}
