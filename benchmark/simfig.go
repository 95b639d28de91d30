package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/apps/dct"
	"repro/internal/apps/gauss"
	"repro/internal/apps/knight"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sim_figures regenerates speed-up-curve points of the paper's figures on
// the simulated transport: the wall-clock a user pays to reproduce the paper.
// sim, ethernet, simnet and platform do all the work; no real transport
// runs. Virtual time, message counts and collisions are exact, so every pass
// must reproduce the first pass's bit for bit.

var simProcs = []int{1, 2, 4, 6, 8, 12}

// simFamily is one curve: an application at one size, run at every
// processor count of simProcs.
type simFamily struct {
	name       string
	blockWords int
	body       func(seed uint64) func(pe *core.PE) error
}

var simFamilies = []simFamily{
	{"gauss", 256, func(seed uint64) func(pe *core.PE) error { // Fig 5, N=360
		return func(pe *core.PE) error {
			res, err := gauss.Parallel(pe, gauss.Params{N: 360, Seed: seed})
			if err == nil && res.Residual > residualLimit {
				err = fmt.Errorf("residual %g > %g", res.Residual, residualLimit)
			}
			return err
		}
	}},
	{"dct4", 32, func(seed uint64) func(pe *core.PE) error { // Fig 11, 64/4
		return func(pe *core.PE) error {
			_, err := dct.Parallel(pe, dct.Params{ImageN: 64, Block: 4, Rate: 0.5, Seed: seed})
			return err
		}
	}},
	{"dct16", 32, func(seed uint64) func(pe *core.PE) error { // Fig 11, 64/16
		return func(pe *core.PE) error {
			_, err := dct.Parallel(pe, dct.Params{ImageN: 64, Block: 16, Rate: 0.5, Seed: seed})
			return err
		}
	}},
	{"knight", 32, func(seed uint64) func(pe *core.PE) error { // Fig 19, 16 jobs
		return func(pe *core.PE) error {
			_, err := knight.Parallel(pe, knight.Params{BoardN: 5, Jobs: 16})
			return err
		}
	}},
}

// simPoint is what one simulated run must reproduce exactly.
type simPoint struct {
	virt       sim.Duration
	msgs       uint64
	collisions uint64
}

type simRunner struct {
	seed   uint64
	traced bool
	ref    [][]simPoint // [family][proc index], from the set-up pass
	passNs int64        // wall time of the set-up pass
	smp    []*samples   // wall time of one family's point set, per pass
	c      counters
	// The calibration: round trips between two goroutines over Go channels,
	// which is what a switch between two sim processes is made of.
	echo    *chanEcho
	handoff *samples
}

func newSimRunner() runner {
	r := &simRunner{handoff: newSamples(1<<20, 1)}
	for range simFamilies {
		r.smp = append(r.smp, newSamples(1<<8, 1))
	}
	return r
}

func (r *simRunner) classes() []string {
	names := make([]string, len(simFamilies))
	for i, f := range simFamilies {
		names[i] = f.name
	}
	return names
}

func (r *simRunner) start(seed uint64, traced bool) error {
	r.seed, r.traced, r.ref = seed, traced, nil
	r.c = counters{extra: map[string]float64{}}
	r.echo = newChanEcho()
	var w window
	t0 := now()
	ref, err := r.pass(&w)
	if err != nil {
		r.echo.stop()
		return err
	}
	r.ref, r.passNs = ref, now()-t0
	return nil
}

// pass runs every family at every processor count once, adds each family's
// wall time to its samples and returns what each point produced. Points that
// fail, or differ from the reference pass, are counted in w.failed.
func (r *simRunner) pass(w *window) ([][]simPoint, error) {
	got := make([][]simPoint, len(simFamilies))
	for fi, f := range simFamilies {
		t0 := now()
		for pi, p := range simProcs {
			res, err := core.Run(core.Config{
				NumPE: p, Transport: core.TransportSim, Platform: platform.SparcSunOS, Seed: r.seed,
				KernelShards: 1, DirectReads: -1, WriteRings: -1, GMBlockWords: f.blockWords,
				Tracing: trace.TracingConfig{Enabled: r.traced},
			}, f.body(r.seed))
			if err != nil {
				return nil, fmt.Errorf("sim_figures: %s p=%d: %w", f.name, p, err)
			}
			pt := simPoint{virt: res.Elapsed, msgs: res.Total.MsgsSent, collisions: res.Bus.Collisions}
			got[fi] = append(got[fi], pt)
			w.units++
			if err := res.FirstErr(); err != nil {
				w.failed++
				fmt.Fprintf(os.Stderr, "sim_figures: %s p=%d failed: %v\n", f.name, p, err)
			} else if r.ref != nil && pt != r.ref[fi][pi] {
				w.failed++
				fmt.Fprintf(os.Stderr, "sim_figures: %s p=%d not deterministic: %+v, first pass had %+v\n", f.name, p, pt, r.ref[fi][pi])
			}
			r.c.total.Add(&res.Total)
			r.c.spans = res.Spans
		}
		r.smp[fi].add(now() - t0)
	}
	return got, nil
}

// simCalibrationShare is the part of a window given to the calibration.
const simCalibrationShare = 0.15

func (r *simRunner) window(d time.Duration) (window, error) {
	var w window
	for _, s := range r.smp {
		s.reset()
	}
	r.handoff.reset()
	for end := now() + int64(float64(d)*simCalibrationShare); ; {
		t0 := now()
		if r.echo.roundTrip(t0) != t0 {
			return w, errors.New("sim_figures: calibration echoed a wrong value")
		}
		t1 := now()
		r.handoff.add(t1 - t0)
		if t1 >= end {
			break
		}
	}
	tripNs := r.handoff.quantiles(0.5)[0]

	var g gauges
	g.begin()
	for end := now() + int64(float64(d)*(1-simCalibrationShare)); ; {
		if _, err := r.pass(&w); err != nil {
			return w, err
		}
		// A pass is long against a window: stop where the window's length is
		// missed by least, not at the first pass to end beyond it.
		if now()+r.passNs/2 >= end {
			break
		}
	}
	g.end(&w)

	w.class = make([]classStat, len(simFamilies))
	for fi := range simFamilies {
		// The substrate of a family's point set is one bare round trip
		// between goroutines per simulated message of the set.
		var msgs uint64
		for _, pt := range r.ref[fi] {
			msgs += pt.msgs
		}
		q, sub := r.smp[fi].quantiles(0.5, 0.99), tripNs*float64(msgs)
		w.class[fi] = classStat{n: r.smp[fi].cnt, meanNs: r.smp[fi].mean(), p50Ns: q[0], p99Ns: q[1], subNs: sub,
			roundNs: []float64{q[0]}, roundSubNs: []float64{sub}}
	}
	return w, nil
}

func (r *simRunner) stop() (*counters, error) {
	r.echo.stop()
	c := r.c
	for fi, f := range simFamilies {
		var virt sim.Duration
		var msgs, coll uint64
		for _, pt := range r.ref[fi] {
			virt += pt.virt
			msgs += pt.msgs
			coll += pt.collisions
		}
		c.extra["sim.virt_elapsed_us."+f.name] = float64(virt) / 1e3
		c.extra["sim.msgs."+f.name] = float64(msgs)
		c.extra["ethernet.collisions."+f.name] = float64(coll)
	}
	t := &c.total
	if t.DirectGM != 0 || t.RingGM != 0 {
		return &c, fmt.Errorf("sim_figures: path assertion: one-sided path taken under simulation: DirectGM=%d RingGM=%d", t.DirectGM, t.RingGM)
	}
	if err := reliabilityClean(t); err != nil {
		return &c, fmt.Errorf("sim_figures: %w", err)
	}
	return &c, nil
}
