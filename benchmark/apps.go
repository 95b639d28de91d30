package main

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/apps/dct"
	"repro/internal/apps/gauss"
	"repro/internal/apps/knight"
	"repro/internal/core"
	"repro/internal/gmem"
	"repro/internal/trace"
)

// apps_inproc runs the paper's applications at their communication-bound
// sizes on a four-PE in-process cluster configured the way `dserun
// -transport inproc` configures itself on a multi-core host (shard workers,
// one-sided windows and rings on), each repeat a fresh core.Run timed from
// outside and verified. Beside every application runs its plain
// single-threaded version on the same problem: the substrate of this
// workload is the machine itself.

const appsPE = 4

// app is one application of the suite.
type app struct {
	name string
	cfg  core.Config
	seq  func() error            // the sequential run, verified
	par  func(pe *core.PE) error // the SPMD body; PE 0 verifies the result
}

type appsRunner struct {
	apps []app
	smp  []*samples // parallel runs, per app
	sub  []*samples // sequential runs, per app
	c    counters
}

func newAppsRunner() runner {
	r := &appsRunner{}
	for i := 0; i < 4; i++ {
		r.smp = append(r.smp, newSamples(1<<12, 1))
		r.sub = append(r.sub, newSamples(1<<12, 1))
	}
	return r
}

func (r *appsRunner) classes() []string { return []string{"gauss", "gaussfine", "dct", "knight"} }

// Problem sizes: where each application's run time is mostly communication
// (see README.md for what each exercises).
const (
	gaussN          = 240
	gaussFineN      = 256
	gaussFineSweeps = 40
	dctImage        = 256
	dctBlock        = 4
	knightBoard     = 5
	knightJobs      = 1024
	residualLimit   = 1e-6
)

func appsConfig(blockWords int) core.Config {
	return core.Config{NumPE: appsPE, Transport: core.TransportInproc,
		KernelShards: 2, DirectReads: 1, WriteRings: 1, GMBlockWords: blockWords}
}

func (r *appsRunner) start(seed uint64, traced bool) error {
	r.c = counters{extra: map[string]float64{}}

	gp := gauss.Params{N: gaussN, Seed: seed}
	checkGauss := func(res *gauss.Result) error {
		if res.Residual > residualLimit {
			return fmt.Errorf("residual %g > %g", res.Residual, residualLimit)
		}
		return nil
	}
	gaussApp := app{name: "gauss", cfg: appsConfig(256),
		seq: func() error { return checkGauss(gauss.Sequential(gp)) },
		par: func(pe *core.PE) error {
			res, err := gauss.Parallel(pe, gp)
			if err != nil || pe.ID() != 0 {
				return err
			}
			return checkGauss(res)
		}}

	// The fine-grained solver is a block-Jacobi hybrid with a fixed sweep
	// count, so its iterate differs from sequential Gauss-Seidel; it is held
	// to the same residual, and to the bit pattern of its own first run.
	fp := gauss.Params{N: gaussFineN, Seed: seed}
	var fineRef []float64
	fineApp := app{name: "gaussfine", cfg: appsConfig(64),
		seq: func() error { return checkGauss(gauss.Sequential(fp)) },
		par: func(pe *core.PE) error {
			res, err := gauss.ParallelFine(pe, fp, gmem.ModeRelease, gaussFineSweeps)
			if err != nil || pe.ID() != 0 {
				return err
			}
			if fineRef == nil {
				fineRef = res.X
			} else if !slices.Equal(res.X, fineRef) {
				return errors.New("solution differs from the first run's")
			}
			return checkGauss(res)
		}}

	dp := dct.Params{ImageN: dctImage, Block: dctBlock, Rate: 0.5, Seed: seed}
	dctRef, err := dct.Sequential(dp)
	if err != nil {
		return fmt.Errorf("dct reference: %w", err)
	}
	checkDCT := func(res *dct.Result) error {
		if len(res.Coeffs) != len(dctRef.Coeffs) {
			return fmt.Errorf("%d coefficients, want %d", len(res.Coeffs), len(dctRef.Coeffs))
		}
		for i, c := range res.Coeffs {
			if c != dctRef.Coeffs[i] {
				return fmt.Errorf("coefficient %d = %d, sequential run has %d", i, c, dctRef.Coeffs[i])
			}
		}
		return nil
	}
	dctApp := app{name: "dct", cfg: appsConfig(32),
		seq: func() error {
			res, err := dct.Sequential(dp)
			if err != nil {
				return err
			}
			return checkDCT(res)
		},
		par: func(pe *core.PE) error {
			res, err := dct.Parallel(pe, dp)
			if err != nil || pe.ID() != 0 {
				return err
			}
			return checkDCT(res)
		}}

	kp := knight.Params{BoardN: knightBoard, Jobs: knightJobs}
	knightRef, err := knight.Sequential(kp)
	if err != nil {
		return fmt.Errorf("knight reference: %w", err)
	}
	checkKnight := func(res *knight.Result) error {
		if res.Tours != knightRef.Tours || res.Nodes != knightRef.Nodes {
			return fmt.Errorf("tours %d nodes %d, sequential run has %d and %d", res.Tours, res.Nodes, knightRef.Tours, knightRef.Nodes)
		}
		return nil
	}
	knightApp := app{name: "knight", cfg: appsConfig(32),
		seq: func() error {
			res, err := knight.Sequential(kp)
			if err != nil {
				return err
			}
			return checkKnight(res)
		},
		par: func(pe *core.PE) error {
			res, err := knight.Parallel(pe, kp)
			if err != nil || pe.ID() != 0 {
				return err
			}
			return checkKnight(res)
		}}

	r.apps = []app{gaussApp, fineApp, dctApp, knightApp}
	for i := range r.apps {
		a := &r.apps[i]
		a.cfg.Seed = seed
		a.cfg.Tracing = trace.TracingConfig{Enabled: traced}
		if err := a.seq(); err != nil {
			return fmt.Errorf("apps_inproc: %s sequential warm-up: %w", a.name, err)
		}
		if _, err := r.runPar(a); err != nil {
			return fmt.Errorf("apps_inproc: %s warm-up: %w", a.name, err)
		}
	}
	return nil
}

// runPar is one verified parallel run on a fresh cluster.
func (r *appsRunner) runPar(a *app) (*core.Result, error) {
	res, err := core.Run(a.cfg, a.par)
	if err != nil {
		return nil, err
	}
	r.c.total.Add(&res.Total)
	r.c.spans = res.Spans
	r.c.extra["apps."+a.name+"_msgs"] = float64(res.Total.MsgsSent)
	r.c.extra["apps."+a.name+"_remote_ops"] = float64(res.Total.RemoteGM)
	return res, res.FirstErr()
}

// seqShare is the part of an application's slice given to its sequential run.
const seqShare = 0.25

func (r *appsRunner) window(d time.Duration) (window, error) {
	var w window
	w.class = make([]classStat, len(r.apps))
	slice := float64(d) / float64(len(r.apps))
	for i := range r.apps {
		a := &r.apps[i]
		r.smp[i].reset()
		r.sub[i].reset()
		for end := now() + int64(slice*seqShare); ; {
			t0 := now()
			if err := a.seq(); err != nil {
				return w, fmt.Errorf("apps_inproc: %s sequential run: %w", a.name, err)
			}
			t1 := now()
			r.sub[i].add(t1 - t0)
			if t1 >= end {
				break
			}
		}
		var g gauges
		g.begin()
		for end := now() + int64(slice*(1-seqShare)); ; {
			t0 := now()
			_, err := r.runPar(a)
			t1 := now()
			r.smp[i].add(t1 - t0)
			w.units++
			if err != nil {
				w.failed++
				fmt.Fprintf(os.Stderr, "apps_inproc: %s run failed: %v\n", a.name, err)
			}
			if t1 >= end {
				break
			}
		}
		g.end(&w)
		q, sub := r.smp[i].quantiles(0.5, 0.99), r.sub[i].quantiles(0.5)[0]
		w.class[i] = classStat{n: r.smp[i].cnt, meanNs: r.smp[i].mean(), p50Ns: q[0], p99Ns: q[1], subNs: sub,
			roundNs: []float64{q[0]}, roundSubNs: []float64{sub}}
	}
	return w, nil
}

func (r *appsRunner) stop() (*counters, error) {
	c := r.c
	c.onewayMetric = "inproc.oneway_ns"
	t := &c.total
	// What `dserun -transport inproc` gives on a multi-core host: remote
	// scalar reads go through the window, requests are served by shard
	// workers, and the release-mode solver publishes through its
	// write-combining buffer. (No application issues a strong scalar remote
	// write, so the rings stay idle although they are on.)
	if t.DirectGM == 0 || t.ShardedMsgs == 0 || t.WCFlushes == 0 {
		return &c, fmt.Errorf("apps_inproc: path assertion: DirectGM=%d ShardedMsgs=%d WCFlushes=%d, want all three in use",
			t.DirectGM, t.ShardedMsgs, t.WCFlushes)
	}
	if err := reliabilityClean(t); err != nil {
		return &c, fmt.Errorf("apps_inproc: %w", err)
	}
	return &c, nil
}
