// Command dserun executes one parallel application on a DSE cluster and
// prints its result together with the runtime's statistics breakdown.
//
// Usage examples:
//
//	dserun -app gauss -platform sunos -p 6 -n 600
//	dserun -app dct -platform linux -p 4 -block 16
//	dserun -app othello -platform aix -p 8 -depth 6
//	dserun -app knight -p 6 -jobs 16
//	dserun -app gauss -transport tcp -p 4 -n 120   # real loopback sockets
//	dserun -app gauss -p 4 -recover -kill 2@200ms  # survive a mid-run PE death
//	dserun -app dct -p 4 -trace run.json           # Chrome trace_event spans
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps/dct"
	"repro/internal/apps/gauss"
	"repro/internal/apps/knight"
	"repro/internal/apps/othello"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport/simnet"
)

func main() {
	var (
		app       = flag.String("app", "gauss", "application: gauss, dct, othello, knight")
		plName    = flag.String("platform", "sunos", "platform: sunos, aix, linux")
		transport = flag.String("transport", "simnet", "transport: simnet, inproc, tcp")
		pes       = flag.Int("p", 4, "number of processors (DSE kernels)")
		seed      = flag.Uint64("seed", 1, "simulation / workload seed")
		tree      = flag.Bool("tree-barrier", false, "use the tree barrier instead of the central one")
		switched  = flag.Bool("switched", false, "switched Ethernet instead of the shared bus")
		legacy    = flag.Bool("legacy", false, "model the old two-process DSE organisation")
		traceFile = flag.String("trace", "", "trace the run's spans and write them to this file as Chrome trace_event JSON")
		blockW    = flag.Int("gm-block", 0, "DSM block size in words (0 = default)")
		recoverF  = flag.Bool("recover", false, "run under the checkpoint/restart recovery coordinator (survives -kill)")
		restarts  = flag.Int("restarts", 1, "recovery budget: maximum cluster restarts under -recover")
		ckptDir   = flag.String("ckpt-dir", "", "snapshot store directory for -recover (default: a fresh temp dir)")
		killSpec  = flag.String("kill", "", "fault schedule: kill one PE mid-run, as pe@time (e.g. 2@200ms; simnet only)")

		n     = flag.Int("n", 300, "gauss: system dimension")
		image = flag.Int("image", 256, "dct: image edge")
		block = flag.Int("block", 8, "dct: block edge")
		rate  = flag.Float64("rate", 0.5, "dct: compression rate")
		depth = flag.Int("depth", 5, "othello: search depth")
		jobs  = flag.Int("jobs", 16, "knight: job count")
		board = flag.Int("board", 5, "knight: board edge")
	)
	flag.Parse()

	pl, ok := platform.ByName(*plName)
	if !ok {
		fatalf("unknown platform %q (sunos, aix, linux)", *plName)
	}
	cfg := core.Config{
		NumPE:        *pes,
		Platform:     pl,
		Transport:    core.TransportKind(*transport),
		Seed:         *seed,
		Switched:     *switched,
		Legacy:       *legacy,
		GMBlockWords: *blockW,
	}
	if *tree {
		cfg.Barrier = core.BarrierTree
	}
	if *traceFile != "" {
		cfg.Tracing = trace.TracingConfig{Enabled: true, RingSize: 1 << 16}
	}
	if *killSpec != "" {
		if cfg.Transport != core.TransportSim {
			fatalf("-kill needs the simulated transport (scheduled station failures are a simnet facility)")
		}
		victim, at, err := parseKill(*killSpec, *pes)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Kills = []simnet.Kill{{Node: victim, At: at}}
	}
	if *recoverF {
		dir := *ckptDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "dse-ckpt-")
			if err != nil {
				fatalf("creating snapshot dir: %v", err)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		store, err := ckpt.OpenDir(dir)
		if err != nil {
			fatalf("opening snapshot store: %v", err)
		}
		cfg.Ckpt = store
	}

	var describe func()
	var program core.Program
	switch *app {
	case "gauss":
		if cfg.GMBlockWords == 0 {
			cfg.GMBlockWords = 256
		}
		p := gauss.Params{N: *n, Seed: *seed}
		var out *gauss.Result
		program = func(pe *core.PE) error {
			r, err := gauss.Parallel(pe, p)
			if err == nil && pe.ID() == 0 {
				out = r
			}
			return err
		}
		describe = func() {
			fmt.Printf("gauss: N=%d sweeps=%d residual=%.3g elapsed=%v\n",
				p.N, out.Sweeps, out.Residual, out.Elapsed)
		}
	case "dct":
		p := dct.Params{ImageN: *image, Block: *block, Rate: *rate, Seed: *seed}
		var out *dct.Result
		program = func(pe *core.PE) error {
			r, err := dct.Parallel(pe, p)
			if err == nil && pe.ID() == 0 {
				out = r
			}
			return err
		}
		describe = func() {
			recon := dct.Reconstruct(p, out.Coeffs)
			psnr := dct.PSNR(dct.BuildImage(p), recon)
			fmt.Printf("dct: image=%dx%d block=%d rate=%.0f%% blocks=%d psnr=%.1fdB elapsed=%v\n",
				p.ImageN, p.ImageN, p.Block, p.Rate*100, out.Blocks, psnr, out.Elapsed)
		}
	case "othello":
		p := othello.Params{Depth: *depth}
		var out *othello.Result
		program = func(pe *core.PE) error {
			r, err := othello.Parallel(pe, p)
			if err == nil && pe.ID() == 0 {
				out = r
			}
			return err
		}
		describe = func() {
			fmt.Printf("othello: depth=%d best=%c%d value=%d nodes=%d elapsed=%v\n",
				p.Depth, 'a'+rune(out.BestMove%8), out.BestMove/8+1, out.Value, out.Nodes, out.Elapsed)
		}
	case "knight":
		p := knight.Params{BoardN: *board, Jobs: *jobs}
		var out *knight.Result
		program = func(pe *core.PE) error {
			r, err := knight.Parallel(pe, p)
			if err == nil && pe.ID() == 0 {
				out = r
			}
			return err
		}
		describe = func() {
			fmt.Printf("knight: board=%dx%d jobs>=%d tours=%d nodes=%d elapsed=%v\n",
				p.BoardN, p.BoardN, p.Jobs, out.Tours, out.Nodes, out.Elapsed)
		}
	default:
		fatalf("unknown app %q (gauss, dct, othello, knight)", *app)
	}

	var (
		res    *core.Result
		recRep *core.RecoveryReport
		err    error
	)
	if *recoverF {
		// The reference applications keep their control flow in local
		// state, so the generic wrapper rolls a killed run back to the
		// start: one collective snapshot before the application begins
		// gives the coordinator a generation to restart from, and the
		// rerun replays the whole application.
		app := program
		wrapped := func(pe *core.PE) error {
			pe.RegisterCheckpoint(nil, nil)
			if cerr := pe.Checkpoint(); cerr != nil {
				return cerr
			}
			return app(pe)
		}
		res, recRep, err = core.RunWithRecovery(cfg, *restarts, wrapped)
	} else {
		res, err = core.Run(cfg, program)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if err := res.FirstErr(); err != nil {
		fatalf("program: %v", err)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err == nil {
			err = errors.Join(res.WriteChromeTrace(f), f.Close())
		}
		if err != nil {
			fatalf("writing trace: %v", err)
		}
	}
	describe()
	if recRep != nil && recRep.Recovered() {
		for _, ev := range recRep.Recoveries {
			fmt.Printf("recovery: PEs %v died; coordinator %d restored generation %d (epoch %d), detected@%v, %d ops rolled back\n",
				ev.DeadPEs, ev.Coordinator, ev.Gen, ev.Epoch, ev.DetectedAt, ev.RollbackOps)
		}
	}
	fmt.Printf("cluster: %d PEs on %s via %s, total elapsed %v\n",
		cfg.NumPE, pl, cfg.Transport, res.Elapsed)
	fmt.Printf("totals:  %s\n", res.Total.String())
	if cfg.Transport == core.TransportSim {
		util := 0.0
		if res.Elapsed > 0 {
			util = float64(res.Bus.BusyTime) / float64(res.Elapsed) * 100
		}
		fmt.Printf("network: %d frames, %d payload bytes, %d collisions, %.1f%% utilisation\n",
			res.Bus.Frames, res.Bus.PayloadBytes, res.Bus.Collisions, util)
	}
	for i := range res.PerPE {
		s := &res.PerPE[i]
		fmt.Printf("  PE%-2d compute=%v comm=%v msgs=%d gm=%d local/%d remote\n",
			i, s.ComputeTime, s.CommTime(), s.MsgsSent+s.MsgsRecv, s.LocalGM, s.RemoteGM)
	}
	if res.Total.RTT.Count.Load() > 0 {
		fmt.Printf("request round trips: %s\n%s", res.Total.RTT.String(), res.Total.RTT.Render(40))
	}
}

// parseKill decodes a pe@time fault-schedule entry like "2@200ms".
func parseKill(spec string, numPE int) (victim int, at sim.Duration, err error) {
	peStr, atStr, ok := strings.Cut(spec, "@")
	if !ok {
		return 0, 0, fmt.Errorf("bad -kill %q: want pe@time, e.g. 2@200ms", spec)
	}
	victim, err = strconv.Atoi(peStr)
	if err != nil || victim < 0 || victim >= numPE {
		return 0, 0, fmt.Errorf("bad -kill %q: PE must be 0..%d", spec, numPE-1)
	}
	d, err := time.ParseDuration(atStr)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("bad -kill %q: bad time %q (e.g. 200ms, 1.5s)", spec, atStr)
	}
	return victim, sim.Duration(d), nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dserun: "+format+"\n", args...)
	os.Exit(1)
}
