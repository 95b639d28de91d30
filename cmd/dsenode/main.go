// Command dsenode runs one DSE kernel as its own operating-system process,
// joined to peers over real TCP — the fully distributed deployment of the
// runtime. Start one process per rank with the same address list:
//
//	dsenode -id 0 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	dsenode -id 1 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	dsenode -id 2 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//
// Each process blocks until the full mesh is up, runs the selected SPMD
// application, prints its slice of the result, and exits after the global
// shutdown barrier.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/apps/gauss"
	"repro/internal/apps/knight"
	"repro/internal/core"
	"repro/internal/debugsrv"
	"repro/internal/sim"
	"repro/internal/ssi"
	"repro/internal/transport/tcpnet"
)

func main() {
	var (
		id     = flag.Int("id", -1, "this node's rank in the address list")
		addrs  = flag.String("addrs", "", "comma-separated host:port listen addresses, one per rank")
		app    = flag.String("app", "demo", "application: demo, gauss, knight")
		n      = flag.Int("n", 120, "gauss: system dimension")
		jobs   = flag.Int("jobs", 16, "knight: job count")
		debug  = flag.String("debug-addr", "", "serve /metrics JSON and /debug/pprof/ on this host:port")
		linger = flag.Duration("debug-linger", 0, "keep the debug server up this long after the run completes")
	)
	flag.Parse()

	list := strings.Split(*addrs, ",")
	if *addrs == "" || len(list) < 1 {
		fatalf("need -addrs with at least one address")
	}
	if *id < 0 || *id >= len(list) {
		fatalf("-id %d outside the %d-address list", *id, len(list))
	}

	node, err := tcpnet.Open(*id, list)
	if err != nil {
		fatalf("joining cluster: %v", err)
	}
	fmt.Printf("node %d: mesh of %d up on %s\n", node.ID(), node.N(), node.Hostname())

	var program core.Program
	switch *app {
	case "demo":
		program = demo
	case "gauss":
		program = func(pe *core.PE) error {
			r, err := gauss.Parallel(pe, gauss.Params{N: *n, Seed: 1})
			if err != nil {
				return err
			}
			if pe.ID() == 0 {
				fmt.Printf("node 0: gauss N=%d converged in %d sweeps, residual %.3g\n",
					*n, r.Sweeps, r.Residual)
			}
			return nil
		}
	case "knight":
		program = func(pe *core.PE) error {
			r, err := knight.Parallel(pe, knight.Params{BoardN: 5, Jobs: *jobs})
			if err != nil {
				return err
			}
			fmt.Printf("node %d: processed %d jobs; total %d tours\n", pe.ID(), r.Jobs, r.Tours)
			return nil
		}
	default:
		fatalf("unknown app %q (demo, gauss, knight)", *app)
	}

	cfg := core.Config{RequestTimeout: 30 * sim.Second}
	var ds *debugsrv.Server
	if *debug != "" {
		ds, err = debugsrv.Start(*debug, debugsrv.Config{Node: node.ID(), N: node.N()})
		if err != nil {
			fatalf("debug server: %v", err)
		}
		defer ds.Close()
		cfg.LiveRTT = ds.LiveRTT()
		fmt.Printf("node %d: debug server on http://%s/metrics\n", *id, ds.Addr())
	}

	res, err := core.RunOn(cfg, node, program)
	if err != nil {
		fatalf("%v", err)
	}
	if err := res.FirstErr(); err != nil {
		fatalf("program: %v", err)
	}
	if ds != nil {
		ds.Finish(res)
	}
	fmt.Printf("node %d: done, %s\n", *id, res.Total.String())
	if ds != nil && *linger > 0 {
		time.Sleep(*linger)
	}
}

// demo exercises the single-system image: every process contributes to a
// reduction and node 0 prints the cluster-wide process table.
func demo(pe *core.PE) error {
	sum := pe.AllReduceSum(float64(pe.ID() + 1))
	want := float64(pe.N()*(pe.N()+1)) / 2
	if sum != want {
		return fmt.Errorf("allreduce sum %v, want %v", sum, want)
	}
	pe.Barrier()
	if pe.ID() == 0 {
		view := ssi.NewView(pe)
		fmt.Println(view.Uname())
		procs, err := view.Processes()
		if err != nil {
			return err
		}
		for _, p := range procs {
			fmt.Printf("  gpid %d on kernel %d (%s): %v\n", p.GPID, p.Kernel, p.Host, p.State)
		}
	}
	pe.Barrier()
	return nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dsenode: "+format+"\n", args...)
	os.Exit(1)
}
