// Command dsesched runs the DSE cluster as a service: one resident SSI
// cluster, many jobs. It brings up a scheduler over `-workers` worker PEs
// and serves the Slurm-shaped job API over HTTP:
//
//	dsesched -workers 8 -addr :8080 &
//
//	# submit a 4-PE Gauss-Seidel job with a 32-block GM quota
//	curl -X POST localhost:8080/jobs -d \
//	  '{"name":"g1","pes":4,"workload":"gauss","size":64,"quota_blocks":32}'
//
//	curl localhost:8080/jobs/1     # status
//	curl localhost:8080/queue      # queue + per-job rows
//	curl -X DELETE localhost:8080/jobs/1   # cancel
//
// Every job runs in its own GM namespace (quota-bounded, kernel-enforced)
// on a gang of PEs picked by fair-share order with priority aging. The
// debug endpoint (-debug-addr) serves the node /metrics document extended
// with the scheduler's queue-depth/utilization gauges and per-job rows.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/debugsrv"
	"repro/internal/sched"
)

func main() {
	var (
		workers  = flag.Int("workers", 4, "worker PE count (the cluster runs workers+1 PEs)")
		capacity = flag.Uint64("capacity", 4096, "schedulable global memory, in blocks")
		addr     = flag.String("addr", ":8080", "job API listen address")
		debug    = flag.String("debug-addr", "", "serve /metrics JSON and /debug/pprof/ on this host:port")
	)
	flag.Parse()

	c, err := sched.Start(sched.Config{
		Workers:        *workers,
		CapacityBlocks: *capacity,
	})
	if err != nil {
		fatalf("%v", err)
	}
	s := c.Scheduler()
	fmt.Printf("dsesched: cluster of %d workers up (capacity %d blocks, workloads: %v)\n",
		*workers, *capacity, sched.Workloads())

	if *debug != "" {
		ds, err := debugsrv.Start(*debug, debugsrv.Config{
			Node: 0, N: *workers + 1,
			Sched: func() interface{} { return s.Stats() },
			Jobs:  s,
		})
		if err != nil {
			fatalf("debug server: %v", err)
		}
		defer ds.Close()
		fmt.Printf("dsesched: debug server on http://%s/metrics\n", ds.Addr())
	}

	api := &http.Server{Addr: *addr, Handler: sched.NewServer(s)}
	go func() {
		if err := api.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fatalf("job API: %v", err)
		}
	}()
	fmt.Printf("dsesched: job API on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("dsesched: draining and shutting down")
	api.Close()
	res, err := c.Stop()
	if err != nil {
		fatalf("shutdown: %v", err)
	}
	st := s.Stats()
	fmt.Printf("dsesched: served %d jobs (%d done, %d failed, %d cancelled), utilization %.1f%%\n",
		st.Submitted, st.Done, st.Failed, st.Cancelled, 100*st.Utilization)
	if res != nil && res.Total.NsViolations > 0 {
		fmt.Printf("dsesched: WARNING: %d cross-namespace violations rejected\n", res.Total.NsViolations)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dsesched: "+format+"\n", args...)
	os.Exit(1)
}
