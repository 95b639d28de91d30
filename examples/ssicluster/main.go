// Ssicluster tours the single-system-image layer on a simulated virtual
// cluster of 8 DSE kernels over 6 machines: one process table, one name
// space, one load picture and one liveness sweep — the user never deals
// with individual workstations.
//
//	go run ./examples/ssicluster
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/ssi"
)

func main() {
	cfg := core.Config{
		NumPE:          8, // more kernels than machines: a virtual cluster
		Platform:       platform.RS6000AIX,
		Seed:           1,
		RequestTimeout: 10 * sim.Second,
	}
	res, err := core.Run(cfg, program)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.FirstErr(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncluster shut down after %v of virtual time\n", res.Elapsed)
}

func program(pe *core.PE) error {
	view := ssi.NewView(pe)
	reg := ssi.NewRegistry(pe, 32)

	// Every PE publishes a service under a global name.
	if err := reg.Publish(fmt.Sprintf("service/%d", pe.ID()), int64(1000+pe.ID())); err != nil {
		return err
	}
	pe.Barrier()

	if pe.ID() == 0 {
		fmt.Println(view.Uname())

		fmt.Println("\nglobal process table (one table, eight kernels, six machines):")
		procs, err := view.Processes()
		if err != nil {
			return err
		}
		byHost := map[string][]int64{}
		for _, p := range procs {
			byHost[p.Host] = append(byHost[p.Host], p.GPID)
		}
		hosts := make([]string, 0, len(byHost))
		for h := range byHost {
			hosts = append(hosts, h)
		}
		sort.Strings(hosts)
		for _, h := range hosts {
			fmt.Printf("  %s: gpids %v\n", h, byHost[h])
		}

		fmt.Println("\nname service:")
		for i := 0; i < pe.N(); i++ {
			name := fmt.Sprintf("service/%d", i)
			v, ok, err := reg.Lookup(name)
			if err != nil {
				return err
			}
			fmt.Printf("  %-10s -> %d (found=%v)\n", name, v, ok)
		}

		fmt.Println("\nliveness sweep:")
		for _, st := range view.ProbePeers() {
			fmt.Printf("  kernel %d alive=%v rtt=%v\n", st.Kernel, st.Alive, st.RTT)
		}

		next, err := view.LeastLoadedKernel()
		if err != nil {
			return err
		}
		fmt.Printf("\nload-aware placement would pick kernel %d next\n", next)
	}
	pe.Barrier()
	return nil
}
