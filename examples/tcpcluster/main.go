// Tcpcluster runs the identical SPMD program over real loopback TCP
// sockets instead of the simulator — the paper's portability claim in
// action: nothing in the application changes, only the transport. It also
// shows the single-system-image layer (global process table, cluster-wide
// name registry) over a real protocol stack.
//
//	go run ./examples/tcpcluster
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/ssi"
)

func main() {
	cfg := core.Config{
		NumPE:          4,
		Transport:      core.TransportTCP,
		RequestTimeout: 30 * sim.Second,
	}
	res, err := core.Run(cfg, program)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.FirstErr(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("moved %d messages (%d bytes) over real TCP\n",
		res.Total.MsgsSent, res.Total.BytesSent)
}

func program(pe *core.PE) error {
	// A shared table in distributed global memory, found by name: every PE
	// allocates the same table, and the name resolves to it on every PE.
	reg := ssi.NewRegistry(pe, 16)
	table := core.AllocArray[int64](pe, 64)
	if pe.ID() == 0 {
		if err := reg.Publish("squares", int64(table.Addr())); err != nil {
			return err
		}
	}
	pe.Barrier()

	base, ok, err := reg.Lookup("squares")
	if err != nil {
		return err
	}
	if !ok || uint64(base) != table.Addr() {
		return fmt.Errorf("PE %d: name 'squares' resolves to %d", pe.ID(), base)
	}
	for i := pe.ID(); i < table.Len(); i += pe.N() {
		if err := table.Store(i, int64(i*i)); err != nil {
			return err
		}
	}
	pe.Barrier()

	// Verify the whole table, wherever its words live.
	for i := 0; i < table.Len(); i++ {
		v, err := table.Load(i)
		if err != nil {
			return err
		}
		if v != int64(i*i) {
			return fmt.Errorf("PE %d: squares[%d] = %d", pe.ID(), i, v)
		}
	}

	if pe.ID() == 0 {
		view := ssi.NewView(pe)
		fmt.Println(view.Uname())
		procs, err := view.Processes()
		if err != nil {
			return err
		}
		fmt.Printf("global process table: %d running DSE processes\n", len(procs))
	}
	pe.Barrier()
	return nil
}
