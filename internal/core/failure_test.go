package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gmem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/transport/simnet"
	"repro/internal/transport/tcpnet"
)

// Total frame loss with a request timeout must surface as a program error,
// not a hung simulation.
func TestSimnetTotalLossTimesOutCleanly(t *testing.T) {
	cfg := simCfg(2)
	cfg.LossProbability = 1.0
	cfg.RequestTimeout = 100 * sim.Millisecond
	res, err := Run(cfg, func(pe *PE) error {
		base := pe.Alloc(64)
		// Force a remote access from PE 1 to PE 0's segment.
		if pe.ID() == 1 {
			mustWrite(pe, base, 1) // block 0 homes at kernel 0
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run should not fail at the harness level: %v", err)
	}
	ferr := res.Errs[1]
	if ferr == nil {
		t.Fatal("lost request did not surface as an error")
	}
	if !strings.Contains(ferr.Error(), "timed out") {
		t.Fatalf("unexpected failure text: %v", ferr)
	}
}

// Partial loss keeps the cluster alive for local work; only operations that
// truly need the wire fail.
func TestSimnetPartialLossLocalWorkSucceeds(t *testing.T) {
	cfg := simCfg(3)
	cfg.LossProbability = 1.0
	cfg.RequestTimeout = 50 * sim.Millisecond
	res, err := Run(cfg, func(pe *PE) error {
		pe.Compute(1e5) // purely local
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Registration with kernel 0 needs the wire for PEs 1,2: they fail.
	// PE 0 registers via the own-node path and succeeds.
	if res.Errs[0] != nil {
		t.Fatalf("PE 0 should survive: %v", res.Errs[0])
	}
	if res.Errs[1] == nil || res.Errs[2] == nil {
		t.Fatal("remote PEs should have failed registration under total loss")
	}
}

// Killing a TCP node mid-run must fail the survivors' requests — via the
// failure detector's fast peer-down path when the broken connection is
// noticed, or the request timeout at worst — instead of hanging them.
func TestTCPNodeDeathSurfacesAsError(t *testing.T) {
	net, err := tcpnet.NewLocal(3)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	defer net.Stop()
	cfg := Config{RequestTimeout: 2 * sim.Second}

	var wg sync.WaitGroup
	errs := make([]error, 3)
	writeTook := make([]time.Duration, 3)
	// Node 2 "crashes" before serving anything beyond the mesh handshake.
	net.TCPNode(2).Kill()
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunOn(cfg, net.Node(i), func(pe *PE) error {
				// Any GM word homed at kernel 2 must fail, not hang.
				space := pe.Space()
				addr := uint64(0)
				for space.HomeOf(addr) != 2 {
					addr++
				}
				t0 := time.Now()
				werr := pe.GMWriteErr(addr, 1)
				writeTook[i] = time.Since(t0)
				if werr == nil {
					return fmt.Errorf("write to dead home succeeded")
				}
				return werr
			})
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = res.FirstErr()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("survivors hung after node death")
	}
	for i := 0; i < 2; i++ {
		if errs[i] == nil {
			t.Fatalf("node %d: write to dead home succeeded", i)
		}
		text := errs[i].Error()
		if !strings.Contains(text, "is down") && !strings.Contains(text, "timed out") {
			t.Fatalf("node %d: unexpected failure: %v", i, errs[i])
		}
		// The broken connections are noticed when node 2 dies, so the write
		// must fail through the detector's peer-down path, well under the 2s
		// request timeout.
		if writeTook[i] >= time.Second {
			t.Fatalf("node %d: write failed only after %v — detector did not fire", i, writeTook[i])
		}
		t.Logf("node %d: write failed in %v (%v)", i, writeTook[i], errs[i])
	}
}

// A healthy multi-process-style cluster over RunOn completes and agrees.
func TestRunOnHealthyCluster(t *testing.T) {
	net, err := tcpnet.NewLocal(3)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	defer net.Stop()
	cfg := Config{RequestTimeout: 10 * sim.Second}
	var wg sync.WaitGroup
	sums := make([]float64, 3)
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunOn(cfg, net.Node(i), func(pe *PE) error {
				sums[pe.ID()] = pe.AllReduceSum(float64(pe.ID() + 1))
				pe.Barrier()
				return nil
			})
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = res.FirstErr()
		}()
	}
	wg.Wait()
	for i := 0; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
		if sums[i] != 6 {
			t.Fatalf("node %d: sum %v, want 6", i, sums[i])
		}
	}
}

// The timeout knob must not trip on a healthy simulated cluster.
func TestRequestTimeoutHarmlessWhenHealthy(t *testing.T) {
	cfg := Config{NumPE: 4, Platform: platform.SparcSunOS, Seed: 1, RequestTimeout: 10 * sim.Second}
	res, err := Run(cfg, func(pe *PE) error {
		base := pe.Alloc(32)
		mustWrite(pe, base+uint64(pe.ID()), 1)
		pe.Barrier()
		if got := mustRead(pe, base+uint64((pe.ID()+1)%4)); got != 1 {
			return fmt.Errorf("read %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseJobPeerDown kills node 2 of a job's four kernels on simnet between
// OpenJob and CloseJob. CloseJob returns the *PeerDownError naming it, and
// still closes the kernels after it: at every live kernel the members are
// unbound and the blocks PE 0 wrote into the region are gone.
func TestCloseJobPeerDown(t *testing.T) {
	const victim, bw = 2, 32
	job := JobGroup{
		Name: "doomed", Members: []int{1, 2, 3}, TagBase: JobSlotBase(0),
		Region: gmem.Region{Base: 8 * bw, Limit: 12 * bw}, // blocks 8..11: one homed at each kernel
	}
	cfg := simCfg(4)
	cfg.RequestTimeout, cfg.RequestRetries, cfg.PeerLossBudget = 20*sim.Millisecond, 5, 2
	cfg.Kills = []simnet.Kill{{Node: victim, At: 100 * sim.Millisecond}}
	var left []int // per kernel: bindings and blocks of the region left
	cfg.testInspect = func(ks []*Kernel, _ []*PE) {
		for _, k := range ks {
			left = append(left, k.ns.Len()+k.seg.CountRange(8, 4))
		}
	}
	res, err := Run(cfg, func(pe *PE) error {
		if pe.k.id != 0 {
			return nil
		}
		if err := pe.OpenJob(job); err != nil {
			return err
		}
		for a := job.Region.Base; a < job.Region.Limit; a += bw {
			mustWrite(pe, a, 1)
		}
		pe.RecvMsgTimeout(1, 200*sim.Millisecond) // past the kill
		_, err := pe.CloseJob(job)
		var down *PeerDownError
		if !errors.As(err, &down) || down.Peer != victim {
			return fmt.Errorf("CloseJob after the kill: %v, want a *PeerDownError naming %d", err, victim)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, 4, 0}; !slices.Equal(left, want) {
		t.Fatalf("bindings plus region blocks left per kernel = %v, want %v (only the dead kernel untouched)", left, want)
	}
}
