package ssi

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/transport/simnet"
	"repro/internal/transport/tcpnet"
)

// run executes body on an inproc cluster and fails the test on any error.
func run(t *testing.T, n int, body core.Program) {
	t.Helper()
	res, err := core.Run(core.Config{NumPE: n, Transport: core.TransportInproc}, body)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
}

func TestViewBasics(t *testing.T) {
	run(t, 4, func(pe *core.PE) error {
		v := NewView(pe)
		if v.NumCPU() != 4 {
			return fmt.Errorf("NumCPU = %d", v.NumCPU())
		}
		if !strings.Contains(v.Uname(), "4 processors") {
			return fmt.Errorf("Uname = %q", v.Uname())
		}
		pe.Barrier()
		if got := len(v.Processes()); got != 4 {
			return fmt.Errorf("process table has %d entries", got)
		}
		pe.Barrier()
		return nil
	})
}

func TestLoadByHostSeesAllProcesses(t *testing.T) {
	run(t, 3, func(pe *core.PE) error {
		pe.Barrier()
		v := NewView(pe)
		total := 0
		for _, l := range v.LoadByHost() {
			total += l
		}
		if total != 3 {
			return fmt.Errorf("total load %d, want 3", total)
		}
		pe.Barrier()
		return nil
	})
}

func TestLeastLoadedKernelIsDeterministic(t *testing.T) {
	picks := make([]int, 5)
	run(t, 5, func(pe *core.PE) error {
		pe.Barrier()
		picks[pe.ID()] = NewView(pe).LeastLoadedKernel()
		pe.Barrier()
		return nil
	})
	for i := 1; i < 5; i++ {
		if picks[i] != picks[0] {
			t.Fatalf("PEs disagree on placement: %v", picks)
		}
	}
}

func TestLeastLoadedKernelOnVirtualCluster(t *testing.T) {
	// On the simulated transport 7 PEs over 6 machines double up machine
	// 0, so the scheduler must avoid kernels 0 and 6.
	res, err := core.Run(core.Config{NumPE: 7, Platform: platform.SparcSunOS, Seed: 1},
		func(pe *core.PE) error {
			pe.Barrier()
			pick := NewView(pe).LeastLoadedKernel()
			if pick == 0 || pick == 6 {
				return fmt.Errorf("scheduler picked doubled machine (kernel %d)", pick)
			}
			pe.Barrier()
			return nil
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryPublishLookup(t *testing.T) {
	run(t, 4, func(pe *core.PE) error {
		reg := NewRegistry(pe, 16)
		if pe.ID() == 0 {
			if err := reg.Publish("matrix", 12345); err != nil {
				return err
			}
			if err := reg.Publish("vector", 67890); err != nil {
				return err
			}
		}
		pe.Barrier()
		if v, ok := reg.Lookup("matrix"); !ok || v != 12345 {
			return fmt.Errorf("PE %d: matrix = %d,%v", pe.ID(), v, ok)
		}
		if v, ok := reg.Lookup("vector"); !ok || v != 67890 {
			return fmt.Errorf("PE %d: vector = %d,%v", pe.ID(), v, ok)
		}
		if _, ok := reg.Lookup("absent"); ok {
			return fmt.Errorf("PE %d: found absent name", pe.ID())
		}
		pe.Barrier()
		return nil
	})
}

func TestRegistryOverwrite(t *testing.T) {
	run(t, 2, func(pe *core.PE) error {
		reg := NewRegistry(pe, 8)
		if pe.ID() == 0 {
			reg.Publish("x", 1)
			reg.Publish("x", 2)
		}
		pe.Barrier()
		if v, ok := reg.Lookup("x"); !ok || v != 2 {
			return fmt.Errorf("x = %d,%v want 2", v, ok)
		}
		pe.Barrier()
		return nil
	})
}

func TestRegistryConcurrentPublishers(t *testing.T) {
	run(t, 4, func(pe *core.PE) error {
		reg := NewRegistry(pe, 32)
		name := fmt.Sprintf("pe-%d", pe.ID())
		if err := reg.Publish(name, int64(100+pe.ID())); err != nil {
			return err
		}
		pe.Barrier()
		for i := 0; i < 4; i++ {
			if v, ok := reg.Lookup(fmt.Sprintf("pe-%d", i)); !ok || v != int64(100+i) {
				return fmt.Errorf("pe-%d = %d,%v", i, v, ok)
			}
		}
		pe.Barrier()
		return nil
	})
}

func TestRegistryFull(t *testing.T) {
	run(t, 1, func(pe *core.PE) error {
		reg := NewRegistry(pe, 2)
		if err := reg.Publish("a", 1); err != nil {
			return err
		}
		if err := reg.Publish("b", 2); err != nil {
			return err
		}
		if err := reg.Publish("c", 3); err == nil {
			return fmt.Errorf("expected registry-full error")
		}
		return nil
	})
}

func TestProbePeersAllAlive(t *testing.T) {
	res, err := core.Run(core.Config{NumPE: 3, Platform: platform.SparcSunOS, Seed: 1},
		func(pe *core.PE) error {
			statuses := NewView(pe).ProbePeers()
			if len(statuses) != 2 {
				return fmt.Errorf("probed %d peers", len(statuses))
			}
			for _, st := range statuses {
				if !st.Alive {
					return fmt.Errorf("peer %d reported dead", st.Kernel)
				}
				if st.RTT <= 0 {
					return fmt.Errorf("peer %d has zero RTT", st.Kernel)
				}
			}
			pe.Barrier()
			return nil
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
}

func TestProbePeersDetectsDeadNode(t *testing.T) {
	net, err := tcpnet.NewLocal(3)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	defer net.Stop()
	net.TCPNode(2).Kill()

	// Nodes 0 and 1 run; node 2 is dead. Node 0 probes the cluster. The
	// final shutdown barrier cannot complete without node 2, so both
	// survivors are allowed (only) that error.
	var probeErr error
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := core.RunOn(core.Config{RequestTimeout: sim.Second}, net.Node(i),
				func(pe *core.PE) error {
					if pe.ID() != 0 {
						return nil
					}
					alive := map[int]bool{}
					probeStart := time.Now()
					for _, st := range NewView(pe).ProbePeers() {
						alive[st.Kernel] = st.Alive
					}
					probeTook := time.Since(probeStart)
					if alive[2] {
						probeErr = fmt.Errorf("dead kernel 2 reported alive")
					} else if !alive[1] {
						probeErr = fmt.Errorf("healthy kernel 1 reported dead")
					} else if probeTook >= 900*time.Millisecond {
						// The transport noticed the broken connection, so the
						// dead peer must fail via the detector's fast path,
						// not by waiting out the full 1s request timeout.
						probeErr = fmt.Errorf("probe took %v, want fast peer-down detection", probeTook)
					}
					return nil
				})
			if err != nil {
				probeErr = err
				return
			}
			if perr := res.Errs[0]; perr != nil && !strings.Contains(perr.Error(), "shutdown barrier") {
				probeErr = perr
			}
		}()
	}
	wg.Wait()
	if probeErr != nil {
		t.Fatal(probeErr)
	}
}

func TestHealthAggregatesProbeRounds(t *testing.T) {
	run(t, 4, func(pe *core.PE) error {
		v := NewView(pe)
		rep := v.Health(3)
		if rep.Rounds != 3 {
			return fmt.Errorf("rounds = %d", rep.Rounds)
		}
		if !rep.AllAlive() {
			return fmt.Errorf("healthy cluster reported dead peers: %+v", rep.Peers)
		}
		if len(rep.Peers) != 3 {
			return fmt.Errorf("%d peers, want 3", len(rep.Peers))
		}
		if want := uint64(3 * 3); rep.ProbeRTT.Count.Load() != want {
			return fmt.Errorf("probe histogram has %d samples, want %d", rep.ProbeRTT.Count.Load(), want)
		}
		if rep.Failures != 0 {
			return fmt.Errorf("failures = %d", rep.Failures)
		}
		pe.Barrier()
		return nil
	})
}

func TestHealthClampsRounds(t *testing.T) {
	run(t, 2, func(pe *core.PE) error {
		rep := NewView(pe).Health(0)
		if rep.Rounds != 1 || rep.ProbeRTT.Count.Load() != 1 {
			return fmt.Errorf("rounds=%d samples=%d", rep.Rounds, rep.ProbeRTT.Count.Load())
		}
		pe.Barrier()
		return nil
	})
}

// TestHealthReportsRecoveredGeneration kills a PE after a checkpoint and
// verifies the restarted incarnation's health sweep reports the new view
// generation instead of a dead peer forever: every peer answers again and
// renders as recovered(gen=1).
func TestHealthReportsRecoveredGeneration(t *testing.T) {
	store, err := ckpt.OpenDir(t.TempDir())
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	const killAt = sim.Time(1 * sim.Second)
	cfg := core.Config{
		NumPE:          3,
		Platform:       platform.SparcSunOS,
		RequestTimeout: 50 * sim.Millisecond,
		RequestRetries: 2,
		Kills:          []simnet.Kill{{Node: 2, At: sim.Duration(killAt)}},
		Ckpt:           &core.CheckpointConfig{Store: store},
	}
	res, rep, err := core.RunWithRecovery(cfg, 1, func(pe *core.PE) error {
		restored := pe.RegisterCheckpoint(func() []byte { return nil }, func([]byte) {})
		base := pe.AllocBlocks(96)
		if restored {
			h := NewView(pe).Health(2)
			if h.Generation != 1 {
				return fmt.Errorf("PE %d: Generation = %d after recovery, want 1", pe.ID(), h.Generation)
			}
			if !h.AllAlive() {
				return fmt.Errorf("PE %d: recovered peer still reported dead: %+v", pe.ID(), h.Peers)
			}
			for _, st := range h.Peers {
				if !st.Recovered || st.Gen != 1 {
					return fmt.Errorf("PE %d: peer %d not marked recovered: %+v", pe.ID(), st.Kernel, st)
				}
				if want := fmt.Sprintf("recovered(gen=%d)", st.Gen); !strings.Contains(st.String(), want) {
					return fmt.Errorf("PE %d: status %q missing %q", pe.ID(), st, want)
				}
			}
			pe.Barrier()
			return nil
		}
		if h := NewView(pe).Health(1); h.Generation != 0 {
			return fmt.Errorf("PE %d: Generation = %d before any recovery, want 0", pe.ID(), h.Generation)
		}
		pe.Barrier()
		if err := pe.Checkpoint(); err != nil {
			return err
		}
		// March into the scheduled kill (see core's recovery tests).
		remote := base + uint64(((pe.ID()+1)%3)*32)
		for pe.Now() < 4*killAt {
			_ = pe.GMRead(remote)
		}
		pe.Barrier()
		return nil
	})
	if err != nil {
		t.Fatalf("RunWithRecovery: %v", err)
	}
	if ferr := res.FirstErr(); ferr != nil {
		t.Fatal(ferr)
	}
	if !rep.Recovered() {
		t.Fatalf("no recovery happened: %+v", rep)
	}
}

// TestHealthReportsVoluntaryLeave has one PE leave the membership and
// verifies the SSI health view tells a planned departure apart from a
// failure: the left peer renders as left(gen=N), AllAlive still holds, and
// the leave contributes to LeftPeers rather than Failures.
func TestHealthReportsVoluntaryLeave(t *testing.T) {
	const n = 3
	run(t, n, func(pe *core.PE) error {
		base := pe.AllocBlocks(n * pe.Space().BlockWords)
		pe.Barrier()
		pe.GMWrite(base+uint64(pe.ID()), int64(pe.ID()+1))
		pe.Barrier()
		if pe.ID() == n-1 {
			if err := pe.Leave(); err != nil {
				return err
			}
		}
		pe.Barrier()
		if pe.ID() == 0 {
			rep := NewView(pe).Health(2)
			if !rep.AllAlive() {
				return fmt.Errorf("voluntary leave broke AllAlive: %+v", rep.Peers)
			}
			if rep.Failures != 0 {
				return fmt.Errorf("voluntary leave counted as %d failures", rep.Failures)
			}
			if rep.LeftPeers != 1 {
				return fmt.Errorf("LeftPeers = %d, want 1", rep.LeftPeers)
			}
			var left *PeerStatus
			for i := range rep.Peers {
				if rep.Peers[i].Kernel == n-1 {
					left = &rep.Peers[i]
				} else if rep.Peers[i].Left {
					return fmt.Errorf("peer %d wrongly marked left", rep.Peers[i].Kernel)
				}
			}
			if left == nil || !left.Left {
				return fmt.Errorf("left peer not reported: %+v", rep.Peers)
			}
			if left.LeftGen == 0 {
				return fmt.Errorf("left peer has zero generation: %+v", *left)
			}
			s := left.String()
			if !strings.Contains(s, fmt.Sprintf("left(gen=%d)", left.LeftGen)) {
				return fmt.Errorf("String() = %q, want left(gen=%d)", s, left.LeftGen)
			}
			if strings.Contains(s, "down") {
				return fmt.Errorf("left peer rendered as down: %q", s)
			}
		}
		pe.Barrier()
		return nil
	})
}
