package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/sim"
	"repro/internal/transport/inproc"
	"repro/internal/wire"
)

// syncOps are the messages the sending PE serves or hands over itself on
// inproc (Kernel.serveInline, deliverSelf): a serve loop should see none.
var syncOps = []wire.Op{
	wire.OpBarrierArrive, wire.OpBarrierRelease, wire.OpLockAcquire,
	wire.OpLockGrant, wire.OpLockRelease, wire.OpUserMsg,
}

// TestSyncServedOnArrivingPE runs barriers, a contended lock guarding a
// read-modify-write, both all-reduces and a ring of user messages on 2 and 4
// inproc PEs. The sending PE serves every sync message and queues every user
// message itself, PE 0's own arrivals and grants at kernel 0 included, so no
// serve loop handles a single one; nothing is retried or answered twice, the
// lock's word and the reductions come out exact, and a barrier allocates
// nothing.
func TestSyncServedOnArrivingPE(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("pe=%d", n), func(t *testing.T) {
			const rounds, allocRuns = 50, 500
			onLoop := make([]uint64, n)
			cfg := Config{NumPE: n, Transport: TransportInproc}
			cfg.testInspect = func(ks []*Kernel, _ []*PE) {
				for _, k := range ks {
					for _, op := range syncOps {
						onLoop[k.id] += k.extra.ServiceByOp[op].Snapshot().Count
					}
				}
			}
			var barrierAllocs float64
			res := runWithin(t, time.Minute, cfg, func(pe *PE) error {
				word := pe.Alloc(1)
				me, next, prev := pe.ID(), (pe.ID()+1)%n, (pe.ID()+n-1)%n
				for i := 0; i < rounds; i++ {
					pe.Barrier()
					pe.Lock(1)
					mustWrite(pe, word, mustRead(pe, word)+1)
					pe.Unlock(1)
					if got := pe.AllReduceSum(1); got != float64(n) {
						return fmt.Errorf("round %d: AllReduceSum = %v, want %d", i, got, n)
					}
					if got := pe.AllReduceMax(float64(me)); got != float64(n-1) {
						return fmt.Errorf("round %d: AllReduceMax = %v, want %d", i, got, n-1)
					}
					pe.SendMsg(next, 7, []byte{byte(i)})
					if src, p := pe.RecvMsg(7); src != prev || len(p) != 1 || p[0] != byte(i) {
						return fmt.Errorf("round %d: RecvMsg = %d %v, want %d [%d]", i, src, p, prev, i)
					}
				}
				pe.Barrier()
				if v := mustRead(pe, word); v != int64(n*rounds) {
					return fmt.Errorf("word under the lock = %d, want %d", v, n*rounds)
				}
				if raceEnabled {
					pe.Barrier()
					return nil
				}
				if me != 0 {
					for i := 0; i < allocRuns+1; i++ { // AllocsPerRun's warm-up call, then the runs
						pe.Barrier()
					}
					return nil
				}
				barrierAllocs = testing.AllocsPerRun(allocRuns, pe.Barrier)
				return nil
			})
			for id, c := range onLoop {
				if c != 0 {
					t.Errorf("kernel %d's serve loop handled %d sync or user messages, want 0", id, c)
				}
			}
			tot := &res.Total
			if tot.Retries != 0 || tot.StaleReplies != 0 || tot.DupRequests != 0 || tot.CorruptDrops != 0 {
				t.Errorf("Retries %d, StaleReplies %d, DupRequests %d, CorruptDrops %d; want all 0",
					tot.Retries, tot.StaleReplies, tot.DupRequests, tot.CorruptDrops)
			}
			if got, want := tot.ByOp[wire.OpBarrierArrive].Msgs+tot.ByOp[wire.OpBarrierRelease].Msgs, 2*tot.Barriers; got != want {
				t.Errorf("%d barriers sent %d messages, want %d", tot.Barriers, got, want)
			}
			if barrierAllocs > 0 {
				t.Errorf("Barrier allocates %v/op, want 0", barrierAllocs)
			}
		})
	}
}

// TestSyncShutdownAfterBarrier is the hazard of DESIGN.md §17 on the inline
// route: each inproc RunOn node closes its node right after the shutdown
// barrier, and whoever serves the last arrival — the last PE to arrive, on its
// own goroutine — must have sent every other release before the one that lets
// kernel 0's own PE go. 1 000 clusters of three nodes, no node may fail.
func TestSyncShutdownAfterBarrier(t *testing.T) {
	const nodes, runs = 3, 1000
	for run := 0; run < runs; run++ {
		net := inproc.New(nodes)
		errs := make([]error, nodes)
		var wg sync.WaitGroup
		for i := 0; i < nodes; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := RunOn(Config{Transport: TransportInproc, RequestTimeout: 5 * sim.Second}, net.Node(i),
					func(pe *PE) error { return nil })
				if err == nil {
					err = res.FirstErr()
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		net.Stop()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("run %d, node %d: %v", run, i, err)
			}
		}
	}
}

// servingKernels is testKernels with kernel 0's serve loop running, so that
// what reaches its sink is served inline; the loop has exited when the
// returned stop does.
func servingKernels(t *testing.T, n int, mutate func(cfg *Config)) (*inproc.Net, []*Kernel, func()) {
	t.Helper()
	net, ks := testKernels(t, n, mutate)
	done := make(chan struct{})
	ks[0].goServe(func() { close(done) })
	return net, ks, func() { net.Stop(); <-done }
}

// TestForgedSyncFrameThroughSink sends kernel 0 sync frames no PE's engine
// sends — an unnumbered arrival, a release of a lock nobody holds, a source
// that names no PE — from another node, where kernel 0's sink serves them on
// the sending goroutine. Each is dropped and counted once, in the merged
// CorruptDrops as the serve loop would have counted it; nothing is granted,
// and the serve loop sees none of them.
func TestForgedSyncFrameThroughSink(t *testing.T) {
	net, ks, stop := servingKernels(t, 2, nil)
	for i, m := range []*wire.Message{
		{Op: wire.OpBarrierArrive, Src: 1, Tag: 4},
		{Op: wire.OpLockRelease, Src: 1, Tag: 2},
		{Op: wire.OpLockAcquire, Src: 9, Tag: 2, Seq: 3},
	} {
		net.Node(1).App().Send(0, m)
		ks[0].lockSync()
		drops := ks[0].syncDrops
		ks[0].unlockSync()
		if drops != uint64(i+1) {
			t.Fatalf("forged frame %d (%v): syncDrops = %d, want %d", i, m.Op, drops, i+1)
		}
	}
	noReplyFrom(t, ks[1], "a forged sync frame")
	stop()
	if n := ks[0].Stats().MsgsSent; n != 0 {
		t.Errorf("kernel 0 sent %d messages on forged input", n)
	}
	for _, op := range syncOps {
		if c := ks[0].extra.ServiceByOp[op].Snapshot().Count; c != 0 {
			t.Errorf("the serve loop handled %d %v", c, op)
		}
	}
	res := &Result{}
	collectStats(res, ks, []*PE{newPE(ks[0]), newPE(ks[1])})
	if got := res.Total.CorruptDrops; got != 3 {
		t.Errorf("merged CorruptDrops = %d, want 3", got)
	}
}

// TestInlineSyncWaitFailsOnAnyPeer: under checkpointing a barrier wait whose
// arrival kernel 0 served on the arriving PE's goroutine still fails on the
// death of a peer that is not its manager (the any-peer rule, Kernel.anyPeer):
// the arrival is recorded, no release will come, and the notice ends the wait.
func TestInlineSyncWaitFailsOnAnyPeer(t *testing.T) {
	store, err := ckpt.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ks, stop := servingKernels(t, 3, func(cfg *Config) { cfg.Ckpt = store })
	defer stop()
	pe := newPE(ks[1])
	failed := make(chan any, 1)
	go func() {
		defer func() { failed <- recover() }()
		pe.Barrier()
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		ks[0].lockSync()
		pend, _ := ks[0].sync.Residue()
		ks[0].unlockSync()
		if pend == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("PE 1's arrival never reached kernel 0's manager")
		}
	}
	ks[1].peerDown(2)
	select {
	case r := <-failed:
		var down *PeerDownError
		if err, _ := r.(error); !errors.As(err, &down) || down.Peer != 2 {
			t.Fatalf("barrier wait ended with %v, want a *PeerDownError naming peer 2", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the inline-served barrier wait outlived a peer's death")
	}
}
