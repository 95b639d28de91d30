package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// The zero-allocation fast path: remote scalar reads, writes and fetch-adds
// over the inproc transport must stay allocation-free in steady state (the
// seed cost 13 allocs/op a read and 12 a write; pooled messages, pooled
// frame buffers and the persistent reply mailbox removed all of them). The
// regression bound is 1 alloc/op — far below the seed but tolerant of
// incidental runtime noise under AllocsPerRun, which counts allocations on
// every goroutine, including the remote kernel's.
func TestRemoteWordOpsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse")
	}
	res, err := Run(Config{NumPE: 2, Transport: TransportInproc}, func(pe *PE) error {
		addr := pe.Alloc(64)
		for pe.Space().HomeOf(addr) == pe.ID() {
			addr++
		}
		pe.Barrier()
		if pe.ID() == 0 {
			readAllocs := testing.AllocsPerRun(2000, func() { mustRead(pe, addr) })
			writeAllocs := testing.AllocsPerRun(2000, func() { mustWrite(pe, addr, 42) })
			faAllocs := testing.AllocsPerRun(2000, func() { mustFetchAdd(pe, addr, 1) })
			t.Logf("allocs/op: read=%v write=%v fetch-add=%v", readAllocs, writeAllocs, faAllocs)
			if readAllocs > 1 {
				t.Errorf("a read allocates %v/op, want <= 1", readAllocs)
			}
			if writeAllocs > 1 {
				t.Errorf("a write allocates %v/op, want <= 1", writeAllocs)
			}
			if faAllocs > 1 {
				t.Errorf("a fetch-add allocates %v/op, want <= 1", faAllocs)
			}
		}
		pe.Barrier()
		return nil
	})
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
}

// A barrier and a lock/unlock round trip over inproc, like the remote word
// operations above them: the synchronisation pipeline (one verb table, one
// psync.Set whose grants reuse one buffer) must not allocate in steady
// state: none per barrier (the barrier manager keeps an id's waiter list
// from epoch to epoch) and none per lock/unlock. AllocsPerRun truncates its
// average, which absorbs the incidental noise.
func TestSyncVerbsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse")
	}
	const runs = 2000
	res, err := Run(Config{NumPE: 2, Transport: TransportInproc}, func(pe *PE) error {
		pe.Barrier()
		if pe.ID() != 0 {
			for i := 0; i < runs+1; i++ { // AllocsPerRun's warm-up call, then the runs
				pe.Barrier()
			}
			pe.Barrier()
			return nil
		}
		barrier := testing.AllocsPerRun(runs, pe.Barrier)
		lock := testing.AllocsPerRun(runs, func() { pe.Lock(3); pe.Unlock(3) })
		pe.Barrier()
		t.Logf("allocs/op: Barrier=%v Lock+Unlock=%v", barrier, lock)
		if barrier > 0 {
			t.Errorf("Barrier allocates %v/op, want 0", barrier)
		}
		if lock > 0 {
			t.Errorf("Lock+Unlock allocates %v/op, want 0", lock)
		}
		return nil
	})
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
}

// GMGather and GMScatter move scattered single words in one message per
// home, in input order, on every transport-visible path (local words,
// remote words, repeated homes).
func TestGatherScatter(t *testing.T) {
	// The message path: in place, a remote word sends no message at all.
	res, err := Run(Config{NumPE: 4, Transport: TransportInproc, DirectReads: -1}, func(pe *PE) error {
		bw := uint64(pe.Space().BlockWords)
		base := pe.Alloc(int(bw) * 16)
		pe.Barrier()
		// Addresses deliberately out of order, covering every home twice.
		var addrs []uint64
		for i := uint64(0); i < 8; i++ {
			addrs = append(addrs, base+(7-i)*bw+i)
		}
		if pe.ID() == 0 {
			vals := make([]int64, len(addrs))
			for i := range vals {
				vals[i] = int64(1000 + i)
			}
			must(pe.GMScatterErr(addrs, vals))
		}
		pe.Barrier()
		got := mustGather(pe, addrs)
		for i, v := range got {
			if v != int64(1000+i) {
				return errAt(pe.ID(), i, v)
			}
		}
		pe.Barrier()
		return nil
	})
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
	if got := res.Total.ByOp[wire.OpReadV].Msgs; got == 0 {
		t.Errorf("expected vectored read messages, ByOp[OpReadV].Msgs = 0")
	}
	if got := res.Total.ByOp[wire.OpWriteV].Msgs; got == 0 {
		t.Errorf("expected vectored write messages, ByOp[OpWriteV].Msgs = 0")
	}
}

func errAt(id, i int, v int64) error {
	return fmt.Errorf("PE %d: word %d = %d, unexpected", id, i, v)
}

// Block transfers must coalesce: a read spanning every home costs at most
// one request message per remote home (plus its response), not one per
// block-sized run.
func TestBlockReadCoalescesPerHome(t *testing.T) {
	const blocksPerHome = 8
	// The message path, so every remote run travels as a message.
	res, err := Run(Config{NumPE: 4, Transport: TransportInproc, DirectReads: -1}, func(pe *PE) error {
		bw := pe.Space().BlockWords
		n := 4 * blocksPerHome * bw
		base := pe.AllocBlocks(n)
		if pe.ID() == 0 {
			ws := make([]int64, n)
			for i := range ws {
				ws[i] = int64(i)
			}
			mustWriteBlock(pe, base, ws)
		}
		pe.Barrier()
		if pe.ID() == 1 {
			got := mustReadBlock(pe, base, n)
			for i, v := range got {
				if v != int64(i) {
					return errAt(1, i, v)
				}
			}
		}
		pe.Barrier()
		return nil
	})
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
	// PE 1's read: 3 remote homes -> at most 3 read requests of any kind.
	reads := res.PerPE[1].ByOp[wire.OpRead].Msgs + res.PerPE[1].ByOp[wire.OpReadV].Msgs
	if reads > 3 {
		t.Errorf("PE 1 issued %d read requests for a 3-remote-home block read, want <= 3", reads)
	}
	if res.PerPE[1].ByOp[wire.OpReadV].Msgs == 0 {
		t.Errorf("expected PE 1's multi-run block read to use OpReadV")
	}
}

// TestClusterConstructionBudget pins what a cluster costs to exist: the empty
// 4-PE inproc run the benchmark times as core.cluster_start_ms allocates at
// most 192 KiB (0.13 MB when this was written, since a per-op histogram is
// allocated on its op's first event; 0.71 MB while every statistics block of
// kernels, shards, PEs and nodes carried all 130 of them, 0.86 MB while every
// shard carried a 256-slot write submission ring, 1.9 MB while every receive
// queue and reply mailbox was a 128 KB channel buffer). Every repetition of an
// application pays it, so the next 65 KB or so that creeps into the kernels
// fails here and not in a benchmark round.
func TestClusterConstructionBudget(t *testing.T) {
	checkConstructionBudget(t, "an empty 4-PE inproc run", 192<<10, runEmptyInprocCluster)
}

// TestSimClusterConstructionBudget is the same budget for the simulated
// 6-PE cluster BenchmarkSimClusterConstruction builds, which every point of
// a paper figure pays: at most 256 KiB (0.18 MB when this was written, 0.89
// MB with every per-op histogram allocated up front).
func TestSimClusterConstructionBudget(t *testing.T) {
	checkConstructionBudget(t, "an empty 6-PE simulated run", 256<<10, runEmptySimCluster)
}

// checkConstructionBudget fails t if run, once warmed up, allocates more
// than budget bytes a time.
func checkConstructionBudget(t *testing.T, what string, budget uint64, run func(testing.TB)) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	const runs = 50
	run(t) // pools and lazily built tables are not the cluster's
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run(t)
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%s allocates %d bytes", what, perRun)
	if perRun > budget {
		t.Errorf("that is over the budget of %d bytes", budget)
	}
}
