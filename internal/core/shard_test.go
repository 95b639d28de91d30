package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/gmem"
	"repro/internal/sim"
	"repro/internal/transport/tcpnet"
	"repro/internal/wire"
)

// TestUserQueuesReleasedAfterRun cycles PEs through many message tags and
// asserts every kernel's user-queue map is empty once Run returns: userMb
// used to register tags for the kernel's lifetime, leaking one mailbox per
// tag ever received on.
func TestUserQueuesReleasedAfterRun(t *testing.T) {
	var inspected atomic.Bool
	cfg := Config{NumPE: 2, Transport: TransportInproc}
	cfg.testInspect = func(ks []*Kernel, _ []*PE) {
		inspected.Store(true)
		for _, k := range ks {
			k.mu.Lock()
			n := len(k.userq)
			k.mu.Unlock()
			if n != 0 {
				t.Errorf("kernel %d: %d user queues leaked after Run", k.id, n)
			}
		}
	}
	res, err := Run(cfg, func(pe *PE) error {
		peer := (pe.ID() + 1) % pe.N()
		for tag := int32(0); tag < 16; tag++ {
			pe.SendMsg(peer, tag, []byte("x"))
			if src, _ := pe.RecvMsg(tag); src != peer {
				return fmt.Errorf("PE %d: tag %d from %d, want %d", pe.ID(), tag, src, peer)
			}
		}
		pe.Barrier()
		return nil
	})
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
	if !inspected.Load() {
		t.Fatal("testInspect hook never ran")
	}
}

// TestShardForRouting pins the dispatcher's routing rule: a request goes to
// its requester's shard, Src mod the shard count, whatever it addresses; an
// invalidation ack goes to the shard its round id names, which is the shard
// that opened the round; and a message whose Src names no PE is dropped as
// corrupt, with one shard as with several.
func TestShardForRouting(t *testing.T) {
	net, ks := testKernels(t, 3, func(cfg *Config) { cfg.KernelShards = 2 })
	k := ks[0]
	bw := uint64(k.space.BlockWords)
	for src := int32(0); src < 3; src++ {
		for _, op := range []wire.Op{wire.OpRead, wire.OpWrite, wire.OpReadV, wire.OpWriteV, wire.OpFlushV, wire.OpInvalidate} {
			for blk := uint64(0); blk < 4; blk++ {
				if got := k.shardFor(&wire.Message{Op: op, Src: src, Addr: blk * 3 * bw}); got != int(src)%2 {
					t.Errorf("%v from %d at block %d -> shard %d, want %d", op, src, blk*3, got, src%2)
				}
			}
		}
		for id := uint64(2); id < 8; id++ {
			if got := k.shardFor(&wire.Message{Op: wire.OpInvAck, Src: src, Seq: id}); got != int(id%2) {
				t.Errorf("ack of round %d from %d -> shard %d, want %d", id, src, got, id%2)
			}
		}
	}

	// A round opened by requester 1's write is shard 1's, and its ack finds it
	// there: kernel 2 caches block 0 (a cached-mode block fetch), kernel 1
	// writes into it.
	fetch := &wire.Message{Op: wire.OpRead, Src: 2, Dst: 0, Seq: 1, Arg1: 1, Arg2: 1}
	if !k.handle(fetch) {
		t.Fatal("block fetch not consumed")
	}
	wire.PutMessage(replyFrom(t, ks[2]))
	write := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 0, Seq: 1}
	write.PutWord(5)
	k.handle(write)
	inv := recvFrom(t, net, 2)
	if inv.Op != wire.OpInvalidate || k.shardFor(&wire.Message{Op: wire.OpInvAck, Src: 2, Seq: inv.Seq}) != 1 || len(k.shards[1].inv) != 1 {
		t.Fatalf("write from 1 sent %v round %d, shard 1 holds %d rounds; want an invalidation of a shard-1 round", inv.Op, inv.Seq, len(k.shards[1].inv))
	}
	ks[2].handle(inv)
	k.handle(recvFrom(t, net, 0))
	if ack := replyFrom(t, ks[1]); ack.Op != wire.OpWriteAck || ack.Seq != 1 {
		t.Fatalf("writer got %v seq %d, want its write-ack", ack.Op, ack.Seq)
	}
	if k.shards[1].extra.StrayDrops != 0 || len(k.shards[1].inv) != 0 {
		t.Fatalf("ack did not close the round: StrayDrops %d, %d rounds open", k.shards[1].extra.StrayDrops, len(k.shards[1].inv))
	}

	// A Src outside the cluster routes nowhere: the request is dropped as
	// corrupt with nothing applied, whatever the shard count.
	_, ks1 := testKernels(t, 3, nil)
	for _, kk := range []*Kernel{k, ks1[0]} {
		for _, src := range []int32{-1, 3, 200} {
			if got := kk.shardFor(&wire.Message{Op: wire.OpRead, Src: src}); got != -1 {
				t.Errorf("%d shards: Src %d -> shard %d, want -1 (drop)", kk.nshards, src, got)
			}
		}
		wv := &wire.Message{Op: wire.OpWriteV, Src: 7, Dst: 0, Seq: 1, Arg1: 1}
		wv.AppendWriteRun(3*bw, []int64{77})
		if !kk.handle(wv) {
			t.Fatal("OpWriteV from a forged Src not consumed")
		}
		if got := kk.seg.Read(3*bw, 1)[0]; got != 0 || kk.extra.CorruptDrops != 1 {
			t.Errorf("%d shards: forged write left word %d and CorruptDrops %d, want 0 and 1", kk.nshards, got, kk.extra.CorruptDrops)
		}
	}
}

// TestTCPNodesServeRanges runs two dsenode-style nodes over tcpnet, each
// through RunOn with its own kernel. Node 0 scatters into, gathers from,
// block-reads and release-flushes to words homed at node 1: every range
// operation a remote home serves, each as one request per home, across real
// sockets and two independently configured kernels. (When requesters stamped
// the home's shard into each request, a home that counted its shards
// differently dropped them as corrupt, and the range requests timed out.)
func TestTCPNodesServeRanges(t *testing.T) {
	net, err := tcpnet.NewLocal(2)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	defer net.Stop()
	prog := func(pe *PE) error {
		bw := pe.Space().BlockWords
		blocks := homedAt(pe, 1, 8)
		var rel []uint64 // a word in each of four release-mode blocks homed at node 1
		for a := pe.AllocBlocksMode(4*pe.N()*bw, gmem.ModeRelease); len(rel) < 4; a += uint64(bw) {
			if pe.Space().HomeOf(a) == 1 {
				rel = append(rel, a)
			}
		}
		pe.Barrier()
		var bad error
		fail := func(err error) {
			if bad == nil && err != nil {
				bad = fmt.Errorf("PE %d: %w", pe.ID(), err)
			}
		}
		if pe.ID() == 0 {
			addrs, vals := make([]uint64, 64), make([]int64, 64)
			for i := range addrs {
				addrs[i], vals[i] = blocks[i%len(blocks)]+uint64(i/len(blocks)), int64(100+i)
			}
			fail(pe.GMScatterErr(addrs, vals))
			got, err := pe.GMGatherErr(addrs)
			fail(err)
			for i := range got {
				if got[i] != vals[i] {
					fail(fmt.Errorf("gather word %d = %d, want %d", i, got[i], vals[i]))
				}
			}
			span, err := pe.GMReadBlockErr(blocks[0], int(blocks[len(blocks)-1]-blocks[0])+bw)
			fail(err)
			for i, a := range addrs {
				if err == nil && span[a-blocks[0]] != vals[i] {
					fail(fmt.Errorf("block read word %d = %d, want %d", a, span[a-blocks[0]], vals[i]))
				}
			}
			for i, b := range rel {
				fail(pe.GMWriteErr(b, int64(7+i)))
			}
		}
		pe.Barrier() // the release flush of node 0's buffered writes
		if pe.ID() == 1 {
			for i, b := range rel {
				if v := pe.GMRead(b); v != int64(7+i) {
					fail(fmt.Errorf("released word %d = %d after the flush, want %d", b, v, 7+i))
				}
			}
		}
		return bad
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := Config{GMBlockWords: 8, RequestTimeout: 2 * sim.Second}
			res, err := RunOn(cfg, net.Node(i), prog)
			if err == nil {
				err = res.FirstErr()
			}
			errs[i] = err
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("nodes still running after a minute")
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

// TestShardRangeOneRequestPerHome: however many shards a home runs, a range
// operation makes one request of it — a 64-address gather, a scatter and a
// block read spanning several of its blocks, on the message path, are one
// OpReadV, one OpWriteV and one OpReadV.
func TestShardRangeOneRequestPerHome(t *testing.T) {
	res := runWithin(t, time.Minute, Config{
		NumPE: 2, Transport: TransportInproc,
		KernelShards: 4, DirectReads: -1,
	}, func(pe *PE) error {
		bw := pe.Space().BlockWords
		blocks := homedAt(pe, 1, 8)
		pe.Barrier()
		if pe.ID() == 0 {
			addrs, vals := make([]uint64, 64), make([]int64, 64)
			for i := range addrs {
				addrs[i], vals[i] = blocks[i%len(blocks)]+uint64(i/len(blocks)), int64(i+1)
			}
			pe.GMScatter(addrs, vals)
			if got := pe.GMGather(addrs); !slices.Equal(got, vals) {
				return fmt.Errorf("gather = %v, want %v", got, vals)
			}
			pe.GMReadBlock(blocks[0], int(blocks[len(blocks)-1]-blocks[0])+bw)
		}
		pe.Barrier()
		return nil
	})
	if got := res.Total.ByOp[wire.OpReadV].Msgs; got != 2 {
		t.Errorf("OpReadV messages = %d, want 2 (the gather and the block read)", got)
	}
	if got := res.Total.ByOp[wire.OpWriteV].Msgs; got != 1 {
		t.Errorf("OpWriteV messages = %d, want 1 (the scatter)", got)
	}
}

// TestServingModelByTransport pins servingModel's table: how many monitors
// every kernel builds and whether a PE reaches a co-located home's words in
// place, per transport × DirectReads × KernelShards. inproc honours
// KernelShards (0 = GOMAXPROCS) and has the paths in place on unless
// DirectReads < 0, on one core as on two; simnet and tcpnet build one monitor
// whatever KernelShards says, simnet goes in place only when DirectReads > 0
// and tcpnet never. The second half pins the clamping and Legacy.
func TestServingModelByTransport(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tr    TransportKind
		procs int // GOMAXPROCS during the run; 0 leaves it alone
	}{
		{"inproc/procs1", TransportInproc, 1},
		{"inproc/procs2", TransportInproc, 2},
		{"simnet", TransportSim, 0},
		{"tcp", TransportTCP, 0},
	} {
		for _, direct := range []int{0, 1, -1} {
			for _, shards := range []int{0, 4} {
				t.Run(fmt.Sprintf("%s/direct%d/shards%d", tc.name, direct, shards), func(t *testing.T) {
					if tc.procs > 0 {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
					}
					wantMonitors, wantInPlace := 1, direct > 0
					switch tc.tr {
					case TransportInproc:
						wantMonitors, wantInPlace = shards, direct >= 0
						if shards == 0 {
							wantMonitors = tc.procs
						}
					case TransportTCP:
						wantInPlace = false
					}
					cfg := simCfg(2)
					cfg.Transport, cfg.DirectReads, cfg.KernelShards = tc.tr, direct, shards
					var monitors []int
					cfg.testInspect = func(ks []*Kernel, _ []*PE) {
						for _, k := range ks {
							monitors = append(monitors, len(k.shards))
						}
					}
					res := runWithin(t, time.Minute, cfg, func(pe *PE) error {
						a := remoteWord(pe)
						pe.Barrier()
						pe.GMWrite(a, int64(pe.ID()))
						pe.GMRead(a)
						pe.Barrier()
						return nil
					})
					if len(monitors) != 2 {
						t.Fatalf("inspected %d kernels, want 2", len(monitors))
					}
					for id, m := range monitors {
						if m != wantMonitors {
							t.Errorf("kernel %d built %d monitors, want %d", id, m, wantMonitors)
						}
					}
					reads, stores := res.Total.DirectGM, res.Total.RingGM
					if inPlace := reads > 0 && stores > 0; inPlace != wantInPlace || !inPlace && reads+stores > 0 {
						t.Errorf("DirectGM %d, RingGM %d; want in place %v", reads, stores, wantInPlace)
					}
				})
			}
		}
	}

	for _, tc := range []struct {
		cfg              Config
		monitors, direct int
	}{
		{Config{NumPE: 2, Transport: TransportInproc, KernelShards: 99}, gmem.SegStripes, 1},
		{Config{NumPE: 2, Transport: TransportInproc, KernelShards: -3}, 1, 1},
		{Config{NumPE: 2, Transport: TransportInproc, KernelShards: 5, DirectReads: -7}, 5, -1},
		{Config{NumPE: 2, Transport: TransportTCP, KernelShards: 99, DirectReads: 1}, 1, -1},
		{Config{NumPE: 2, Platform: simCfg(2).Platform, KernelShards: 8, DirectReads: 1}, 1, 1},
		{Config{NumPE: 2, Platform: simCfg(2).Platform, DirectReads: 1, Legacy: true}, 1, -1},
	} {
		c, err := tc.cfg.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		if c.KernelShards != tc.monitors || c.DirectReads != tc.direct {
			t.Errorf("%s KernelShards %d DirectReads %d Legacy %v -> %d monitors, DirectReads %d; want %d, %d",
				c.Transport, tc.cfg.KernelShards, tc.cfg.DirectReads, tc.cfg.Legacy,
				c.KernelShards, c.DirectReads, tc.monitors, tc.direct)
		}
	}
}

// shardWorkload hammers remote global memory from every PE: scalar reads and
// writes, fetch-adds, a vectored gather and a block read, with barrier-ordered
// verification. It exercises every sharded code path.
func shardWorkload(pe *PE) error {
	bw := pe.Space().BlockWords
	n := pe.N()
	words := 16 * n * bw
	base := pe.AllocBlocks(words)
	ctr := pe.Alloc(1)
	pe.Barrier()
	// Each PE writes a disjoint slice spanning all homes and shards.
	chunk := words / n
	mine := base + uint64(pe.ID()*chunk)
	buf := make([]int64, chunk)
	for i := range buf {
		buf[i] = int64(pe.ID()*chunk + i)
	}
	pe.GMWriteBlock(mine, buf)
	pe.FetchAdd(ctr, 1)
	pe.Barrier()
	// Everyone verifies everything, via block read and scattered gather.
	got := pe.GMReadBlock(base, words)
	for i, v := range got {
		if v != int64(i) {
			return fmt.Errorf("PE %d: word %d = %d", pe.ID(), i, v)
		}
	}
	addrs := make([]uint64, 64)
	for i := range addrs {
		addrs[i] = base + uint64((i*37)%words)
	}
	for i, v := range pe.GMGather(addrs) {
		if v != int64((i*37)%words) {
			return fmt.Errorf("PE %d: gather %d = %d", pe.ID(), i, v)
		}
	}
	if v := pe.GMRead(ctr); v != int64(n) {
		return fmt.Errorf("PE %d: counter = %d, want %d", pe.ID(), v, n)
	}
	pe.Barrier()
	return nil
}

// TestShardedKernelServesGM runs the workload over eight shards with the
// direct-read window forced off, so every remote access crosses the message
// path and is served by its sender under one of eight shard locks.
func TestShardedKernelServesGM(t *testing.T) {
	res, err := Run(Config{
		NumPE: 4, Transport: TransportInproc,
		KernelShards: 8, DirectReads: -1,
	}, shardWorkload)
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
	if res.Total.ShardedMsgs == 0 {
		t.Error("no requests served on their senders")
	}
	if res.Total.DirectGM != 0 {
		t.Errorf("DirectGM = %d with DirectReads forced off", res.Total.DirectGM)
	}
}

// TestDirectReadFastPath runs the workload with the one-sided window forced
// on and checks uncached remote scalar reads resolve without messages.
func TestDirectReadFastPath(t *testing.T) {
	res, err := Run(Config{
		NumPE: 4, Transport: TransportInproc,
		KernelShards: 4, DirectReads: 1,
	}, shardWorkload)
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
	if res.Total.DirectGM == 0 {
		t.Error("no direct-window reads with DirectReads forced on")
	}
	if res.Total.DirectGM > res.Total.RemoteGM {
		t.Errorf("DirectGM = %d > RemoteGM = %d", res.Total.DirectGM, res.Total.RemoteGM)
	}
	// The scalar GMRead traffic must have vanished from the wire.
	if msgs := res.Total.ByOp[wire.OpRead].Msgs; msgs != 0 {
		t.Errorf("OpRead messages = %d, want 0 (all scalar reads direct)", msgs)
	}
}

// TestShardedCheckpointRestart checkpoints while requesters serve under the
// shard locks: the fence must pass through every shard before the export, or
// it deadlocks/tears. (Kill and recovery with sharded state runs under the
// simulated transport in the stress tests, where the locks are not taken;
// fencing against real locks is only reachable here.)
func TestShardedCheckpointRestart(t *testing.T) {
	store, err := ckpt.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog := func(pe *PE) error {
		bw := pe.Space().BlockWords
		words := 4 * pe.N() * bw
		base := pe.AllocBlocks(words)
		pe.Barrier()
		if pe.ID() == 0 {
			ws := make([]int64, words)
			for i := range ws {
				ws[i] = int64(i + 1)
			}
			pe.GMWriteBlock(base, ws)
		}
		pe.Barrier()
		if err := pe.Checkpoint(); err != nil {
			return err
		}
		got := pe.GMReadBlock(base, words)
		for i, v := range got {
			if v != int64(i+1) {
				return fmt.Errorf("PE %d: word %d = %d", pe.ID(), i, v)
			}
		}
		pe.Barrier()
		return nil
	}
	res, err := Run(Config{
		NumPE: 4, Transport: TransportInproc,
		KernelShards: 8, DirectReads: -1,
		Ckpt: &CheckpointConfig{Store: store},
	}, prog)
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
	if res.Total.Checkpoints == 0 {
		t.Fatal("no checkpoint recorded")
	}
}
