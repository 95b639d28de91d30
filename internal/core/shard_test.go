package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/gmem"
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

// TestShardForRouting pins the dispatcher's routing rules: scalar ops hash
// their address, vectored ops and invalidation acks follow the shard hint,
// and an out-of-range hint is rejected (-1), never clamped to shard 0.
func TestShardForRouting(t *testing.T) {
	_, ks := testKernels(t, 2, func(cfg *Config) { cfg.KernelShards = 4 })
	k := ks[0]
	if k.nshards != 4 {
		t.Fatalf("nshards = %d, want 4", k.nshards)
	}
	bw := uint64(k.space.BlockWords)
	n := uint64(k.n)
	for blk := uint64(0); blk < 8; blk++ {
		addr := blk * n * bw // consecutive blocks homed at kernel 0
		want := int(blk % 4)
		if got := k.shardFor(&wire.Message{Op: wire.OpRead, Addr: addr}); got != want {
			t.Errorf("OpRead block %d -> shard %d, want %d", blk, got, want)
		}
		if got := k.shardFor(&wire.Message{Op: wire.OpWrite, Addr: addr}); got != want {
			t.Errorf("OpWrite block %d -> shard %d, want %d", blk, got, want)
		}
	}
	for _, op := range []wire.Op{wire.OpReadV, wire.OpWriteV, wire.OpInvAck} {
		if got := k.shardFor(&wire.Message{Op: op, Shard: 3}); got != 3 {
			t.Errorf("%v hint 3 -> shard %d, want 3", op, got)
		}
		for _, hint := range []uint8{4, 200, 255} {
			if got := k.shardFor(&wire.Message{Op: op, Shard: hint}); got != -1 {
				t.Errorf("%v hint %d -> shard %d, want -1 (reject)", op, hint, got)
			}
		}
	}
	// With a single shard every hint routes to shard 0: there is no dedup
	// window to bypass, so legacy senders with garbage hint bytes still work.
	_, ks1 := testKernels(t, 2, nil)
	if got := ks1[0].shardFor(&wire.Message{Op: wire.OpWriteV, Shard: 200}); got != 0 {
		t.Errorf("single shard hint 200 -> %d, want 0", got)
	}
}

// TestShardForgedHintDropped drives forged/stale shard hints through the
// dispatcher itself. Before the fix an out-of-range hint clamped to shard 0,
// routing a retried OpWriteV past the dedup window of the shard that served
// the original — so the retry was applied twice. Now the message must be
// dropped (consumed, counted as corrupt) with no reply and no memory write.
func TestShardForgedHintDropped(t *testing.T) {
	_, ks := testKernels(t, 2, func(cfg *Config) { cfg.KernelShards = 4 })
	k := ks[0]
	wv := &wire.Message{Op: wire.OpWriteV, Src: 1, Dst: 0, Seq: 1, Arg1: 1, Shard: 200}
	wv.AppendWriteRun(0, []int64{77})
	if !k.handle(wv) {
		t.Fatal("forged OpWriteV not consumed")
	}
	if got := k.seg.Read(0, 1)[0]; got != 0 {
		t.Fatalf("forged write applied: word 0 = %d", got)
	}
	if !k.handle(&wire.Message{Op: wire.OpInvAck, Src: 1, Dst: 0, Seq: 9, Shard: 250}) {
		t.Fatal("forged OpInvAck not consumed")
	}
	if k.extra.CorruptDrops != 2 {
		t.Fatalf("CorruptDrops = %d, want 2", k.extra.CorruptDrops)
	}
}

// TestKernelShardsResolution checks the config defaulting: simulation stays
// at one shard (determinism), explicit values are clamped to the segment's
// stripe count, and negatives collapse to one.
func TestKernelShardsResolution(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want int
	}{
		{Config{NumPE: 2, Transport: TransportInproc, KernelShards: 99}, gmem.SegStripes},
		{Config{NumPE: 2, Transport: TransportInproc, KernelShards: -3}, 1},
		{Config{NumPE: 2, Transport: TransportInproc, KernelShards: 5}, 5},
	} {
		c, err := tc.cfg.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		if c.KernelShards != tc.want {
			t.Errorf("KernelShards %d -> %d, want %d", tc.cfg.KernelShards, c.KernelShards, tc.want)
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
