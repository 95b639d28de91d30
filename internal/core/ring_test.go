package core

import (
	"fmt"
	"testing"

	"repro/internal/gmem"
	"repro/internal/wire"
)

// TestRingWriteFastPath runs a scalar-write-heavy workload with the
// one-sided paths forced on: every uncached remote scalar write into a
// co-located home must resolve through a submission ring — zero OpWrite
// messages on the wire — and every value must read back correctly.
func TestRingWriteFastPath(t *testing.T) {
	prog := func(pe *PE) error {
		n := pe.N()
		bw := pe.Space().BlockWords
		words := 4 * n * bw
		base := pe.AllocBlocks(words)
		pe.Barrier()
		// Each PE writes a disjoint scalar stride spanning every home.
		for i := pe.ID(); i < words; i += n {
			pe.GMWrite(base+uint64(i), int64(i+1))
		}
		pe.Barrier()
		for i := 0; i < words; i++ {
			if v := pe.GMRead(base + uint64(i)); v != int64(i+1) {
				return fmt.Errorf("PE %d: word %d = %d", pe.ID(), i, v)
			}
		}
		pe.Barrier()
		return nil
	}
	res, err := Run(Config{
		NumPE: 4, Transport: TransportInproc,
		KernelShards: 4, DirectReads: 1,
	}, prog)
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
	if res.Total.RingGM == 0 {
		t.Error("no ring writes with rings available")
	}
	if res.Total.RingGM > res.Total.RemoteGM {
		t.Errorf("RingGM = %d > RemoteGM = %d", res.Total.RingGM, res.Total.RemoteGM)
	}
	if res.Total.RingDrained != res.Total.RingGM {
		t.Errorf("RingDrained = %d, want %d (every submitted write applied exactly once)",
			res.Total.RingDrained, res.Total.RingGM)
	}
	// The scalar write traffic must have vanished from the wire.
	if msgs := res.Total.ByOp[wire.OpWrite].Msgs; msgs != 0 {
		t.Errorf("OpWrite messages = %d, want 0 (all scalar writes through rings)", msgs)
	}
}

// TestMonitorRingWritersSingleShard has several PEs publish into the one
// shard of one home, on a real transport with nothing but the producers
// themselves to drain the ring: each takes the shard lock after publishing
// and applies whatever is there. Every write must land exactly once and be
// visible when GMWrite returns. (A single-shard kernel on a real transport
// used to refuse rings: it had no worker loop to drain them.)
func TestMonitorRingWritersSingleShard(t *testing.T) {
	const writes = 500
	res, err := Run(Config{
		NumPE: 4, Transport: TransportInproc,
		KernelShards: 1, DirectReads: 1, WriteRings: 1,
	}, func(pe *PE) error {
		mine := homedAt(pe, 0, 1)[0] + uint64(pe.ID())
		pe.Barrier()
		if pe.ID() != 0 {
			for i := int64(1); i <= writes; i++ {
				pe.GMWrite(mine, i)
				if v := pe.GMRead(mine); v != i {
					return fmt.Errorf("PE %d: read %d right after writing %d", pe.ID(), v, i)
				}
			}
		}
		pe.Barrier()
		return nil
	})
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
	if want := uint64(3 * writes); res.Total.RingGM != want || res.Total.RingDrained != want {
		t.Errorf("RingGM = %d, RingDrained = %d, want both %d (every write through the ring, applied once)",
			res.Total.RingGM, res.Total.RingDrained, want)
	}
	if msgs := res.Total.ByOp[wire.OpWrite].Msgs; msgs != 0 {
		t.Errorf("OpWrite messages = %d, want 0", msgs)
	}
}

// TestRingWriteDedupExactlyOnce proves ring sequences and message sequences
// share one exactly-once space: a write applied through the ring must absorb
// a message-path retry carrying the same (Src, Seq), and vice versa. The
// sentinel overwrite between the two deliveries makes a double-apply visible
// as a value regression.
func TestRingWriteDedupExactlyOnce(t *testing.T) {
	_, ks := testKernels(t, 2, func(cfg *Config) { cfg.KernelShards = 2 })
	k := ks[0]
	addr := uint64(0) // block 0: homed at kernel 0, shard 0
	sh := k.shards[k.space.ShardOf(addr, k.nshards)]
	if sh.ring == nil {
		t.Fatal("no ring on a sharded inproc kernel")
	}

	// Ring first, then a message-path retry of the same logical write.
	pos, ok := sh.ring.Push(gmem.RingWrite{Addr: addr, Val: 7, Seq: 5, Src: 1})
	if !ok {
		t.Fatal("push rejected")
	}
	sh.drainRing()
	if !sh.ring.Consumed(pos) {
		t.Fatal("drainRing did not consume the slot")
	}
	if v := k.seg.Read(addr, 1)[0]; v != 7 {
		t.Fatalf("ring write not applied: %d", v)
	}
	k.seg.WriteWord(addr, 1000) // sentinel: a re-apply would clobber this
	retry := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 0, Seq: 5, Addr: addr, Flags: wire.FlagRetry}
	retry.PutWord(7)
	sh.handleGM(retry)
	if v := k.seg.Read(addr, 1)[0]; v != 1000 {
		t.Fatalf("message retry of a ring write re-applied: %d, want sentinel 1000", v)
	}
	if sh.extra.DupRequests != 1 {
		t.Fatalf("DupRequests = %d, want 1", sh.extra.DupRequests)
	}

	// Message first, then a raced ring submission with the same (Src, Seq).
	first := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 0, Seq: 6, Addr: addr}
	first.PutWord(8)
	sh.handleGM(first)
	if v := k.seg.Read(addr, 1)[0]; v != 8 {
		t.Fatalf("message write not applied: %d", v)
	}
	k.seg.WriteWord(addr, 2000)
	if _, ok := sh.ring.Push(gmem.RingWrite{Addr: addr, Val: 8, Seq: 6, Src: 1}); !ok {
		t.Fatal("push rejected")
	}
	sh.drainRing()
	if v := k.seg.Read(addr, 1)[0]; v != 2000 {
		t.Fatalf("ring duplicate of a message write re-applied: %d, want sentinel 2000", v)
	}
	if sh.extra.DupRequests != 2 {
		t.Fatalf("DupRequests = %d, want 2", sh.extra.DupRequests)
	}
	// Duplicates consume ring slots but never count as drained work.
	if sh.extra.RingDrained != 1 {
		t.Fatalf("RingDrained = %d, want 1 (the one fresh ring write)", sh.extra.RingDrained)
	}
}
