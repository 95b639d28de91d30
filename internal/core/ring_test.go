package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestRingWriteFastPath runs a scalar-write-heavy workload with the
// one-sided paths forced on: every uncached remote scalar write into a
// co-located home must be a store in place (RingGM) — zero OpWrite messages
// on the wire — and every value must read back correctly.
func TestRingWriteFastPath(t *testing.T) {
	var remote atomic.Uint64
	prog := func(pe *PE) error {
		n := pe.N()
		bw := pe.Space().BlockWords
		words := 4 * n * bw
		base := pe.AllocBlocks(words)
		pe.Barrier()
		// Each PE writes a disjoint scalar stride spanning every home.
		for i := pe.ID(); i < words; i += n {
			mustWrite(pe, base+uint64(i), int64(i+1))
			if pe.HomeOf(base+uint64(i)) != pe.ID() {
				remote.Add(1)
			}
		}
		pe.Barrier()
		for i := 0; i < words; i++ {
			if v := mustRead(pe, base+uint64(i)); v != int64(i+1) {
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
	if got, want := res.Total.RingGM, remote.Load(); got != want || want == 0 {
		t.Errorf("RingGM = %d, want the %d remote writes", got, want)
	}
	// The scalar write traffic must have vanished from the wire.
	if msgs := res.Total.ByOp[wire.OpWrite].Msgs; msgs != 0 {
		t.Errorf("OpWrite messages = %d, want 0 (every scalar write a store in place)", msgs)
	}
}

// TestMonitorRingWritersSingleShard has several PEs store into the one shard
// of one home, on a real transport, each under the stripe lock of its word.
// Every write must be a store in place and be visible when it returns.
// (A single-shard kernel on a real transport used to refuse one-sided
// writes: it had no worker loop to apply them.)
func TestMonitorRingWritersSingleShard(t *testing.T) {
	const writes = 500
	res, err := Run(Config{
		NumPE: 4, Transport: TransportInproc,
		KernelShards: 1, DirectReads: 1,
	}, func(pe *PE) error {
		mine := homedAt(pe, 0, 1)[0] + uint64(pe.ID())
		pe.Barrier()
		if pe.ID() != 0 {
			for i := int64(1); i <= writes; i++ {
				mustWrite(pe, mine, i)
				if v := mustRead(pe, mine); v != i {
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
	if want := uint64(3 * writes); res.Total.RingGM != want {
		t.Errorf("RingGM = %d, want %d (every write a store in place)", res.Total.RingGM, want)
	}
	if msgs := res.Total.ByOp[wire.OpWrite].Msgs; msgs != 0 {
		t.Errorf("OpWrite messages = %d, want 0", msgs)
	}
}

// TestOneSidedStoreExactlyOnce proves a mutation in place needs no Seq: it
// leaves no dedup record, so it cannot absorb a message-path retry, and a
// retry cannot re-apply a mutation the home has already answered. PE 1
// mutates a word homed at kernel 0 by message under (Src, Seq=s) — a write of
// 7, or a fetch-add of 7 — then mutates it in place — a sentinel stored over
// it, or the sentinel added to it — and then retransmits s with FlagRetry.
// The home's dedup window must answer the retry from its cached reply (for the
// fetch-add, the word as the first request found it) and leave the word as
// the two mutations made it.
func TestOneSidedStoreExactlyOnce(t *testing.T) {
	const sentinel = 1000
	for _, c := range []struct {
		op, reply wire.Op
		inPlace   func(pe *PE, addr uint64)
		want      int64
	}{
		{wire.OpWrite, wire.OpWriteAck, func(pe *PE, addr uint64) { mustWrite(pe, addr, sentinel) }, sentinel},
		{wire.OpFetchAdd, wire.OpFetchAddResp, func(pe *PE, addr uint64) { mustFetchAdd(pe, addr, sentinel) }, 7 + sentinel},
	} {
		t.Run(c.op.String(), func(t *testing.T) {
			res := runWithin(t, time.Minute, Config{
				NumPE: 2, Transport: TransportInproc,
				KernelShards: 1, DirectReads: 1,
			}, func(pe *PE) error {
				addr := homedAt(pe, 0, 1)[0]
				pe.Barrier()
				if pe.ID() == 1 {
					req := wire.GetMessage()
					req.Op, req.Addr = c.op, addr
					if c.op == wire.OpWrite {
						req.PutWord(7)
					} else {
						req.Arg1 = 7
					}
					resp, err := pe.requestErr(0, req) // numbers req: s is req.Seq from here on
					if err != nil {
						return err
					}
					wire.PutMessage(resp)
					c.inPlace(pe, addr) // no message, no Seq
					req.Flags |= wire.FlagRetry
					pe.one[0] = flight{req: req, dst: 0} // the retransmission of s, as exchange makes it
					if err := pe.exchange(pe.one[:], 0); err != nil {
						return err
					}
					if r := pe.one[0].resp; r.Op != c.reply || r.Arg1 != 0 {
						return fmt.Errorf("retry of seq %d answered with %v %d, want the cached %v 0", req.Seq, r.Op, r.Arg1, c.reply)
					}
					wire.PutMessage(pe.one[0].resp)
					wire.PutMessage(req)
					if v := mustRead(pe, addr); v != c.want {
						return fmt.Errorf("retry of seq %d re-applied: word = %d, want %d", req.Seq, v, c.want)
					}
				}
				pe.Barrier()
				return nil
			})
			if res.Total.DupRequests != 1 {
				t.Errorf("DupRequests = %d, want 1 (the retry, absorbed)", res.Total.DupRequests)
			}
			if res.Total.RingGM != 1 || res.Total.ByOp[c.op].Msgs != 2 {
				t.Errorf("RingGM = %d, %v messages = %d, want the sentinel in place and the request and its retry as messages",
					res.Total.RingGM, c.op, res.Total.ByOp[c.op].Msgs)
			}
		})
	}
}
