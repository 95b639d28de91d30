package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/gmem"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/internal/wire"
)

// TestJoinLatentPE brings a latent PE into a running cluster and checks the
// re-homed global memory stays intact: every word written before the join —
// including by the latent client itself — reads back correctly afterwards,
// and the joiner ends up homing a share of the blocks.
func TestJoinLatentPE(t *testing.T) {
	res, err := Run(Config{NumPE: 3, Transport: TransportInproc, LatentPEs: 1}, func(pe *PE) error {
		n := pe.N()
		bw := pe.Space().BlockWords
		words := 4 * n * bw
		base := pe.AllocBlocks(words)
		pe.Barrier()
		for i := pe.ID(); i < words; i += n {
			pe.GMWrite(base+uint64(i), int64(i+1))
		}
		pe.Barrier()
		if pe.ID() == n-1 {
			if st := pe.Members()[pe.ID()].State; st != gmem.MemberLatent {
				return fmt.Errorf("latent PE starts as %v", st)
			}
			if err := pe.Join(); err != nil {
				return err
			}
			if st := pe.Members()[pe.ID()].State; st != gmem.MemberActive {
				return fmt.Errorf("joined PE is %v", st)
			}
		}
		pe.Barrier()
		for i := 0; i < words; i++ {
			if v := pe.GMRead(base + uint64(i)); v != int64(i+1) {
				return fmt.Errorf("PE %d after join: word %d = %d, want %d", pe.ID(), i, v, i+1)
			}
		}
		if pe.ID() == n-1 {
			owned := 0
			for b := 0; b < words/bw; b++ {
				if pe.HomeOf(base+uint64(b*bw)) == pe.ID() {
					owned++
				}
			}
			if owned == 0 {
				return fmt.Errorf("joiner homes no blocks")
			}
		}
		pe.Barrier()
		// Post-join writes land at the new homes and stay exactly-once.
		for i := pe.ID(); i < words; i += n {
			pe.GMWrite(base+uint64(i), int64(2*i+1))
		}
		pe.Barrier()
		for i := 0; i < words; i++ {
			if v := pe.GMRead(base + uint64(i)); v != int64(2*i+1) {
				return fmt.Errorf("PE %d post-join write: word %d = %d, want %d", pe.ID(), i, v, 2*i+1)
			}
		}
		pe.Barrier()
		return nil
	})
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
	if res.Total.Joins != 1 {
		t.Errorf("Joins = %d, want 1", res.Total.Joins)
	}
	if res.Total.MigratedBlocks == 0 {
		t.Error("join migrated no blocks")
	}
}

// TestLeaveRehomesBlocks gracefully retires a PE and checks its entire GM
// slice lands at the successor with no lost writes; the left PE keeps
// operating as a pure client.
func TestLeaveRehomesBlocks(t *testing.T) {
	res, err := Run(Config{NumPE: 3, Transport: TransportInproc}, func(pe *PE) error {
		n := pe.N()
		bw := pe.Space().BlockWords
		words := 4 * n * bw
		base := pe.AllocBlocks(words)
		pe.Barrier()
		for i := pe.ID(); i < words; i += n {
			pe.GMWrite(base+uint64(i), int64(i+1))
		}
		pe.Barrier()
		if pe.ID() == n-1 {
			if err := pe.Leave(); err != nil {
				return err
			}
		}
		pe.Barrier()
		for i := 0; i < words; i++ {
			if v := pe.GMRead(base + uint64(i)); v != int64(i+1) {
				return fmt.Errorf("PE %d after leave: word %d = %d, want %d", pe.ID(), i, v, i+1)
			}
		}
		for b := 0; b < words/bw; b++ {
			if h := pe.HomeOf(base + uint64(b*bw)); h == n-1 {
				return fmt.Errorf("PE %d: block %d still homed at the left PE", pe.ID(), b)
			}
		}
		pe.Barrier()
		// The left PE keeps writing as a client.
		for i := pe.ID(); i < words; i += n {
			pe.GMWrite(base+uint64(i), int64(3*i+2))
		}
		pe.Barrier()
		for i := 0; i < words; i++ {
			if v := pe.GMRead(base + uint64(i)); v != int64(3*i+2) {
				return fmt.Errorf("PE %d post-leave write: word %d = %d, want %d", pe.ID(), i, v, 3*i+2)
			}
		}
		pe.Barrier()
		return nil
	})
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
	if res.Total.Leaves != 1 {
		t.Errorf("Leaves = %d, want 1", res.Total.Leaves)
	}
}

// TestMigrateRangeMovesBlocks re-homes an explicit block range on a cluster
// that started static and checks ownership and data both move.
func TestMigrateRangeMovesBlocks(t *testing.T) {
	res, err := Run(Config{NumPE: 2, Transport: TransportInproc}, func(pe *PE) error {
		bw := pe.Space().BlockWords
		words := 4 * bw
		base := pe.AllocBlocks(words)
		pe.Barrier()
		if pe.ID() == 0 {
			for i := 0; i < words; i++ {
				pe.GMWrite(base+uint64(i), int64(100+i))
			}
			if err := pe.MigrateRange(base, 2, 1); err != nil {
				return err
			}
		}
		pe.Barrier()
		for b := 0; b < 2; b++ {
			if h := pe.HomeOf(base + uint64(b*bw)); h != 1 {
				return fmt.Errorf("PE %d: migrated block %d homed at %d, want 1", pe.ID(), b, h)
			}
		}
		for i := 0; i < words; i++ {
			if v := pe.GMRead(base + uint64(i)); v != int64(100+i) {
				return fmt.Errorf("PE %d: word %d = %d, want %d", pe.ID(), i, v, 100+i)
			}
		}
		pe.Barrier()
		return nil
	})
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
	if res.Total.Migrations == 0 || res.Total.MigratedBlocks == 0 {
		t.Errorf("Migrations = %d, MigratedBlocks = %d, want both > 0",
			res.Total.Migrations, res.Total.MigratedBlocks)
	}
}

// TestOwnHomeAccessDuringMigration has PE 1 loop on a word its own kernel
// homes while PE 0 migrates the word's block to kernel 2. Under simulation
// the access's LocalAccess charge sleeps between the home step, which finds
// the word at home, and the segment access, and the migration flips the
// directory during one of those sleeps. The access must then be refused
// inside the stripe's seqlock window or critical section and re-issued as a
// message to the new home — not panic with "not homed at 1" — so the run ends
// with no PE error, a clean history, and every one of the ops applied exactly
// once. The scalar operations, a range operation's own-home run and a
// lease-mode read's own-home block all take that path.
func TestOwnHomeAccessDuringMigration(t *testing.T) {
	const ops = 4000
	for _, c := range []struct {
		name string
		mode gmem.Mode
		op   func(pe *PE, addr uint64, i int64) error
		want int64 // the word once the loop is over
	}{
		{"read", gmem.ModeStrong, func(pe *PE, addr uint64, _ int64) error {
			_, err := pe.GMReadErr(addr)
			return err
		}, 0},
		{"write", gmem.ModeStrong, func(pe *PE, addr uint64, i int64) error { return pe.GMWriteErr(addr, i+1) }, ops},
		{"fetch-add", gmem.ModeStrong, func(pe *PE, addr uint64, _ int64) error {
			_, err := pe.FetchAddErr(addr, 1)
			return err
		}, ops},
		{"cas", gmem.ModeStrong, func(pe *PE, addr uint64, i int64) error {
			if prev, ok, err := pe.CASErr(addr, i, i+1); err != nil || !ok {
				return fmt.Errorf("CAS %d→%d: previous %d, swapped %v, %v", i, i+1, prev, ok, err)
			}
			return nil
		}, ops},
		{"block-read", gmem.ModeStrong, func(pe *PE, addr uint64, _ int64) error {
			_, err := pe.GMReadBlockErr(addr, 4)
			return err
		}, 0},
		{"block-write", gmem.ModeStrong, func(pe *PE, addr uint64, i int64) error {
			return pe.GMWriteBlockErr(addr, []int64{i + 1, i + 2, i + 3, i + 4})
		}, ops},
		{"gather", gmem.ModeStrong, func(pe *PE, addr uint64, _ int64) error {
			_, err := pe.GMGatherErr([]uint64{addr + 1, addr})
			return err
		}, 0},
		{"scatter", gmem.ModeStrong, func(pe *PE, addr uint64, i int64) error {
			return pe.GMScatterErr([]uint64{addr + 1, addr}, []int64{-i, i + 1})
		}, ops},
		{"lease-read", gmem.ModeLease, func(pe *PE, addr uint64, _ int64) error {
			_, err := pe.GMReadErr(addr)
			return err
		}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := simCfg(3)
			cfg.RecordHistory = true
			res, err := Run(cfg, func(pe *PE) error {
				bw := uint64(pe.Space().BlockWords)
				addr := pe.AllocBlocksMode(3*int(bw), c.mode)
				for pe.HomeOf(addr) != 1 {
					addr += bw
				}
				pe.Barrier()
				var err error
				switch pe.ID() {
				case 0:
					err = pe.MigrateRange(addr, 1, 2)
				case 1:
					for i := int64(0); i < ops && err == nil; i++ {
						err = c.op(pe, addr, i)
					}
				}
				pe.Barrier() // a failing PE still meets the others here
				if err != nil {
					return err
				}
				if h := pe.HomeOf(addr); h != 2 {
					return fmt.Errorf("PE %d: block homed at %d after the migration, want 2", pe.ID(), h)
				}
				if v := pe.GMRead(addr); v != c.want {
					return fmt.Errorf("PE %d: word = %d after %d ops, want %d", pe.ID(), v, ops, c.want)
				}
				pe.Barrier()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.FirstErr(); err != nil {
				t.Fatal(err)
			}
			if res.PerPE[1].LocalGM == 0 || res.PerPE[1].RemoteGM == 0 {
				t.Errorf("PE 1: LocalGM = %d, RemoteGM = %d: the migration did not land inside the loop",
					res.PerPE[1].LocalGM, res.PerPE[1].RemoteGM)
			}
			if rep := check.Check(res.History); !rep.OK() {
				t.Fatalf("checker violations:\n%s", rep)
			}
		})
	}
}

// TestOwnHomeWriteDuringMigrationInproc is TestOwnHomeAccessDuringMigration
// with real concurrency, for the race detector: the block moves back and
// forth between kernels 1 and 2 while PE 1 keeps writing it — in its own
// segment while kernel 1 homes it, in kernel 2's in place or by message
// otherwise. Every write must land once, in order, wherever the block is.
func TestOwnHomeWriteDuringMigrationInproc(t *testing.T) {
	const hops = 12
	var moving atomic.Bool
	moving.Store(true)
	res := runWithin(t, 2*time.Minute, Config{
		NumPE: 3, Transport: TransportInproc,
		KernelShards: 2, DirectReads: 1, RecordHistory: true,
		// As in TestMonitorMigrationUnderInlineService: a chase between the old
		// home and the not-yet-installed new one needs a real pause.
		RetryBackoff: 100 * sim.Millisecond,
	}, func(pe *PE) error {
		addr := homedAt(pe, 1, 1)[0]
		pe.Barrier()
		var err error
		var last int64
		switch pe.ID() {
		case 0:
			for h := 0; h < hops && err == nil; h++ {
				err = pe.MigrateRange(addr, 1, 2-h%2)
			}
			moving.Store(false)
		case 1:
			for err == nil && (moving.Load() || last < 100) {
				last++
				err = pe.GMWriteErr(addr, last)
			}
		}
		pe.Barrier()
		if err != nil {
			return err
		}
		if pe.ID() == 1 {
			if v := pe.GMRead(addr); v != last {
				return fmt.Errorf("word = %d after %d writes", v, last)
			}
		}
		pe.Barrier()
		return nil
	})
	if res.Total.Migrations < hops {
		t.Errorf("Migrations = %d, want >= %d", res.Total.Migrations, hops)
	}
	if rep := check.Check(res.History); !rep.OK() {
		t.Fatalf("checker violations:\n%s", rep)
	}
}

// TestInPlaceFetchAddDuringMigrationInproc is the same race for a co-located
// peer's home, with real goroutines for the race detector: PE 0 keeps
// fetch-adding a word kernel 1 homes while PE 2 moves its block back and forth
// between kernels 1 and 2 — in place under the stripe lock of whichever
// kernel homes it, or by message when the lock refused it. Every addition must
// land exactly once, wherever the block is.
func TestInPlaceFetchAddDuringMigrationInproc(t *testing.T) {
	const hops = 12
	var moving atomic.Bool
	moving.Store(true)
	var adds int64
	res := runWithin(t, 2*time.Minute, Config{
		NumPE: 3, Transport: TransportInproc,
		KernelShards: 2, DirectReads: 1, RecordHistory: true,
		RetryBackoff: 100 * sim.Millisecond, // as in TestOwnHomeWriteDuringMigrationInproc
	}, func(pe *PE) error {
		addr := homedAt(pe, 1, 1)[0]
		pe.Barrier()
		var err error
		switch pe.ID() {
		case 2:
			for h := 0; h < hops && err == nil; h++ {
				err = pe.MigrateRange(addr, 1, 2-h%2)
			}
			moving.Store(false)
		case 0:
			for err == nil && (moving.Load() || adds < 100) {
				var old int64
				if old, err = pe.FetchAddErr(addr, 1); err == nil && old != adds {
					err = fmt.Errorf("fetch-add %d found %d", adds+1, old)
				}
				adds++
			}
		}
		pe.Barrier()
		if err != nil {
			return err
		}
		if pe.ID() == 0 {
			if v := pe.GMRead(addr); v != adds {
				return fmt.Errorf("word = %d after %d fetch-adds", v, adds)
			}
		}
		pe.Barrier()
		return nil
	})
	if res.Total.Migrations < hops {
		t.Errorf("Migrations = %d, want >= %d", res.Total.Migrations, hops)
	}
	if res.PerPE[0].RingGM == 0 {
		t.Error("PE 0 applied no fetch-add in place")
	}
	if rep := check.Check(res.History); !rep.OK() {
		t.Fatalf("checker violations:\n%s", rep)
	}
}

// TestInPlaceRangeDuringMigrationInproc is the same race for the range
// operations: PE 0 block-writes, scatters, gathers and block-reads the words
// of a block kernel 1 homes while PE 2 moves it back and forth between
// kernels 1 and 2. A run is served in place at whichever kernel homes it — a
// write window by window, so a migration can refuse a block write part-way —
// and whatever the segment refused goes by message to the home the directory
// names. Every word must hold what the last operation wrote there, and the
// history must be linearisable: an unstored rest sent to the wrong words, or
// a refused run dropped or applied twice out of order, shows in both. A run
// stored part-way counts RemoteGM twice, once in place and once for the rest.
func TestInPlaceRangeDuringMigrationInproc(t *testing.T) {
	const hops, bw, vec = 12, 512, 64 // sixteen store windows per block
	var moving atomic.Bool
	moving.Store(true)
	var rounds, runs uint64
	res := runWithin(t, 2*time.Minute, Config{
		NumPE: 3, Transport: TransportInproc, GMBlockWords: bw,
		KernelShards: 2, DirectReads: 1, RecordHistory: true,
		RetryBackoff: 100 * sim.Millisecond, // as in TestOwnHomeWriteDuringMigrationInproc
	}, func(pe *PE) error {
		base := homedAt(pe, 1, 1)[0]
		addrs, odd := make([]uint64, vec), make([]uint64, vec/2)
		for j := range addrs {
			addrs[j] = base + uint64(j)
		}
		for j := range odd {
			odd[j] = base + uint64(2*j+1)
		}
		// want is word j after round i: the block write's value, negated at
		// the odd words the scatter overwrote.
		want := func(i int64, j int) int64 {
			v := i*bw + int64(j)
			if j < vec && j%2 == 1 {
				return -v
			}
			return v
		}
		pe.Barrier()
		var err error
		switch pe.ID() {
		case 2:
			for h := 0; h < hops && err == nil; h++ {
				err = pe.MigrateRange(base, 1, 2-h%2)
			}
			moving.Store(false)
		case 0:
			block, vals := make([]int64, bw), make([]int64, vec/2)
			for i := int64(1); err == nil && (moving.Load() || rounds < 100); i++ {
				for j := range block {
					block[j] = i*bw + int64(j)
				}
				for j := range vals {
					vals[j] = want(i, 2*j+1)
				}
				var gathered, read []int64
				if err = pe.GMWriteBlockErr(base, block); err == nil {
					if err = pe.GMScatterErr(odd, vals); err == nil {
						if gathered, err = pe.GMGatherErr(addrs); err == nil {
							read, err = pe.GMReadBlockErr(base, bw)
						}
					}
				}
				for _, got := range [][]int64{gathered, read} {
					for j, v := range got {
						if w := want(i, j); err == nil && v != w {
							err = fmt.Errorf("round %d: word %d = %d, want %d", i, j, v, w)
						}
					}
				}
				rounds++
				runs += 1 + vec/2 + vec + 1 // the block write, the scatter's runs, the gather's, the block read
			}
		}
		pe.Barrier()
		return err
	})
	if res.Total.Migrations < hops {
		t.Errorf("Migrations = %d, want >= %d", res.Total.Migrations, hops)
	}
	s := &res.PerPE[0]
	if s.DirectGM == 0 || s.RingGM == 0 {
		t.Errorf("PE 0: DirectGM = %d, RingGM = %d: no range run was served in place", s.DirectGM, s.RingGM)
	}
	// Every run counts RemoteGM once, plus once more for the rest of one
	// stored part-way.
	if s.RemoteGM < runs || s.RemoteGM-runs > s.RingGM {
		t.Errorf("PE 0: RemoteGM = %d over %d runs with RingGM = %d", s.RemoteGM, runs, s.RingGM)
	}
	t.Logf("%d rounds, %d runs, %d stored part-way", rounds, runs, s.RemoteGM-runs)
	if rep := check.Check(res.History); !rep.OK() {
		t.Fatalf("checker violations:\n%s", rep)
	}
}

// TestLatentConfigValidation pins the LatentPEs gating rules.
func TestLatentConfigValidation(t *testing.T) {
	if _, err := (&Config{NumPE: 2, Transport: TransportInproc, LatentPEs: 2}).withDefaults(); err == nil {
		t.Error("LatentPEs == NumPE accepted")
	}
}

// TestMigrateHandoffRaceExactlyOnce pins the write-vs-migration races in both
// orders, sentinel-overwrite style (see TestOneSidedStoreExactlyOnce):
//
//   - A write applied at the old home BEFORE the handoff, retried AFTER it,
//     must be absorbed by the old home's dedup window (cached ack resent) —
//     never forwarded and re-applied at the new home.
//   - A write arriving at the old home AFTER the handoff must be NACKed
//     untouched, apply exactly once at the hinted new home, and a further
//     retry there must be absorbed.
func TestMigrateHandoffRaceExactlyOnce(t *testing.T) {
	net, ks := testKernels(t, 2, nil)
	addr := uint64(0) // block 0, homed at kernel 0

	// Order 1: write, then migrate, then retry the write at the old home.
	w := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 0, Seq: 101, Addr: addr}
	w.PutWord(7)
	ks[0].handle(w)
	if ack := replyFrom(t, ks[1]); ack.Op != wire.OpWriteAck {
		t.Fatalf("initial write ack = %v", ack)
	}

	ks[0].handle(&wire.Message{Op: wire.OpMigrateStart, Src: 1, Dst: 0, Seq: 102, Arg1: migModeBlock, Arg2: 1, Addr: addr})
	start := replyFrom(t, ks[1])
	if start.Op != wire.OpMigrateStartResp || start.Arg1 != 1 {
		t.Fatalf("migrate start resp = %v", start)
	}
	inst := &wire.Message{Op: wire.OpMigrateInstall, Src: 1, Dst: 1, Seq: 103, Arg1: migModeBlock, Addr: addr}
	inst.Data = append([]byte(nil), start.Data...)
	ks[1].handle(inst)
	if r := recvFrom(t, net, 1); r.Op != wire.OpMigrateInstallResp {
		t.Fatalf("install resp = %v", r)
	}
	if v := ks[1].seg.Read(addr, 1)[0]; v != 7 {
		t.Fatalf("migrated value = %d, want 7", v)
	}
	if !ks[1].dir.Owns(1, 0) || ks[0].dir.Owns(0, 0) {
		t.Fatal("ownership did not flip on both sides")
	}

	// Commit so the old home's escrow clears (re-offer traffic would
	// otherwise interleave with the replies asserted below).
	for i := range ks {
		ks[i].handle(&wire.Message{Op: wire.OpMigrateCommit, Src: 1, Dst: int32(i), Seq: uint64(104 + i), Addr: addr, Arg1: 1, Arg2: 1})
		var r *wire.Message
		if i == 1 {
			r = recvFrom(t, net, 1) // a node's message to itself queues for its serve loop
		} else {
			r = replyFrom(t, ks[1])
		}
		if r.Op != wire.OpMigrateCommitResp {
			t.Fatalf("commit resp = %v", r)
		}
	}

	ks[1].seg.WriteWord(addr, 1000) // sentinel: a re-apply would clobber this
	retry := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 0, Seq: 101, Addr: addr, Flags: wire.FlagRetry}
	retry.PutWord(7)
	ks[0].handle(retry)
	if ack := replyFrom(t, ks[1]); ack.Op != wire.OpWriteAck {
		t.Fatalf("retried write after handoff: got %v, want the cached OpWriteAck", ack)
	}
	if v := ks[1].seg.Read(addr, 1)[0]; v != 1000 {
		t.Fatalf("retry re-applied across the handoff: %d, want sentinel 1000", v)
	}

	// Order 2: write arrives at the old home after the handoff — NACK with
	// the new home hinted, exactly-once at the new home, retry absorbed.
	w2 := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 0, Seq: 110, Addr: addr}
	w2.PutWord(8)
	ks[0].handle(w2)
	nack := replyFrom(t, ks[1])
	if nack.Op != wire.OpMigrateNack || nack.Arg1 != 1 {
		t.Fatalf("stale-home write: got %v, want OpMigrateNack hinting kernel 1", nack)
	}
	redirected := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 1, Seq: 110, Addr: addr, Flags: wire.FlagRetry}
	redirected.PutWord(8)
	ks[1].handle(redirected)
	if ack := recvFrom(t, net, 1); ack.Op != wire.OpWriteAck {
		t.Fatalf("redirected write ack = %v", ack)
	}
	if v := ks[1].seg.Read(addr, 1)[0]; v != 8 {
		t.Fatalf("redirected write not applied: %d", v)
	}
	ks[1].seg.WriteWord(addr, 2000)
	retry2 := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 1, Seq: 110, Addr: addr, Flags: wire.FlagRetry}
	retry2.PutWord(8)
	ks[1].handle(retry2)
	if ack := recvFrom(t, net, 1); ack.Op != wire.OpWriteAck {
		t.Fatalf("retried redirected write ack = %v", ack)
	}
	if v := ks[1].seg.Read(addr, 1)[0]; v != 2000 {
		t.Fatalf("redirected retry re-applied: %d, want sentinel 2000", v)
	}
	// A lost NACK is also covered: NACKs are not cached in the dedup window
	// (that would mask the seq at a home the block later lands on), so a
	// retry at the old home simply recomputes the same NACK.
	w3 := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 0, Seq: 110, Addr: addr, Flags: wire.FlagRetry}
	w3.PutWord(8)
	ks[0].handle(w3)
	if n2 := replyFrom(t, ks[1]); n2.Op != wire.OpMigrateNack {
		t.Fatalf("retry after lost NACK: got %v, want a recomputed OpMigrateNack", n2)
	}
}

// TestEscrowReofferHealsDeadInitiator kills the migration between the
// extract and the install (by simply never sending the install): the first
// request that bounces off the old home must push the escrowed block to the
// new home, and the re-offered payload must not clobber writes the new home
// applied in the meantime.
func TestEscrowReofferHealsDeadInitiator(t *testing.T) {
	net, ks := testKernels(t, 2, nil)
	addr := uint64(0)
	w := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 0, Seq: 201, Addr: addr}
	w.PutWord(7)
	ks[0].handle(w)
	replyFrom(t, ks[1]) // ack

	// Extract toward kernel 1 — and then the initiator "dies": no install.
	ks[0].handle(&wire.Message{Op: wire.OpMigrateStart, Src: 1, Dst: 0, Seq: 202, Arg1: migModeBlock, Arg2: 1, Addr: addr})
	replyFrom(t, ks[1]) // start resp, dropped on the floor
	if _, ok := ks[0].escrowLookup(0); !ok {
		t.Fatal("extracted block not escrowed")
	}

	// A later write bounces off the old home: the NACK must be preceded by a
	// fire-and-forget re-offer of the escrowed block to kernel 1.
	w2 := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 0, Seq: 203, Addr: addr}
	w2.PutWord(9)
	ks[0].handle(w2)
	offer := recvFrom(t, net, 1)
	if offer.Op != wire.OpMigrateInstall || offer.Arg1 != migModeBlock {
		t.Fatalf("expected the escrow re-offer install, got %v", offer)
	}
	if nack := replyFrom(t, ks[1]); nack.Op != wire.OpMigrateNack || nack.Arg1 != 1 {
		t.Fatalf("expected OpMigrateNack hinting kernel 1, got %v", nack)
	}

	// The redirected write reaches kernel 1 BEFORE the re-offer install:
	// kernel 1's directory (still static) does not own the block yet, so the
	// write must bounce — applying it into a lazily-created block would lose
	// it when the install adopts over it.
	red := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 1, Seq: 203, Addr: addr, Flags: wire.FlagRetry}
	red.PutWord(9)
	ks[1].handle(red)
	if b := recvFrom(t, net, 1); b.Op != wire.OpMigrateNack || b.Arg1 != 0 {
		t.Fatalf("early redirect: got %v, want a bounce back to kernel 0", b)
	}
	// The install lands; the bounced write's retry now applies.
	ks[1].handle(offer)
	if r := replyFrom(t, ks[0]); r.Op != wire.OpMigrateInstallResp {
		t.Fatalf("re-offer install resp = %v", r)
	}
	red2 := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 1, Seq: 203, Addr: addr, Flags: wire.FlagRetry}
	red2.PutWord(9)
	ks[1].handle(red2)
	if ack := recvFrom(t, net, 1); ack.Op != wire.OpWriteAck {
		t.Fatalf("retry after install: got %v, want OpWriteAck", ack)
	}
	if v := ks[1].seg.Read(addr, 1)[0]; v != 9 {
		t.Fatalf("redirected write = %d, want 9", v)
	}
	// A second re-offer (fresh seq — each re-offer allocates one) must not
	// clobber the newer write: the block is now owned and materialised, so
	// the install's clobber guard skips it.
	offer2 := &wire.Message{Op: wire.OpMigrateInstall, Src: 0, Dst: 1, Seq: 999, Arg1: migModeBlock, Addr: offer.Addr}
	offer2.Data = append([]byte(nil), offer.Data...)
	ks[1].handle(offer2)
	if r := replyFrom(t, ks[0]); r.Op != wire.OpMigrateInstallResp || r.Arg1 != 0 {
		t.Fatalf("duplicate re-offer resp = %v, want 0 blocks adopted", r)
	}
	if v := ks[1].seg.Read(addr, 1)[0]; v != 9 {
		t.Fatalf("late re-offer clobbered a newer write: %d, want 9", v)
	}

	// An epoch update that shows the destination owning the block clears the
	// old home's escrow.
	ks[0].handle(&wire.Message{Op: wire.OpMigrateCommit, Src: 1, Dst: 0, Seq: 204, Addr: addr, Arg1: 1, Arg2: 1})
	replyFrom(t, ks[1])
	if _, ok := ks[0].escrowLookup(0); ok {
		t.Fatal("escrow not cleared by the commit")
	}
}

// TestGrantServiceSerialisesTransitions pins kernel 0's membership grant
// protocol: one open grant at a time, busy signalled as Arg1 = 0, the same
// member re-requesting gets its generation back, and the grantee's epoch
// update releases the slot.
func TestGrantServiceSerialisesTransitions(t *testing.T) {
	_, ks := testKernels(t, 3, func(cfg *Config) { cfg.LatentPEs = 2 })
	ks[0].handle(&wire.Message{Op: wire.OpJoin, Src: 1, Dst: 0, Seq: 301})
	g1 := replyFrom(t, ks[1])
	if g1.Op != wire.OpJoinResp || g1.Arg1 == 0 {
		t.Fatalf("first grant = %v", g1)
	}
	// A competing transition is refused while the grant is open...
	ks[0].handle(&wire.Message{Op: wire.OpJoin, Src: 2, Dst: 0, Seq: 302})
	if busy := replyFrom(t, ks[2]); busy.Op != wire.OpJoinResp || busy.Arg1 != 0 {
		t.Fatalf("competing grant = %v, want busy (Arg1 = 0)", busy)
	}
	// ...the holder re-requesting (lost response) gets the same generation...
	ks[0].handle(&wire.Message{Op: wire.OpJoin, Src: 1, Dst: 0, Seq: 303})
	if again := replyFrom(t, ks[1]); again.Op != wire.OpJoinResp || again.Arg1 != g1.Arg1 {
		t.Fatalf("re-request = %v, want the open generation %d", again, g1.Arg1)
	}
	// ...and the holder's epoch update releases the slot for the next member.
	ks[0].handle(&wire.Message{Op: wire.OpEpochUpdate, Src: 1, Dst: 0, Seq: 304, Arg1: 1, Arg2: int64(gmem.MemberActive), Addr: uint64(g1.Arg1)})
	if r := replyFrom(t, ks[1]); r.Op != wire.OpEpochUpdateResp {
		t.Fatalf("epoch update resp = %v", r)
	}
	ks[0].handle(&wire.Message{Op: wire.OpJoin, Src: 2, Dst: 0, Seq: 305})
	g2 := replyFrom(t, ks[2])
	if g2.Op != wire.OpJoinResp || g2.Arg1 == 0 || g2.Arg1 == g1.Arg1 {
		t.Fatalf("next grant = %v, want a fresh non-busy generation", g2)
	}
}

// TestStaleEpochUpdateKeepsGrantOpen pins the grant-release generation guard:
// epoch updates are idempotent and retransmitted, so a delayed duplicate of a
// member's PREVIOUS transition broadcast arriving after the same member opened
// a fresh grant must NOT free the slot — that would let two membership
// transitions run concurrently.
func TestStaleEpochUpdateKeepsGrantOpen(t *testing.T) {
	_, ks := testKernels(t, 3, func(cfg *Config) { cfg.LatentPEs = 2 })
	// Member 1 completes a join under generation g1.
	ks[0].handle(&wire.Message{Op: wire.OpJoin, Src: 1, Dst: 0, Seq: 401})
	g1 := replyFrom(t, ks[1])
	if g1.Op != wire.OpJoinResp || g1.Arg1 == 0 {
		t.Fatalf("first grant = %v", g1)
	}
	ks[0].handle(&wire.Message{Op: wire.OpEpochUpdate, Src: 1, Dst: 0, Seq: 402, Arg1: 1, Arg2: int64(gmem.MemberActive), Addr: uint64(g1.Arg1)})
	replyFrom(t, ks[1])
	// The same member opens a fresh grant (a leave this time).
	ks[0].handle(&wire.Message{Op: wire.OpLeave, Src: 1, Dst: 0, Seq: 403})
	g2 := replyFrom(t, ks[1])
	if g2.Op != wire.OpLeaveResp || g2.Arg1 == 0 || g2.Arg1 <= g1.Arg1 {
		t.Fatalf("second grant = %v, want a fresh generation above %d", g2, g1.Arg1)
	}
	// A delayed duplicate of the join's epoch update must not close it...
	ks[0].handle(&wire.Message{Op: wire.OpEpochUpdate, Src: 1, Dst: 0, Seq: 404, Arg1: 1, Arg2: int64(gmem.MemberActive), Addr: uint64(g1.Arg1)})
	replyFrom(t, ks[1])
	ks[0].handle(&wire.Message{Op: wire.OpJoin, Src: 2, Dst: 0, Seq: 405})
	if busy := replyFrom(t, ks[2]); busy.Op != wire.OpJoinResp || busy.Arg1 != 0 {
		t.Fatalf("grant after stale epoch update = %v, want busy (Arg1 = 0)", busy)
	}
	// ...while the leave's own epoch update (generation g2) does.
	ks[0].handle(&wire.Message{Op: wire.OpEpochUpdate, Src: 1, Dst: 0, Seq: 406, Arg1: 1, Arg2: int64(gmem.MemberLeft), Addr: uint64(g2.Arg1)})
	replyFrom(t, ks[1])
	ks[0].handle(&wire.Message{Op: wire.OpJoin, Src: 2, Dst: 0, Seq: 407})
	g3 := replyFrom(t, ks[2])
	if g3.Op != wire.OpJoinResp || g3.Arg1 == 0 {
		t.Fatalf("grant after fresh epoch update = %v, want a real generation", g3)
	}
}

// TestCorruptInstallRetryNotAbsorbed pins the drop-path dedup release: a
// MigrateInstall whose payload arrives truncated is dropped without a reply,
// and the initiator retransmits the payload under the SAME sequence number —
// the retry must be re-evaluated and installed, not absorbed by the dedup
// window as an in-progress duplicate (which would hang the initiator forever).
func TestCorruptInstallRetryNotAbsorbed(t *testing.T) {
	net, ks := testKernels(t, 2, nil)
	addr := uint64(0) // block 0, homed at kernel 0
	w := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 0, Seq: 501, Addr: addr}
	w.PutWord(7)
	ks[0].handle(w)
	replyFrom(t, ks[1]) // ack
	ks[0].handle(&wire.Message{Op: wire.OpMigrateStart, Src: 1, Dst: 0, Seq: 502, Arg1: migModeBlock, Arg2: 1, Addr: addr})
	start := replyFrom(t, ks[1])
	if start.Op != wire.OpMigrateStartResp {
		t.Fatalf("migrate start resp = %v", start)
	}
	// First install attempt: truncated payload, dropped without a reply.
	bad := &wire.Message{Op: wire.OpMigrateInstall, Src: 1, Dst: 1, Seq: 503, Arg1: migModeBlock, Addr: addr}
	bad.Data = append([]byte(nil), start.Data[:3]...)
	ks[1].handle(bad)
	if ks[1].extra.CorruptDrops == 0 {
		t.Fatal("corrupt install not counted")
	}
	// The retry resends the full payload under the same sequence number.
	retry := &wire.Message{Op: wire.OpMigrateInstall, Src: 1, Dst: 1, Seq: 503, Arg1: migModeBlock, Addr: addr, Flags: wire.FlagRetry}
	retry.Data = append([]byte(nil), start.Data...)
	ks[1].handle(retry)
	if r := recvFrom(t, net, 1); r.Op != wire.OpMigrateInstallResp || r.Arg1 != 1 {
		t.Fatalf("retried install resp = %v, want 1 block adopted", r)
	}
	if v := ks[1].seg.Read(addr, 1)[0]; v != 7 {
		t.Fatalf("migrated value = %d, want 7", v)
	}
}

// poisonNet is an inproc network on which PE who overwrites the payload scratch
// of every message the pool will hand out next before it sends a
// migrate-install: the state of the world in which, after a loss, the install
// is sent again.
type poisonNet struct {
	*inproc.Net
	who int
}

type poisonNode struct{ transport.SinkNode }

type poisonPort struct{ transport.Port }

func (n poisonNet) Node(i int) transport.Node {
	if i != n.who {
		return n.Net.Node(i)
	}
	return poisonNode{n.Net.Node(i).(transport.SinkNode)}
}

func (nd poisonNode) App() transport.Port { return poisonPort{nd.SinkNode.App()} }

func (p poisonPort) Send(dst int, m *wire.Message) {
	if m.Op == wire.OpMigrateInstall {
		junk := make([]int64, 16)
		for i := range junk {
			junk[i] = -1
		}
		taken := make([]*wire.Message, 64)
		for i := range taken {
			taken[i] = wire.GetMessage()
			taken[i].PutWords(junk)
		}
		for _, g := range taken {
			wire.PutMessage(g)
		}
	}
	p.Port.Send(dst, m)
}

// TestInstallPayloadOutlivesStartResponse is the regression test of a
// use-after-recycle in the three membership handoffs: the install request
// carries the migrate-start response's payload by alias, and Join, Leave and
// MigrateRange used to put that response back into the pool BEFORE sending the
// install (and, under loss, sending it again), so that whichever message took
// the buffer from the pool in between wrote over the blocks in transit. The PE
// driving the handoff poisons the pool between the two exchanges; the
// installed blocks must hold what was written before the handoff. (The race detector randomises
// sync.Pool, so under -race the old code is only sometimes convicted; without
// it, always.)
func TestInstallPayloadOutlivesStartResponse(t *testing.T) {
	for _, tc := range []struct {
		name    string
		latent  int
		handoff func(pe *PE, base uint64) error
	}{
		{"migrate", 0, func(pe *PE, base uint64) error { return pe.MigrateRange(base, 2, 1) }},
		{"leave", 0, func(pe *PE, _ uint64) error { return pe.Leave() }},
		{"join", 1, func(pe *PE, _ uint64) error { return pe.Join() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The timeout turns an install that arrives corrupt, and is dropped
			// however often it is retried, into a failure instead of a hang.
			cfg, err := (&Config{NumPE: 2, Transport: TransportInproc, LatentPEs: tc.latent,
				RequestTimeout: 200 * sim.Millisecond, RequestRetries: 1}).withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			// Any member may initiate a migration; a leaver or joiner drives
			// its own handoff, and kernel 0 can be neither.
			driver := 0
			if tc.name != "migrate" {
				driver = 1
			}
			res, err := runReal(&cfg, poisonNet{inproc.New(2), driver}, func(pe *PE) error {
				bw := pe.Space().BlockWords
				words := 4 * bw
				base := pe.AllocBlocks(words)
				pe.Barrier()
				if pe.ID() == 0 {
					for i := 0; i < words; i++ {
						pe.GMWrite(base+uint64(i), int64(100+i))
					}
				}
				pe.Barrier()
				if pe.ID() == driver {
					if err := tc.handoff(pe, base); err != nil {
						return err
					}
				}
				pe.Barrier()
				for i := 0; i < words; i++ {
					if v := pe.GMRead(base + uint64(i)); v != int64(100+i) {
						return fmt.Errorf("PE %d: word %d = %d after the handoff, want %d", pe.ID(), i, v, 100+i)
					}
				}
				pe.Barrier()
				return nil
			})
			if err != nil || res.FirstErr() != nil {
				t.Fatal(err, res.FirstErr())
			}
			if res.Total.MigratedBlocks == 0 {
				t.Error("the handoff moved no blocks")
			}
		})
	}
}
