package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gmem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// runWithin is Run with a watchdog: the monitor tests exist to catch
// deadlocks, and a hung run should fail its own test, not the package's
// timeout.
func runWithin(t *testing.T, d time.Duration, cfg Config, prog Program) *Result {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(cfg, prog)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("Run: %v", o.err)
		}
		if err := o.res.FirstErr(); err != nil {
			t.Fatal(err)
		}
		return o.res
	case <-time.After(d):
		t.Fatalf("run still going after %v: deadlock", d)
		return nil
	}
}

// homedAt returns the base addresses of the first n blocks of a fresh
// allocation that kernel home homes.
func homedAt(pe *PE, home, n int) []uint64 {
	bw := uint64(pe.Space().BlockWords)
	base := pe.AllocBlocks(n * pe.N() * int(bw))
	var out []uint64
	for a := base; len(out) < n; a += bw {
		if pe.Space().HomeOf(a) == home {
			out = append(out, a)
		}
	}
	return out
}

// TestServeOnSender pins who serves a GM request. On inproc the requesting PE
// does, on its own goroutine under its shard's lock: the home's serve loop
// services none of the requests and the shards account all of them, each
// requester's in its own shard when there are two. On tcpnet and simnet the
// serve loop services every one. Either way each operation is still two
// counted wire messages, logged once each.
func TestServeOnSender(t *testing.T) {
	const n, home = 60, 2
	requesters := []int{0, 1}
	ops := []struct{ req, resp wire.Op }{
		{wire.OpRead, wire.OpReadResp},
		{wire.OpWrite, wire.OpWriteAck},
		{wire.OpFetchAdd, wire.OpFetchAddResp},
	}
	for _, tr := range []TransportKind{TransportInproc, TransportTCP, TransportSim} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards%d", tr, shards), func(t *testing.T) {
				var log bytes.Buffer
				cfg := simCfg(3)
				cfg.Transport = tr
				cfg.KernelShards, cfg.DirectReads = shards, -1
				cfg.MessageLog = &log
				var onLoop, onShards [wire.NumOps]uint64
				busyShards := 0
				cfg.testInspect = func(ks []*Kernel, _ []*PE) {
					home := ks[home]
					for op := range onLoop {
						onLoop[op] = home.extra.ServiceByOp[op].Count.Load()
					}
					for _, sh := range home.shards {
						if sh.extra.ShardedMsgs > 0 {
							busyShards++
						}
						for op := range onShards {
							onShards[op] += sh.extra.ServiceByOp[op].Count.Load()
						}
					}
				}
				res := runWithin(t, time.Minute, cfg, func(pe *PE) error {
					words := homedAt(pe, home, len(requesters)) // a word for each requester
					pe.Barrier()
					if pe.ID() != home {
						a := words[pe.ID()]
						for i := 0; i < n; i++ {
							pe.GMWrite(a, int64(i))
							if v := pe.GMRead(a); v != int64(i) {
								return fmt.Errorf("PE %d: read %d after writing %d", pe.ID(), v, i)
							}
							pe.FetchAdd(a, 1)
						}
					}
					pe.Barrier()
					return nil
				})
				inline := tr == TransportInproc
				all := uint64(n * len(requesters))
				for _, op := range ops {
					wantLoop, wantShards := all, uint64(0)
					if inline {
						wantLoop, wantShards = 0, all
					}
					if onLoop[op.req] != wantLoop || onShards[op.req] != wantShards {
						t.Errorf("%v: serve loop serviced %d, shards %d; want %d and %d",
							op.req, onLoop[op.req], onShards[op.req], wantLoop, wantShards)
					}
					for _, o := range []wire.Op{op.req, op.resp} {
						if got := res.Total.ByOp[o].Msgs; got != all {
							t.Errorf("%v: %d messages sent, want %d", o, got, all)
						}
						for _, r := range requesters {
							src, dst := r, home
							if o == op.resp {
								src, dst = home, r
							}
							line := fmt.Sprintf("k=%d %v %d->%d ", dst, o, src, dst)
							if got := strings.Count(log.String(), line); got != n {
								t.Errorf("message log holds %d lines %q, want %d", got, line, n)
							}
						}
					}
				}
				wantSharded, wantBusy := uint64(0), 0
				if inline {
					wantSharded, wantBusy = uint64(len(ops))*all, shards
				}
				if res.Total.ShardedMsgs != wantSharded || busyShards != wantBusy {
					t.Errorf("ShardedMsgs = %d over %d shards, want %d over %d",
						res.Total.ShardedMsgs, busyShards, wantSharded, wantBusy)
				}
				tot := &res.Total
				if tot.DupRequests != 0 || tot.Retries != 0 || tot.StrayDrops != 0 || tot.StaleReplies != 0 {
					t.Errorf("DupRequests=%d Retries=%d StrayDrops=%d StaleReplies=%d, want 0",
						tot.DupRequests, tot.Retries, tot.StrayDrops, tot.StaleReplies)
				}
			})
		}
	}
}

// TestServiceSamplesPerRoundTrip pins the accounting of a message-path round
// trip: each scalar read, write and fetch-add is exactly one RTTByOp sample at
// its requester and one ServiceByOp sample at its home, and a service lies
// inside its round trip, so the service sum never exceeds the round-trip sum.
// On inproc the home serves on the sender and times the service from the
// request engine's stamp (SentAt), so a request's service span starts at the
// very instant its request span does; and its reply is the shard's own
// message: two requesters on one shard take turns with it, which the race
// detector watches.
func TestServiceSamplesPerRoundTrip(t *testing.T) {
	const n, home = 50, 2
	ops := []wire.Op{wire.OpRead, wire.OpWrite, wire.OpFetchAdd}
	for _, tr := range []TransportKind{TransportInproc, TransportTCP, TransportSim} {
		t.Run(string(tr), func(t *testing.T) {
			cfg := simCfg(3)
			cfg.Transport = tr
			cfg.KernelShards, cfg.DirectReads = 1, -1
			cfg.Tracing = trace.TracingConfig{Enabled: true}
			res := runWithin(t, time.Minute, cfg, func(pe *PE) error {
				words := homedAt(pe, home, 2) // a word for each requester
				pe.Barrier()
				if pe.ID() != home {
					a := words[pe.ID()]
					for i := 0; i < n; i++ {
						pe.GMWrite(a, int64(i))
						if v := pe.GMRead(a); v != int64(i) {
							return fmt.Errorf("PE %d: read %d after writing %d", pe.ID(), v, i)
						}
						if old := pe.FetchAdd(a, 1); old != int64(i) {
							return fmt.Errorf("PE %d: fetch-add found %d, want %d", pe.ID(), old, i)
						}
					}
				}
				pe.Barrier()
				return nil
			})
			for _, op := range ops {
				var rtt, service sim.Duration
				for r := range res.PerPE {
					s := &res.PerPE[r]
					wantRTT, wantService := uint64(n), uint64(0)
					if r == home {
						wantRTT, wantService = 0, 2*n
					}
					if got := s.RTTByOp[op].Count.Load(); got != wantRTT {
						t.Errorf("PE %d %v: %d round-trip samples, want %d", r, op, got, wantRTT)
					}
					if got := s.ServiceByOp[op].Count.Load(); got != wantService {
						t.Errorf("PE %d %v: %d service samples, want %d", r, op, got, wantService)
					}
					rtt += s.RTTByOp[op].Snapshot().Sum
					service += s.ServiceByOp[op].Snapshot().Sum
				}
				if service > rtt {
					t.Errorf("%v: services sum to %v, more than their round trips' %v", op, service, rtt)
				}
			}
			if tr != TransportInproc {
				return // the home's clock is not the requester's
			}
			type key struct {
				requester int32
				seq       uint64
			}
			served := map[key]sim.Time{}
			for _, s := range res.Spans {
				if s.Kind == trace.SpanService {
					served[key{s.Peer, s.Seq}] = s.Start
				}
			}
			requests := 0
			for _, s := range res.Spans {
				if s.Kind != trace.SpanRequest || !slices.Contains(ops, s.Op) {
					continue
				}
				requests++
				if start, ok := served[key{s.PE, s.Seq}]; !ok || start != s.Start {
					t.Fatalf("%v %d of PE %d: request span starts at %d ns, its service span at %d ns (found %v)",
						s.Op, s.Seq, s.PE, int64(s.Start), int64(start), ok)
				}
			}
			if requests != 2*n*len(ops) {
				t.Fatalf("%d request spans, want %d", requests, 2*n*len(ops))
			}
		})
	}
}

// TestMonitorSimTakesNoLock pins the rule the simulated transport needs: the
// engine serialises its processes on one goroutine, and a handler's reply Send
// switches to other processes, so a real mutex held across it would block the
// next process to reach for it, and the engine with it. Under simulation lock
// must leave the mutex alone; on a real transport it must take it.
func TestMonitorSimTakesNoLock(t *testing.T) {
	held := func(k *Kernel) bool {
		sh := k.shards[0]
		sh.lock()
		defer sh.unlock()
		if sh.mu.TryLock() {
			sh.mu.Unlock()
			return false
		}
		return true
	}
	_, ks := testKernels(t, 2, nil)
	if !held(ks[0]) {
		t.Error("inproc: shard lock not taken")
	}
	cfg := simCfg(2)
	cfg.testInspect = func(ks []*Kernel, _ []*PE) {
		if held(ks[0]) {
			t.Error("simnet: shard mutex held — a handler's Send would hang the engine")
		}
	}
	runWithin(t, time.Minute, cfg, func(pe *PE) error {
		a := remoteWord(pe)
		pe.GMWrite(a, 1)
		pe.Barrier()
		return nil
	})
}

// TestMonitorDeclinesKernelTraffic pins the no-nested-locks rule at the sink:
// GM traffic a handler sends while holding its shard lock (an invalidation,
// its ack, an escrow re-offer) is never served on the sending context — the
// ack would re-enter the lock its sender holds — but queued for the
// destination's serve loop, as is a request whose Src names no PE. An
// application's request is served on the spot.
func TestMonitorDeclinesKernelTraffic(t *testing.T) {
	net, ks := testKernels(t, 2, func(cfg *Config) { cfg.KernelShards = 2 })
	send := func(m *wire.Message) {
		m.Dst = 1
		ks[0].svc.Send(1, m)
	}
	forged := &wire.Message{Op: wire.OpWriteV, Src: 9, Seq: 1}
	forged.AppendWriteRun(uint64(ks[1].space.BlockWords), []int64{7})
	for _, m := range []*wire.Message{
		{Op: wire.OpInvalidate, Seq: 7},
		{Op: wire.OpInvAck, Seq: 7},
		{Op: wire.OpMigrateInstall, Seq: 8, Arg1: migModeBlock},
		forged,
	} {
		send(m)
		if got := recvFrom(t, net, 1); got.Op != m.Op {
			t.Fatalf("queued %v, want the declined %v", got.Op, m.Op)
		}
	}
	for _, sh := range ks[1].shards {
		if sh.extra.ShardedMsgs != 0 {
			t.Fatalf("shard %d served %d kernel-originated messages inline", sh.idx, sh.extra.ShardedMsgs)
		}
	}
	pe := newPE(ks[0])
	addr := remoteAddr(t, pe, 1)
	ks[1].seg.Write(addr, []int64{77})
	if v, err := pe.GMReadErr(addr); err != nil || v != 77 {
		t.Fatalf("inline read = %d, %v", v, err)
	}
	if got := ks[1].shards[0].extra.ShardedMsgs + ks[1].shards[1].extra.ShardedMsgs; got != 1 {
		t.Fatalf("ShardedMsgs = %d after one application read, want 1", got)
	}
}

// TestMonitorInvalidateUnderLock runs write-invalidate coherence with every
// PE holding cached copies of blocks homed at PE 0 and all three writing into
// them at once: PEs 1 and 2 serve their writes themselves under PE 0's shard
// lock and send OpInvalidate from inside the handler, PE 0's own writes come
// through its serve loop under the same lock, and the acks must find their
// round without any of it deadlocking.
func TestMonitorInvalidateUnderLock(t *testing.T) {
	const rounds = 150
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			res := runWithin(t, 2*time.Minute, Config{
				NumPE: 3, Transport: TransportInproc, GMDefaultMode: gmem.ModeCached, KernelShards: shards,
			}, func(pe *PE) error {
				blocks := homedAt(pe, 0, 2)
				slot := func(b, who int) uint64 { return blocks[b] + uint64(who) }
				pe.Barrier()
				for r := 1; r <= rounds; r++ {
					for b := range blocks { // cache every block here
						for who := 0; who < pe.N(); who++ {
							if v := pe.GMRead(slot(b, who)); v != int64(r-1) {
								return fmt.Errorf("PE %d round %d: slot (%d,%d) = %d", pe.ID(), r, b, who, v)
							}
						}
					}
					pe.Barrier()
					for b := range blocks {
						pe.GMWrite(slot(b, pe.ID()), int64(r))
					}
					pe.Barrier()
				}
				return nil
			})
			if res.Total.ByOp[wire.OpInvAck].Msgs == 0 {
				t.Fatal("no invalidation round ran")
			}
			if res.Total.ShardedMsgs == 0 {
				t.Fatal("no request was served on its sender")
			}
		})
	}
}

// TestCachedBesideOneSided runs a strong and a cached allocation side by side
// on inproc with the window and one-sided stores on. Strong reads come through
// the seqlock window, strong writes are stores in place under the stripe
// locks, and cached words go through served-on-sender requests whose
// invalidations and acks cross the serve loops — every strong access
// one-sided, no cached one.
func TestCachedBesideOneSided(t *testing.T) {
	const rounds = 100
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			var hits atomic.Uint64
			res := runWithin(t, 2*time.Minute, Config{
				NumPE: 3, Transport: TransportInproc, KernelShards: shards, DirectReads: 1,
			}, func(pe *PE) error {
				bw := pe.Space().BlockWords
				regions := []uint64{ // one block per home each
					pe.AllocBlocks(pe.N() * bw),
					pe.AllocBlocksMode(pe.N()*bw, gmem.ModeCached),
				}
				slot := func(base uint64, b, who int) uint64 { return base + uint64(b*bw+who) }
				pe.Barrier()
				for r := 1; r <= rounds; r++ {
					for _, base := range regions {
						for b := 0; b < pe.N(); b++ {
							for who := 0; who < pe.N(); who++ {
								if v := pe.GMRead(slot(base, b, who)); v != int64(r-1) {
									return fmt.Errorf("PE %d round %d: slot (%d,%d) of region %d = %d", pe.ID(), r, b, who, base, v)
								}
							}
						}
					}
					pe.Barrier()
					for _, base := range regions {
						for b := 0; b < pe.N(); b++ {
							pe.GMWrite(slot(base, b, pe.ID()), int64(r))
						}
					}
					pe.Barrier()
				}
				h, _, _ := pe.CacheStats()
				hits.Add(h)
				return nil
			})
			// Per PE and round the strong region has two remote blocks: three
			// reads and one write to each.
			const remoteReads, remoteWrites = 3 * rounds * 2 * 3, 3 * rounds * 2
			if got := res.Total.DirectGM; got != remoteReads {
				t.Errorf("DirectGM = %d, want the %d remote strong reads and no cached one", got, remoteReads)
			}
			if got := res.Total.RingGM; got != remoteWrites {
				t.Errorf("RingGM = %d, want the %d remote strong writes", got, remoteWrites)
			}
			// Every cached write is a message, even to its own home; no strong one.
			if got, want := res.Total.ByOp[wire.OpWrite].Msgs, uint64(3*rounds*3); got != want {
				t.Errorf("OpWrite messages = %d, want the %d cached writes and no strong one", got, want)
			}
			if res.Total.ByOp[wire.OpInvAck].Msgs == 0 {
				t.Error("no invalidation round ran")
			}
			if hits.Load() == 0 {
				t.Error("no cached read hit its copy")
			}
		})
	}
}

// TestMonitorContendedShard has seven requesters fetch-add one word, each
// serving its own requests: with one shard under the lock they all contend
// for, with four under the locks of four shards, so that requesters of
// different shards serve at once and meet only at the word's stripe lock.
// Every addition must be applied exactly once, whatever the scheduler does.
func TestMonitorContendedShard(t *testing.T) {
	const requesters, each = 7, 300
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, shards := range []int{1, 4} {
				var mu sync.Mutex
				var olds []int64
				res := runWithin(t, 2*time.Minute, Config{
					NumPE: requesters + 1, Transport: TransportInproc,
					KernelShards: shards, DirectReads: -1,
				}, func(pe *PE) error {
					ctr := homedAt(pe, 0, 1)[0]
					pe.Barrier()
					if pe.ID() != 0 {
						mine := make([]int64, each)
						for i := range mine {
							mine[i] = pe.FetchAdd(ctr, 1)
						}
						mu.Lock()
						olds = append(olds, mine...)
						mu.Unlock()
					}
					pe.Barrier()
					if v := pe.GMRead(ctr); v != requesters*each {
						return fmt.Errorf("PE %d: counter = %d, want %d", pe.ID(), v, requesters*each)
					}
					pe.Barrier()
					return nil
				})
				sort.Slice(olds, func(i, j int) bool { return olds[i] < olds[j] })
				for i, v := range olds {
					if v != int64(i) {
						t.Fatalf("%d shards: old values are not 0..%d: position %d holds %d (lost or double-applied)", shards, len(olds)-1, i, v)
					}
				}
				if got := res.Total.ServiceByOp[wire.OpFetchAdd].Count.Load(); got != requesters*each {
					t.Fatalf("%d shards: %d fetch-adds serviced, want %d", shards, got, requesters*each)
				}
				if res.Total.DupRequests != 0 {
					t.Fatalf("%d shards: DupRequests = %d", shards, res.Total.DupRequests)
				}
			}
		})
	}
}

// TestMonitorMigrationUnderInlineService moves a block back and forth between
// two homes while two other PEs serve fetch-adds on it themselves. The old
// home flips its directory, fences its shards and extracts; a request
// entering the monitor after the fence must see the flipped directory and
// bounce, one that entered before must finish first — so the count stays
// exact. One shard: before shards were monitors nothing ran beside the serve
// loop there. (The PEs of the two homes stay out of it: a PE's access to a
// block its own kernel homes goes straight to the segment, past the monitor;
// TestOwnHomeWriteDuringMigrationInproc races that one.)
func TestMonitorMigrationUnderInlineService(t *testing.T) {
	const each, hops = 400, 12
	res := runWithin(t, 2*time.Minute, Config{
		NumPE: 4, Transport: TransportInproc,
		KernelShards: 1, DirectReads: -1,
		// A bounce between the old home and the not-yet-installed new one is
		// two inline services, far quicker than the handoff it waits for: give
		// the chase a real pause (inproc compresses it to 100us) or it burns
		// its bounce budget before the install lands.
		RetryBackoff: 100 * sim.Millisecond,
	}, func(pe *PE) error {
		ctr := homedAt(pe, 0, 1)[0]
		pe.Barrier()
		// A failing PE still meets the others at the barrier, or they would
		// wait for it forever.
		var err error
		switch pe.ID() {
		case 0:
			for h := 0; h < hops && err == nil; h++ {
				err = pe.MigrateRange(ctr, 1, (h+1)%2)
			}
		case 2, 3:
			for i := 0; i < each && err == nil; i++ {
				_, err = pe.FetchAddErr(ctr, 1)
			}
		}
		pe.Barrier()
		if err != nil {
			return err
		}
		if v := pe.GMRead(ctr); v != 2*each {
			return fmt.Errorf("PE %d: counter = %d after %d migrations, want %d", pe.ID(), v, hops, 2*each)
		}
		pe.Barrier()
		return nil
	})
	if res.Total.Migrations < hops {
		t.Fatalf("Migrations = %d, want >= %d", res.Total.Migrations, hops)
	}
	if res.Total.MigrateNacks == 0 {
		t.Log("no request bounced off a migrating home in this run")
	}
}

// TestMonitorReplyMailboxDepth: on inproc a PE puts its own replies into its
// reply mailbox before it takes any, so a cluster whose range transfer could
// have more requests in flight, one per home, than the mailbox holds is
// refused up front. The homes' shard counts do not enter into it.
func TestMonitorReplyMailboxDepth(t *testing.T) {
	fits := Config{NumPE: transport.DefaultDepth / 2, Transport: TransportInproc, KernelShards: gmem.SegStripes}
	if _, err := fits.withDefaults(); err != nil {
		t.Fatalf("NumPE %d x %d shards refused: %v", fits.NumPE, fits.KernelShards, err)
	}
	huge := Config{NumPE: transport.DefaultDepth/2 + 1, Transport: TransportInproc, KernelShards: 1}
	if _, err := huge.withDefaults(); err == nil || !strings.Contains(err.Error(), "reply mailbox") {
		t.Fatalf("NumPE %d accepted: %v", huge.NumPE, err)
	}
	huge.Transport = TransportTCP // the serve loop puts, the PE takes: no bound needed
	if _, err := huge.withDefaults(); err != nil {
		t.Fatalf("tcp: %v", err)
	}
}

// TestMonitorGatherUnderWriterStorm reads through the stripes' seqlocks while
// writers keep them busy. A served read takes no stripe mutex: it validates
// against the stripe's seqlock generation, which only a block table swap moves
// (a store is one atomic word store and moves none), and a block-long run takes
// the mutex (gmem.Segment.ReadRun). PE 0 gathers a word of every block and
// reads whole blocks while the home's own PE stores whole blocks straight into
// the segment, past the shard lock the reader's requests are served under, and
// a third PE scatters into the same blocks through it. Every word read must be
// one some writer stored. The stores here never make a read retry, so the
// logged fallback count is that of the table swaps; that the fallback returns a
// whole word is gmem's TestDirectReadFallbackUnderWriterStorm.
func TestMonitorGatherUnderWriterStorm(t *testing.T) {
	const blocks, rounds = gmem.SegStripes, 300
	var fallbacks uint64
	var stop atomic.Bool
	cfg := Config{NumPE: 3, Transport: TransportInproc, KernelShards: 1, DirectReads: -1}
	cfg.testInspect = func(ks []*Kernel, _ []*PE) { fallbacks = ks[1].seg.DirectReadFallbacks() }
	runWithin(t, 2*time.Minute, cfg, func(pe *PE) error {
		bases := homedAt(pe, 1, blocks) // one block in every stripe
		bw := pe.Space().BlockWords
		addrs := make([]uint64, blocks)
		stored := func(v int64) bool { return v == 0 || v&0xff == 1 || v&0xff == 2 }
		pe.Barrier()
		switch pe.ID() {
		case 0:
			var bad error
			for r := 0; r < rounds && bad == nil; r++ {
				for i, b := range bases {
					addrs[i] = b + uint64((r+i)%bw)
				}
				got := append(pe.GMGather(addrs), pe.GMReadBlock(bases[r%blocks], bw)...)
				for _, v := range got {
					if !stored(v) {
						bad = fmt.Errorf("round %d read %#x, a word no writer stored", r, v)
					}
				}
			}
			stop.Store(true)
			if bad != nil {
				return bad
			}
		case 1:
			words := make([]int64, bw)
			for i := 1; !stop.Load(); i++ {
				for j := range words {
					words[j] = int64(i)<<8 | 1
				}
				pe.GMWriteBlock(bases[i%blocks], words)
			}
		case 2:
			vals := make([]int64, blocks)
			for i := 1; !stop.Load(); i++ {
				for j, b := range bases {
					addrs[j], vals[j] = b+uint64((i+j)%bw), int64(i)<<8|2
				}
				pe.GMScatter(addrs, vals)
			}
		}
		pe.Barrier()
		return nil
	})
	t.Logf("served reads fell back to a stripe mutex %d times", fallbacks)
}
