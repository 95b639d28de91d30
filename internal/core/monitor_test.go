package core

import (
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
// counted wire messages, each sent by the kernel it should come from.
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
				cfg := simCfg(3)
				cfg.Transport = tr
				cfg.KernelShards, cfg.DirectReads = shards, -1
				var onLoop, onShards [wire.NumOps]uint64
				busyShards := 0
				cfg.testInspect = func(ks []*Kernel, _ []*PE) {
					home := ks[home]
					for op := range onLoop {
						onLoop[op] = home.extra.ServiceByOp[op].Snapshot().Count
					}
					for _, sh := range home.shards {
						if sh.extra.ShardedMsgs > 0 {
							busyShards++
						}
						for op := range onShards {
							onShards[op] += sh.extra.ServiceByOp[op].Snapshot().Count
						}
					}
				}
				res := runWithin(t, time.Minute, cfg, func(pe *PE) error {
					words := homedAt(pe, home, len(requesters)) // a word for each requester
					pe.Barrier()
					if pe.ID() != home {
						a := words[pe.ID()]
						for i := 0; i < n; i++ {
							mustWrite(pe, a, int64(i))
							if v := mustRead(pe, a); v != int64(i) {
								return fmt.Errorf("PE %d: read %d after writing %d", pe.ID(), v, i)
							}
							mustFetchAdd(pe, a, 1)
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
					}
					for _, r := range requesters {
						if got := res.PerPE[r].ByOp[op.req].Msgs; got != n {
							t.Errorf("PE %d sent %d %v, want %d", r, got, op.req, n)
						}
					}
					if got := res.PerPE[home].ByOp[op.resp].Msgs; got != all {
						t.Errorf("home sent %d %v, want %d", got, op.resp, all)
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
						mustWrite(pe, a, int64(i))
						if v := mustRead(pe, a); v != int64(i) {
							return fmt.Errorf("PE %d: read %d after writing %d", pe.ID(), v, i)
						}
						if old := mustFetchAdd(pe, a, 1); old != int64(i) {
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
					if got := s.RTTByOp[op].Snapshot().Count; got != wantRTT {
						t.Errorf("PE %d %v: %d round-trip samples, want %d", r, op, got, wantRTT)
					}
					if got := s.ServiceByOp[op].Snapshot().Count; got != wantService {
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

// TestFirstSampleHistograms pins that a per-op histogram exists only once its
// op has had an event. Two requesters share the home's one shard on inproc
// and make scalar reads only, so among the GM request ops only OpRead has a
// round-trip histogram at the requesters and a service histogram at the home.
// That shard histogram is allocated by whichever requester serves first
// under the shard lock, which the race detector watches.
func TestFirstSampleHistograms(t *testing.T) {
	const n, home = 50, 2
	cfg := messagePath
	cfg.NumPE = 3
	res := runWithin(t, time.Minute, cfg, func(pe *PE) error {
		words := homedAt(pe, home, 2) // a word for each requester
		pe.Barrier()
		if pe.ID() != home {
			for i := 0; i < n; i++ {
				mustRead(pe, words[pe.ID()])
			}
		}
		pe.Barrier()
		return nil
	})
	for r := range res.PerPE {
		// A requester's reads are round trips, the home's services.
		s := &res.PerPE[r]
		own, other, want := &s.RTTByOp, &s.ServiceByOp, uint64(n)
		if r == home {
			own, other, want = other, own, 2*n
		}
		for i := range own {
			switch op := wire.Op(i); {
			case !servedOnSender(op):
			case other[op] != nil:
				t.Errorf("PE %d has a histogram for the other side of %v", r, op)
			case op != wire.OpRead && own[op] != nil:
				t.Errorf("PE %d has a %v histogram but no %v event", r, op, op)
			case op == wire.OpRead && own[op].Snapshot().Count != want:
				t.Errorf("PE %d: %d %v events, want %d", r, own[op].Snapshot().Count, op, want)
			}
		}
	}
}

// TestTimedRoundTrips pins which round trips are timed (DESIGN.md §8). Two
// requesters each make k scalar reads, writes and fetch-adds at one home and
// one gather over two homes, with tracing off and on. Count is the exact
// number of events on every transport. simnet and tcpnet time every round
// trip, and so does inproc while spans are recorded; otherwise inproc times
// the first of each op kind's round trips in inprocTimeEvery, per requester.
// A home times a service exactly when its round trip is timed, and the timed
// services sum to no more than the timed round trips they lie in.
func TestTimedRoundTrips(t *testing.T) {
	const k, home = 40, 2
	ops := []wire.Op{wire.OpRead, wire.OpWrite, wire.OpFetchAdd}
	for _, tr := range []TransportKind{TransportInproc, TransportSim, TransportTCP} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tracing=%v", tr, traced), func(t *testing.T) {
				cfg := simCfg(3)
				cfg.Transport = tr
				cfg.KernelShards, cfg.DirectReads = 1, -1
				cfg.Tracing = trace.TracingConfig{Enabled: traced}
				res := runWithin(t, time.Minute, cfg, func(pe *PE) error {
					words := homedAt(pe, home, 2)
					var gather []uint64
					for h := 0; h < pe.N(); h++ {
						if h != pe.ID() {
							gather = append(gather, homedAt(pe, h, 2)...) // two runs a home: one OpReadV
						}
					}
					pe.Barrier()
					if pe.ID() != home {
						a := words[pe.ID()]
						for i := 0; i < k; i++ {
							mustWrite(pe, a, int64(i))
							mustRead(pe, a)
							mustFetchAdd(pe, a, 1)
						}
						mustGather(pe, gather)
					}
					pe.Barrier()
					return nil
				})
				timedRTT := uint64(k)
				if tr == TransportInproc && !traced {
					timedRTT = (k + inprocTimeEvery - 1) / inprocTimeEvery
				}
				for _, op := range ops {
					var rtt, service sim.Duration
					for r := range res.PerPE {
						rs, ss := res.PerPE[r].RTTByOp[op].Snapshot(), res.PerPE[r].ServiceByOp[op].Snapshot()
						wantCount, wantTimed := uint64(k), timedRTT
						if r == home {
							wantCount, wantTimed = 0, 0
						}
						if rs.Count != wantCount || rs.Timed != wantTimed {
							t.Errorf("PE %d %v: %d round trips, %d timed; want %d, %d", r, op, rs.Count, rs.Timed, wantCount, wantTimed)
						}
						wantCount, wantTimed = 0, 0
						if r == home {
							wantCount, wantTimed = 2*k, 2*timedRTT
						}
						if ss.Count != wantCount || ss.Timed != wantTimed {
							t.Errorf("PE %d %v: %d services, %d timed; want %d, %d", r, op, ss.Count, ss.Timed, wantCount, wantTimed)
						}
						rtt += rs.Sum
						service += ss.Sum
					}
					if service > rtt {
						t.Errorf("%v: timed services sum to %v, more than their round trips' %v", op, service, rtt)
					}
				}
				// A gather is one round trip, its requesters' first: timed.
				gr, gs := res.Total.RTTByOp[wire.OpReadV].Snapshot(), res.Total.ServiceByOp[wire.OpReadV].Snapshot()
				if gr.Count != 2 || gr.Timed != 2 || gs.Count != 4 || gs.Timed != 4 {
					t.Errorf("gathers: %d round trips (%d timed), %d services (%d timed); want 2 (2), 4 (4)",
						gr.Count, gr.Timed, gs.Count, gs.Timed)
				}
			})
		}
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
		mustWrite(pe, a, 1)
		pe.Barrier()
		return nil
	})
}

// TestMonitorDeclinesKernelTraffic pins the no-nested-locks rule at the sink:
// what a handler sends while holding its shard lock (an escrow re-offer) is
// never served on the sending context but queued for the destination's serve
// loop, as is a request whose Src names no PE. An application's request is
// served on the spot.
func TestMonitorDeclinesKernelTraffic(t *testing.T) {
	net, ks := testKernels(t, 2, func(cfg *Config) { cfg.KernelShards = 2 })
	send := func(m *wire.Message) {
		m.Dst = 1
		ks[0].svc.Send(1, m)
	}
	forged := &wire.Message{Op: wire.OpWriteV, Src: 9, Seq: 1}
	forged.AppendWriteRun(uint64(ks[1].space.BlockWords), []int64{7})
	for _, m := range []*wire.Message{
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
							mine[i] = mustFetchAdd(pe, ctr, 1)
						}
						mu.Lock()
						olds = append(olds, mine...)
						mu.Unlock()
					}
					pe.Barrier()
					if v := mustRead(pe, ctr); v != requesters*each {
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
				if got := res.Total.ServiceByOp[wire.OpFetchAdd].Snapshot().Count; got != requesters*each {
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
		if v := mustRead(pe, ctr); v != 2*each {
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
				got := append(mustGather(pe, addrs), mustReadBlock(pe, bases[r%blocks], bw)...)
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
				mustWriteBlock(pe, bases[i%blocks], words)
			}
		case 2:
			vals := make([]int64, blocks)
			for i := 1; !stop.Load(); i++ {
				for j, b := range bases {
					addrs[j], vals[j] = b+uint64((i+j)%bw), int64(i)<<8|2
				}
				must(pe.GMScatterErr(addrs, vals))
			}
		}
		pe.Barrier()
		return nil
	})
	t.Logf("served reads fell back to a stripe mutex %d times", fallbacks)
}
