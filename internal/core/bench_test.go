package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gmem"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/wire"
)

// messagePath pins a benchmark cluster to the request/reply message path:
// one shard, no reads or stores in place. Left at zero, DirectReads puts
// inproc's paths in place on, and remote scalar ops silently take the
// ~50 ns window instead of the ~3 µs message round trip the benchmarks
// below describe.
var messagePath = Config{Transport: TransportInproc, KernelShards: 1, DirectReads: -1}

// runBenchProgram runs body once over the cluster cfg describes with n PEs,
// b.N iterations inside the program (cluster construction excluded from the
// loop cost only approximately; these benchmarks measure runtime primitives,
// not the constructor).
func runBenchProgram(b *testing.B, cfg Config, n int, body Program) *Result {
	b.Helper()
	cfg.NumPE = n
	res, err := Run(cfg, body)
	if err != nil {
		b.Fatal(err)
	}
	if err := res.FirstErr(); err != nil {
		b.Fatal(err)
	}
	return res
}

// remoteWord returns a word of a fresh allocation homed at the other kernel
// of a 2-PE cluster.
func remoteWord(pe *PE) uint64 {
	addr := pe.Alloc(64)
	for pe.Space().HomeOf(addr) == pe.ID() {
		addr++
	}
	return addr
}

// benchRemoteRead times PE 0 reading a word homed at PE 1 over the message
// path and asserts from the counters that no read took the window.
func benchRemoteRead(b *testing.B, cfg Config) {
	res := runBenchProgram(b, cfg, 2, func(pe *PE) error {
		addr := remoteWord(pe)
		pe.Barrier()
		if pe.ID() == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustRead(pe, addr)
			}
			b.StopTimer()
		}
		pe.Barrier()
		return nil
	})
	if got := res.Total.DirectGM + res.Total.RingGM; got != 0 {
		b.Fatalf("message-path benchmark took a one-sided path %d times", got)
	}
}

// BenchmarkGMRemoteWordRoundTrip measures one remote read request/response
// through kernel service, wire codec and mailbox plumbing (inproc).
func BenchmarkGMRemoteWordRoundTrip(b *testing.B) {
	benchRemoteRead(b, messagePath)
}

// spreadWords returns seeded addresses over 64 blocks of 64 words homed at
// kernel home of a 2-PE cluster whose blocks are 64 words — the addresses
// benchmark/'s gm_onesided workload reads — and has PE 1 write a word of each
// of those blocks, so that they are materialised at their home.
func spreadWords(pe *PE, home int) []uint64 {
	const blocks, words = 64, 64
	first := homeBlocks(pe, home, blocks)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = (first+2*uint64(rng.Intn(blocks)))*words + uint64(rng.Intn(words))
	}
	return addrs
}

// walkWords returns a word of each of 2·pinSlots blocks homed at kernel home
// of a 2-PE cluster whose blocks are 64 words, in block order, materialised
// like spreadWords'. Walked in order, twice as many blocks as a PE's
// resolution table has slots share its slots, so that about nine reads in ten
// find their slot pinning another block and pin their own again.
func walkWords(pe *PE, home int) []uint64 {
	const blocks, words = 2 * pinSlots, 64
	first := homeBlocks(pe, home, blocks)
	addrs := make([]uint64, blocks)
	for i := range addrs {
		addrs[i] = (first+2*uint64(i))*words + uint64(i%words)
	}
	return addrs
}

// homeBlocks allocates 2·blocks blocks of 64 words, has PE 1 write a word of
// each of the blocks homed at kernel home of a 2-PE cluster, and returns the
// first of them; the others follow every second block.
func homeBlocks(pe *PE, home, blocks int) uint64 {
	const words = 64
	sp := pe.Space()
	first := sp.BlockOf(pe.AllocBlocks(2 * blocks * words))
	if sp.HomeOf(first*words) != home {
		first++
	}
	if pe.ID() == 1 {
		for k := uint64(0); k < uint64(blocks); k++ {
			mustWrite(pe, (first+2*k)*words, 1)
		}
	}
	return first
}

// BenchmarkGMWord is the per-layer check that the access pipeline keeps the
// scalar ladder flat: a read, a write and a fetch-add on each path a word can
// take, every cell asserting its path from PE 0's counters (PE 0 issues
// nothing but the timed operations) and reporting allocations. Reads walk
// spreadWords, so a home's block lookup is not one hot entry, and fit PE 0's
// resolution table; window/read-miss walks walkWords instead, so nearly every
// read misses the table and pins its block again. Mutations go to one word. ring/write and ring/fetch-add are mutations in place at a
// co-located home (they keep the name of the submission ring the stores
// replaced, as RingGM does). A message cell also pins the timed share: b.N
// round trips, one in inprocTimeEvery timed, so a change that quietly times
// every one again fails its one-iteration run.
func BenchmarkGMWord(b *testing.B) {
	type counts struct{ local, remote, direct, ring, msgs uint64 }
	onesided := Config{Transport: TransportInproc, KernelShards: 2, DirectReads: 1}
	for _, c := range []struct {
		name   string
		cfg    Config
		remote bool
		op     wire.Op
		per    counts                          // what one operation adds to the counters
		words  func(pe *PE, home int) []uint64 // the addresses reads walk
	}{
		{"local/read", messagePath, false, wire.OpRead, counts{local: 1}, spreadWords},
		{"local/write", messagePath, false, wire.OpWrite, counts{local: 1}, spreadWords},
		{"local/fetch-add", messagePath, false, wire.OpFetchAdd, counts{local: 1}, spreadWords},
		{"window/read", onesided, true, wire.OpRead, counts{remote: 1, direct: 1}, spreadWords},
		{"window/read-miss", onesided, true, wire.OpRead, counts{remote: 1, direct: 1}, walkWords},
		{"ring/write", onesided, true, wire.OpWrite, counts{remote: 1, ring: 1}, spreadWords},
		{"ring/fetch-add", onesided, true, wire.OpFetchAdd, counts{remote: 1, ring: 1}, spreadWords},
		{"message/read", messagePath, true, wire.OpRead, counts{remote: 1, msgs: 1}, spreadWords},
		{"message/write", messagePath, true, wire.OpWrite, counts{remote: 1, msgs: 1}, spreadWords},
		{"message/fetch-add", messagePath, true, wire.OpFetchAdd, counts{remote: 1, msgs: 1}, spreadWords},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := c.cfg
			cfg.GMBlockWords = 64
			home := 0
			if c.remote {
				home = 1
			}
			res := runBenchProgram(b, cfg, 2, func(pe *PE) error {
				addrs := c.words(pe, home)
				pe.Barrier()
				if pe.ID() == 0 {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						switch c.op {
						case wire.OpRead:
							mustRead(pe, addrs[i%len(addrs)])
						case wire.OpWrite:
							mustWrite(pe, addrs[0], int64(i))
						default:
							mustFetchAdd(pe, addrs[0], 1)
						}
					}
					b.StopTimer()
				}
				pe.Barrier()
				return nil
			})
			s := &res.PerPE[0]
			msgs := s.ByOp[wire.OpRead].Msgs + s.ByOp[wire.OpWrite].Msgs + s.ByOp[wire.OpFetchAdd].Msgs
			got := counts{s.LocalGM, s.RemoteGM, s.DirectGM, s.RingGM, msgs}
			n, p := uint64(b.N), c.per
			if want := (counts{p.local * n, p.remote * n, p.direct * n, p.ring * n, p.msgs * n}); got != want {
				b.Fatalf("PE 0 path counters over %d ops: got %+v, want %+v", b.N, got, want)
			}
			// Every round trip is counted and one in inprocTimeEvery timed,
			// the first included (DESIGN.md §8).
			rs := s.RTTByOp[c.op].Snapshot()
			if timed := (n*p.msgs + inprocTimeEvery - 1) / inprocTimeEvery; rs.Count != n*p.msgs || rs.Timed != timed {
				b.Fatalf("PE 0 over %d ops: %d round trips, %d timed; want %d, %d", b.N, rs.Count, rs.Timed, n*p.msgs, timed)
			}
		})
	}
}

// BenchmarkGMRange is BenchmarkGMWord for the range executor: a 64-word block
// (alternately read and written), a 64-address gather, a 64-address scatter and
// the flush of 64 buffered release-mode words, the vectored ones with one word
// in each of 64 blocks homed at PE 1 — the shape that makes a request of 64
// runs. On the message axis every cell asserts from the counters that an
// operation was exactly one request of PE 0's and one reply of PE 1's (PE 0
// issues nothing but the timed operations). On the in-place axis, with the
// one-sided paths on, a block, gather or scatter sends no GM request and serves
// every run in place at PE 1's co-located home; the flush stays a message
// there, so it has no in-place cell. Every cell reports allocations: the
// result slice of a read is the only one an operation may make.
func BenchmarkGMRange(b *testing.B) {
	const words = 64
	onesided := Config{Transport: TransportInproc, KernelShards: 2, DirectReads: 1}
	for _, c := range []struct {
		name       string
		mode       gmem.Mode
		runs       uint64     // runs of one operation
		req, reply [2]wire.Op // an operation is counted under either pair member
		op         func(pe *PE, i int, block uint64, addrs []uint64, vals []int64)
	}{
		{"block64", gmem.ModeStrong, 1, [2]wire.Op{wire.OpRead, wire.OpWrite}, [2]wire.Op{wire.OpReadResp, wire.OpWriteAck},
			func(pe *PE, i int, block uint64, _ []uint64, vals []int64) {
				if i%2 == 0 {
					mustReadBlock(pe, block, words)
				} else {
					mustWriteBlock(pe, block, vals)
				}
			}},
		{"gather64", gmem.ModeStrong, words, [2]wire.Op{wire.OpReadV}, [2]wire.Op{wire.OpReadVResp},
			func(pe *PE, _ int, _ uint64, addrs []uint64, _ []int64) { mustGather(pe, addrs) }},
		{"scatter64", gmem.ModeStrong, words, [2]wire.Op{wire.OpWriteV}, [2]wire.Op{wire.OpWriteAck},
			func(pe *PE, _ int, _ uint64, addrs []uint64, vals []int64) { must(pe.GMScatterErr(addrs, vals)) }},
		{"flush64", gmem.ModeRelease, words, [2]wire.Op{wire.OpFlushV}, [2]wire.Op{wire.OpWriteAck},
			func(pe *PE, _ int, _ uint64, addrs []uint64, vals []int64) {
				must(pe.GMScatterErr(addrs, vals)) // release-mode words: buffered, no message
				pe.syncFence()
			}},
	} {
		for _, axis := range []struct {
			name string
			cfg  Config
		}{{"message", messagePath}, {"inplace", onesided}} {
			inPlace := axis.cfg.DirectReads > 0
			if inPlace && c.mode == gmem.ModeRelease {
				continue // the release publication is a message on either axis
			}
			cfg := axis.cfg
			cfg.GMBlockWords = words
			b.Run(axis.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				res := runBenchProgram(b, cfg, 2, func(pe *PE) error {
					base := AllocArrayMode[int64](pe, 2*words*words, c.mode).Addr()
					addrs, vals := make([]uint64, words), make([]int64, words)
					for i := range addrs {
						addrs[i] = base + uint64((2*i+1)*words+i) // odd blocks are PE 1's
						vals[i] = int64(i)
					}
					pe.Barrier()
					if pe.ID() == 0 {
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							c.op(pe, i, base+words, addrs, vals)
						}
						b.StopTimer()
					}
					pe.Barrier()
					return nil
				})
				n, s := uint64(b.N), &res.PerPE[0]
				reqs := s.ByOp[c.req[0]].Msgs + s.ByOp[c.req[1]].Msgs
				replies := res.PerPE[1].ByOp[c.reply[0]].Msgs + res.PerPE[1].ByOp[c.reply[1]].Msgs
				oneSided := res.Total.DirectGM + res.Total.RingGM
				switch {
				case !inPlace && oneSided != 0:
					b.Fatalf("message-path benchmark took a one-sided path %d times", oneSided)
				case !inPlace && (reqs != n || replies != n):
					b.Fatalf("%d operations travelled as %d requests and %d replies, want one of each per operation", n, reqs, replies)
				case inPlace && (reqs != 0 || oneSided != c.runs*n || s.RemoteGM != c.runs*n):
					b.Fatalf("%d operations of %d runs: %d requests, %d runs in place, RemoteGM %d; want none, every run, every run",
						n, c.runs, reqs, oneSided, s.RemoteGM)
				}
			})
		}
	}
}

// fanInBlocks is how many kernel-0-homed blocks the requesters of
// BenchmarkGMHomeFanIn spread their accesses over: enough to cover every
// segment lock stripe.
const fanInBlocks = 64

// BenchmarkGMHomeFanIn measures one home's message-path throughput with
// several requesters sharing it: PE 0 homes the blocks and only serves,
// every other PE issues its share of the b.N operations, so ns/op is the
// wall time per operation serviced. Axes: requesters, KernelShards (a shard
// is a lock — whoever holds it serves — and requester i is served under
// shard i mod KernelShards, so this is how many requesters can serve at
// once), and reads only vs 1-in-4 writes. Every cell runs on inproc, the one
// transport that builds more than one monitor per kernel, with the message
// path pinned (DirectReads < 0): that is the traffic a shard serves. Each
// asserts from the counters that the home serviced every operation as a
// message. It gates nothing; its 7-requester cells are the row that keeps
// the shards (EXPERIMENTS.md "Why inproc kernels have shards"), and it needs
// more cores than requesters to say anything about the home's ceiling.
func BenchmarkGMHomeFanIn(b *testing.B) {
	for _, requesters := range []int{1, 3, 7} {
		for _, shards := range []int{1, 2, 4, 8} {
			for _, mixed := range []bool{false, true} {
				mix := "read"
				if mixed {
					mix = "mixed"
				}
				b.Run(fmt.Sprintf("requesters=%d/shards=%d/%s", requesters, shards, mix), func(b *testing.B) {
					cfg := messagePath
					cfg.KernelShards = shards
					benchFanIn(b, cfg, requesters, mixed)
				})
			}
		}
	}
}

func benchFanIn(b *testing.B, cfg Config, requesters int, mixed bool) {
	each := b.N/requesters + 1
	res := runBenchProgram(b, cfg, requesters+1, func(pe *PE) error {
		// Block i is homed at kernel i % p: reserve p*fanInBlocks blocks
		// and touch only blocks 0, p, 2p, ...
		bw, p, id := pe.Space().BlockWords, pe.N(), pe.ID()
		base := pe.AllocBlocks(p * fanInBlocks * bw)
		if home := pe.Space().HomeOf(base); home != 0 {
			return fmt.Errorf("fan-in: first block homed at %d, want 0", home)
		}
		pe.Barrier()
		if id == 0 {
			b.ResetTimer()
		} else {
			// Stride block by block so successive operations land in
			// successive stripes; the word within the block varies per PE.
			for i := 0; i < each; i++ {
				addr := base + uint64(i%fanInBlocks*p*bw+(i+id)%bw)
				if mixed && i%4 == 3 {
					mustWrite(pe, addr, int64(i))
				} else {
					mustRead(pe, addr)
				}
			}
		}
		pe.Barrier()
		if id == 0 {
			b.StopTimer()
		}
		return nil
	})
	if got := res.Total.DirectGM + res.Total.RingGM; got != 0 {
		b.Fatalf("message-path benchmark took a one-sided path %d times", got)
	}
	writes := 0
	if mixed {
		writes = each / 4
	}
	home := &res.PerPE[0]
	if got, want := home.ServiceByOp[wire.OpRead].Snapshot().Count, uint64((each-writes)*requesters); got != want {
		b.Fatalf("home serviced %d reads, want %d", got, want)
	}
	if got, want := home.ServiceByOp[wire.OpWrite].Snapshot().Count, uint64(writes*requesters); got != want {
		b.Fatalf("home serviced %d writes, want %d", got, want)
	}
}

// BenchmarkBarrier measures the central barrier end to end on 4 PEs.
func BenchmarkBarrier(b *testing.B) {
	runBenchProgram(b, Config{Transport: TransportInproc}, 4, func(pe *PE) error {
		if pe.ID() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			pe.Barrier()
		}
		if pe.ID() == 0 {
			b.StopTimer()
		}
		pe.Barrier()
		return nil
	})
}

// BenchmarkFetchAddPool measures the job-pool primitive under contention.
func BenchmarkFetchAddPool(b *testing.B) {
	runBenchProgram(b, Config{Transport: TransportInproc}, 4, func(pe *PE) error {
		counter := pe.Alloc(1)
		pe.Barrier()
		if pe.ID() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			mustFetchAdd(pe, counter, 1)
		}
		if pe.ID() == 0 {
			b.StopTimer()
		}
		pe.Barrier()
		return nil
	})
}

// BenchmarkSimClusterConstruction measures how long a simulated 6-PE
// cluster takes to build and tear down with a trivial program.
func BenchmarkSimClusterConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runEmptySimCluster(b)
	}
}

// runEmptySimCluster runs an empty program on six simulated PEs.
func runEmptySimCluster(tb testing.TB) {
	res, err := Run(Config{NumPE: 6, Platform: platform.SparcSunOS, Seed: 1},
		func(pe *PE) error { return nil })
	if err != nil || res.FirstErr() != nil {
		tb.Fatal(err, res.FirstErr())
	}
}

// runEmptyInprocCluster is the empty program the benchmark times as
// core.cluster_start_ms: four PEs over inproc, shards and one-sided paths on.
func runEmptyInprocCluster(tb testing.TB) {
	res, err := Run(Config{NumPE: 4, Transport: TransportInproc,
		KernelShards: 2, DirectReads: 1, GMBlockWords: 64},
		func(pe *PE) error { return nil })
	if err != nil || res.FirstErr() != nil {
		tb.Fatal(err, res.FirstErr())
	}
}

// BenchmarkInprocClusterConstruction measures what every repetition of an
// application pays before and after its own work on the in-process
// transport: building, starting, stopping and collecting a 4-PE cluster.
func BenchmarkInprocClusterConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runEmptyInprocCluster(b)
	}
}

// BenchmarkRoundTripTracingDisabled is the default path: histograms are
// always on, span tracing costs one nil check.
func BenchmarkRoundTripTracingDisabled(b *testing.B) {
	benchRemoteRead(b, messagePath)
}

// BenchmarkRoundTripTracingEnabled records a span per round trip on both
// the requester and home sides.
func BenchmarkRoundTripTracingEnabled(b *testing.B) {
	cfg := messagePath
	cfg.Tracing = trace.TracingConfig{Enabled: true, RingSize: 1 << 16}
	benchRemoteRead(b, cfg)
}
