package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/apps/gauss"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/gmem"
	"repro/internal/platform"
	"repro/internal/psync"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/internal/transport/tcpnet"
	"repro/internal/wire"
)

// The per-layer numbers of the traced run that do not depend on the
// workload: each layer's public functions called from here, one layer at a
// time, with nothing else running. They are the layer's own cost; the
// workload rows say how often it is paid.

// sink keeps the compiler from discarding a measured call's result.
var sink int64

// perOp calls fn(batch) until budget has passed and returns the median
// nanoseconds per operation over the calls.
func perOp(budget time.Duration, batch int, fn func(n int)) float64 {
	fn(batch) // warm caches and pools
	var per []float64
	for end := now() + int64(budget); ; {
		t0 := now()
		fn(batch)
		t1 := now()
		per = append(per, float64(t1-t0)/float64(batch))
		if t1 >= end {
			return median(per)
		}
	}
}

// measureLayers fills m with the workload-independent per-layer metrics,
// spending about budget in total.
func measureLayers(m map[string]float64, budget time.Duration, seed uint64) error {
	const parts = 30 // measurements below, roughly; each gets an equal share
	b := budget / parts
	measureWire(m, b)
	if err := measureTransports(m, b); err != nil {
		return err
	}
	measureGmem(m, b)
	measurePsync(m, b)
	measureTrace(m, b)
	if err := measureSim(m, b, seed); err != nil {
		return err
	}
	return measureCore(m, b)
}

func measureWire(m map[string]float64, b time.Duration) {
	req := wire.GetMessage()
	req.Op, req.Src, req.Dst, req.Seq, req.Addr, req.Arg1 = wire.OpRead, 0, 1, 7, 4160, 1
	buf := req.Append(nil)
	m["wire.encode_ns"] = perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			buf = req.Append(buf[:0])
		}
	})
	dec := wire.GetMessage()
	m["wire.decode_ns"] = perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			if err := wire.DecodeInto(dec, buf); err != nil {
				panic(err) // a frame this file just encoded
			}
		}
	})
	words := make([]int64, blockWords)
	for i := range words {
		words[i] = int64(i) * 3
	}
	resp := wire.GetMessage()
	resp.Op, resp.Src, resp.Dst, resp.Seq = wire.OpReadResp, 1, 0, 7
	var bbuf []byte
	m["wire.encode_block_ns"] = perOp(b, 1024, func(n int) {
		for i := 0; i < n; i++ {
			resp.PutWords(words)
			bbuf = resp.Append(bbuf[:0])
		}
	})
	out := make([]int64, 0, blockWords)
	m["wire.decode_block_ns"] = perOp(b, 1024, func(n int) {
		for i := 0; i < n; i++ {
			if err := wire.DecodeInto(dec, bbuf); err != nil {
				panic(err)
			}
			out = dec.WordsInto(out)
		}
	})
	sink += out[1]
	wire.PutMessage(req)
	wire.PutMessage(resp)
	wire.PutMessage(dec)
}

// nodeEcho answers every message node receives with the same message sent
// back to its source, until the node is stopped.
func nodeEcho(node transport.Node) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			msg, ok := node.Recv()
			if !ok {
				return
			}
			src := int(msg.Src)
			msg.Src, msg.Dst = msg.Dst, msg.Src
			node.Svc().Send(src, msg)
			wire.PutMessage(msg)
		}
	}()
	return func() { <-done }
}

// nodePingPong measures a node-level echo between two goroutines over net:
// the transport alone, no core.
func nodePingPong(net transport.Network, b time.Duration, batch int) (ns float64, err error) {
	n0 := net.Node(0)
	req := wire.GetMessage()
	defer wire.PutMessage(req)
	req.Op, req.Src, req.Dst, req.Addr, req.Arg1 = wire.OpRead, 0, 1, 4160, 1
	ns = perOp(b, batch, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			n0.App().Send(1, req)
			got, ok := n0.Recv()
			if !ok {
				err = errors.New("transport stopped during ping-pong")
				return
			}
			wire.PutMessage(got)
		}
	})
	return ns, err
}

func measureTransports(m map[string]float64, b time.Duration) error {
	inet := inproc.New(2)
	n0, n1 := inet.Node(0), inet.Node(1)
	req := wire.GetMessage()
	req.Op, req.Src, req.Dst, req.Addr, req.Arg1 = wire.OpRead, 0, 1, 4160, 1
	m["inproc.oneway_ns"] = perOp(b, 1024, func(n int) {
		for i := 0; i < n; i++ {
			n0.App().Send(1, req)
			got, _ := n1.Recv()
			wire.PutMessage(got)
		}
	})
	mb := n0.NewMailbox(16)
	m["inproc.mailbox_ns"] = perOp(b, 1024, func(n int) {
		for i := 0; i < n; i++ {
			mb.Put(req)
			got, _ := mb.Take()
			sink += int64(got.Op)
		}
	})
	wire.PutMessage(req)
	wait := nodeEcho(n1)
	ns, err := nodePingPong(inet, b, 256)
	inet.Stop()
	wait()
	if err != nil {
		return fmt.Errorf("inproc ping-pong: %w", err)
	}
	m["inproc.pingpong_us"] = ns / 1e3

	ce := newChanEcho()
	m["chan.pingpong_us"] = perOp(b, 256, func(n int) {
		for i := 0; i < n; i++ {
			sink += ce.roundTrip(int64(i))
		}
	}) / 1e3
	ce.stop()

	tnet, err := tcpnet.NewLocal(2)
	if err != nil {
		return fmt.Errorf("tcpnet: %w", err)
	}
	wait = nodeEcho(tnet.Node(1))
	sys0, msgs0 := ioSyscalls(), tnet.Node(0).Stats().MsgsSent
	ns, err = nodePingPong(tnet, b, 32)
	trips := tnet.Node(0).Stats().MsgsSent - msgs0
	sys1 := ioSyscalls()
	tnet.Stop()
	wait()
	if err != nil {
		return fmt.Errorf("tcpnet ping-pong: %w", err)
	}
	m["tcpnet.pingpong_us"] = ns / 1e3
	m["tcpnet.oneway_ns"] = ns / 2
	if trips > 0 {
		// Two messages per round trip, each sent once and received once.
		m["tcpnet.syscalls_per_msg"] = float64(sys1-sys0) / float64(2*trips)
	}

	te, err := newTCPEcho()
	if err != nil {
		return err
	}
	var terr error
	m["tcp.raw_echo_us"] = perOp(b, 32, func(n int) {
		for i := 0; i < n && terr == nil; i++ {
			terr = te.roundTrip(tcpReqBytes)
		}
	}) / 1e3
	te.stop()
	if terr != nil {
		return fmt.Errorf("raw tcp echo: %w", terr)
	}
	return nil
}

func measureGmem(m map[string]float64, b time.Duration) {
	space := gmem.NewSpace(2, blockWords)
	seg := gmem.NewSegment(space, 0)
	seg.SetDirectory(gmem.NewDirectory(2, 0))
	const addr = 17 // block 0, homed at kernel 0
	seg.WriteWord(addr, 5)
	m["gmem.seg_read_ns"] = perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			sink += seg.ReadWord(addr)
		}
	})
	m["gmem.seg_write_ns"] = perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			seg.WriteWord(addr, int64(i))
		}
	})
	m["gmem.seg_fetchadd_ns"] = perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			sink += seg.FetchAdd(addr, 1)
		}
	})
	dst := make([]int64, 0, blockWords)
	m["gmem.seg_read64_ns"] = perOp(b, 1024, func(n int) {
		for i := 0; i < n; i++ {
			dst = seg.ReadAppend(dst[:0], 0, blockWords)
		}
	})
	m["gmem.direct_read_ns"] = perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			v, _ := seg.DirectReadOwned(addr)
			sink += v
		}
	})
	ring := gmem.NewSubmitRing(256)
	drained := make([]gmem.RingWrite, 8)
	m["gmem.ring_write_ns"] = perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			ring.Push(gmem.RingWrite{Addr: addr, Val: int64(i), Seq: uint64(i), Src: 1})
			k := ring.Drain(drained)
			seg.ApplyWrites(drained[:k])
			ring.Release(k)
		}
	})
	// A write-combining buffer filled with one sweep's worth of distinct
	// words and drained, as a release-mode PE does between two barriers.
	const wcWords = 256
	wc := gmem.NewWCBuf()
	var putNs, drainNs []float64
	for end := now() + int64(2*b); now() < end; {
		t0 := now()
		for i := 0; i < wcWords; i++ {
			wc.Put(uint64(i), int64(i))
		}
		t1 := now()
		wc.Drain(func(a uint64, v int64) { sink += v })
		t2 := now()
		putNs = append(putNs, float64(t1-t0)/wcWords)
		drainNs = append(drainNs, float64(t2-t1)/wcWords)
	}
	m["gmem.wcbuf_put_ns"] = median(putNs)
	m["gmem.wcbuf_drain_ns_per_word"] = median(drainNs)

	cache := gmem.NewCache(space)
	cache.Insert(addr, make([]int64, blockWords))
	m["gmem.cache_lookup_ns"] = perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			v, _ := cache.Lookup(addr)
			sink += v
		}
	})
	dir := gmem.NewDirectory(2, 0)
	m["gmem.home_of_ns"] = perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			sink += int64(dir.HomeOf(space, uint64(i)))
		}
	})
}

func measurePsync(m map[string]float64, b time.Duration) {
	bm := psync.NewBarrierManager(4)
	m["psync.arrive_ns"] = perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			sink += int64(len(bm.Arrive(i%4, 0)))
		}
	})
	lm := psync.NewLockManager()
	m["psync.lock_release_ns"] = perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			lm.Acquire(0, 1)
			lm.Release(0, 1)
		}
	})
}

func measureTrace(m map[string]float64, b time.Duration) {
	var h trace.Histogram
	m["trace.hist_observe_ns"] = perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(sim.Duration(2000 + i))
		}
	})
	ring := trace.TracingConfig{Enabled: true}.NewRing()
	m["trace.span_record_ns"] = perOp(b, 4096, func(n int) {
		for i := 0; i < n; i++ {
			ring.Record(trace.Span{Kind: trace.SpanRequest, Op: wire.OpRead, Seq: uint64(i), Start: 1, Sent: 2, End: 3})
		}
	})
}

func measureSim(m map[string]float64, b time.Duration, seed uint64) error {
	// Two processes ping-ponging a sim.Chan: wall time per engine event.
	var events uint64
	var serr error
	ns := perOp(b, 2000, func(n int) {
		e := sim.NewEngine(seed)
		ping, pong := sim.NewChan[int](e, 0), sim.NewChan[int](e, 0)
		e.Spawn("ping", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				ping.Send(p, i)
				pong.Recv(p)
			}
		})
		e.Spawn("pong", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				v, _ := ping.Recv(p)
				pong.Send(p, v)
			}
		})
		if err := e.Run(); err != nil {
			serr = err
		}
		events = e.Stats().Events
	})
	if serr != nil {
		return fmt.Errorf("sim ping-pong: %w", serr)
	}
	if events > 0 {
		m["sim.event_ns"] = ns * 2000 / float64(events)
	}

	// Six stations (the paper's six machines) contending on one shared bus.
	const stations, each = 6, 50
	var frames uint64
	ns = perOp(b, stations*each, func(int) {
		e := sim.NewEngine(seed)
		bus := ethernet.NewBus(e, ethernet.DefaultConfig())
		ss := make([]*ethernet.Station, stations+1)
		for i := range ss {
			ss[i] = bus.Attach()
		}
		bus.Start()
		got := 0
		e.Spawn("recv", func(p *sim.Proc) {
			for got < stations*each {
				if _, ok := ss[stations].Recv(p); !ok {
					return
				}
				got++
			}
			bus.Stop()
		})
		for s := 0; s < stations; s++ {
			s := s
			e.Spawn("send", func(p *sim.Proc) {
				for i := 0; i < each; i++ {
					ss[s].Send(p, stations, 100, i)
				}
			})
		}
		if err := e.Run(); err != nil {
			serr = err
		}
		frames = bus.Stats().Frames
	})
	if serr != nil {
		return fmt.Errorf("ethernet contention: %w", serr)
	}
	if frames > 0 {
		m["ethernet.frame_wall_ns"] = ns * stations * each / float64(frames)
	}

	// One small simulated application run: wall time per simulated message,
	// through simnet, ethernet and the platform cost model together.
	var msgs uint64
	ns = perOp(b, 1, func(int) {
		res, err := core.Run(core.Config{NumPE: 4, Transport: core.TransportSim, Platform: platform.SparcSunOS,
			Seed: seed, KernelShards: 1, DirectReads: -1, WriteRings: -1, GMBlockWords: 256},
			func(pe *core.PE) error {
				_, err := gauss.Parallel(pe, gauss.Params{N: 120, Seed: seed})
				return err
			})
		if err == nil {
			err = res.FirstErr()
		}
		if err != nil {
			serr = err
			return
		}
		msgs = res.Total.MsgsSent
	})
	if serr != nil {
		return fmt.Errorf("simnet run: %w", serr)
	}
	if msgs > 0 {
		m["simnet.msg_wall_us"] = ns / float64(msgs) / 1e3
	}
	return nil
}

func measureCore(m map[string]float64, b time.Duration) error {
	// An empty program on four PEs: what a cluster costs to start and stop.
	var cerr error
	m["core.cluster_start_ms"] = perOp(b, 1, func(int) {
		res, err := core.Run(core.Config{NumPE: 4, Transport: core.TransportInproc,
			KernelShards: 2, DirectReads: 1, WriteRings: 1, GMBlockWords: blockWords},
			func(pe *core.PE) error { return nil })
		if err == nil {
			err = res.FirstErr()
		}
		if err != nil {
			cerr = err
		}
	}) / 1e6
	if cerr != nil {
		return fmt.Errorf("empty cluster: %w", cerr)
	}
	// GMRead of a word homed at the caller: the API guard, the consistency
	// tier lookup and the path ladder, and no transport at all.
	res, err := core.Run(core.Config{NumPE: 1, Transport: core.TransportInproc,
		KernelShards: 1, DirectReads: -1, WriteRings: -1, GMBlockWords: blockWords},
		func(pe *core.PE) error {
			a := pe.AllocBlocks(blockWords)
			var rerr error
			m["core.local_read_ns"] = perOp(b, 4096, func(n int) {
				for i := 0; i < n && rerr == nil; i++ {
					var v int64
					v, rerr = pe.GMReadErr(a)
					sink += v
				}
			})
			return rerr
		})
	if err == nil {
		err = res.FirstErr()
	}
	if err != nil {
		return fmt.Errorf("local read: %w", err)
	}
	return nil
}
