package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/transport/tcpnet"
	"repro/internal/wire"
)

// TestDeliverAppBypassesServeLoop pins the two routes an app-bound message
// can take. On the real transports the node's sink hands replies and grants
// from other nodes to the blocked application on the receiving context, so
// the requester's serve loop services no read reply, and kernel 1 — which
// hosts no central manager and so never answers its own PE — services no
// reply op or barrier release at all; on simnet the same router runs from
// handle and every reply is serviced. Either way the traffic is counted,
// logged and free of strays.
func TestDeliverAppBypassesServeLoop(t *testing.T) {
	const reads = 200
	for _, tr := range []TransportKind{TransportInproc, TransportTCP, TransportSim} {
		t.Run(string(tr), func(t *testing.T) {
			var log bytes.Buffer
			cfg := simCfg(2)
			cfg.Transport = tr
			cfg.KernelShards, cfg.DirectReads = 1, -1
			cfg.MessageLog = &log
			res, err := Run(cfg, func(pe *PE) error {
				addr := remoteWord(pe)
				pe.Barrier()
				if pe.ID() == 0 {
					for i := 0; i < reads; i++ {
						pe.GMRead(addr)
					}
				}
				pe.Barrier()
				return nil
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := res.FirstErr(); err != nil {
				t.Fatal(err)
			}
			tot := &res.Total
			if got := tot.ServiceByOp[wire.OpRead].Count.Load(); got != reads {
				t.Fatalf("home serviced %d reads, want %d", got, reads)
			}
			wantServiced := uint64(0)
			if tr == TransportSim {
				wantServiced = reads
			}
			if got := tot.ServiceByOp[wire.OpReadResp].Count.Load(); got != wantServiced {
				t.Fatalf("serve loops serviced %d read replies, want %d", got, wantServiced)
			}
			if tr != TransportSim {
				k1 := &res.PerPE[1]
				for op := range k1.ServiceByOp {
					if n := k1.ServiceByOp[op].Count.Load(); n != 0 && (isReply(wire.Op(op)) || wire.Op(op) == wire.OpBarrierRelease) {
						t.Fatalf("kernel 1's serve loop serviced %d %v messages", n, wire.Op(op))
					}
				}
			}
			if tot.StrayDrops != 0 || tot.StaleReplies != 0 {
				t.Fatalf("StrayDrops=%d StaleReplies=%d, want 0", tot.StrayDrops, tot.StaleReplies)
			}
			// Accounting survives the short cut: every message sent was
			// received (tcpnet counts a self-send on the receive side only),
			// and the router logged the replies it took.
			if tot.MsgsRecv < tot.MsgsSent || (tr != TransportTCP && tot.MsgsRecv != tot.MsgsSent) {
				t.Fatalf("MsgsRecv=%d MsgsSent=%d", tot.MsgsRecv, tot.MsgsSent)
			}
			if got := tot.ByOp[wire.OpReadResp].Msgs; got != reads {
				t.Fatalf("%d read replies sent, want %d", got, reads)
			}
			if got := strings.Count(log.String(), wire.OpReadResp.String()+" 1->0"); got != reads {
				t.Fatalf("message log holds %d read replies, want %d", got, reads)
			}
		})
	}
}

// TestDeliverAppLateReply drives the sink with the requester's serve loop
// not running at all, so only delivery on the sender's context can wake the
// PE. Replies that outlived their requests (given up on after a timeout) are
// taken by the sink like any other — it consults no table — and skipped by
// the request engine's sequence validation; none is declined to the serve
// loop and none is consumed as the answer.
func TestDeliverAppLateReply(t *testing.T) {
	net, ks := testKernels(t, 2, func(cfg *Config) {
		cfg.RequestTimeout = 10 * sim.Second
	})
	pe := newPE(ks[0])
	addr := remoteAddr(t, pe, 1)
	ks[1].seg.Write(addr, []int64{77})
	for i := 0; i < 2; i++ {
		m := wire.GetMessage()
		m.Op, m.Src, m.Dst, m.Seq = wire.OpReadResp, 1, 0, ks[0].seqCtr.Add(1)
		m.PutWord(-1)
		ks[1].svc.Send(0, m)
		wire.PutMessage(m)
	}

	go ks[1].serve()
	v, err := pe.GMReadErr(addr)
	if err != nil {
		t.Fatalf("GMReadErr with the requester's serve loop stopped: %v", err)
	}
	if v != 77 {
		t.Fatalf("read %d, want 77 (late reply consumed as the answer)", v)
	}
	if pe.extra.StaleReplies != 2 {
		t.Fatalf("StaleReplies = %d, want 2", pe.extra.StaleReplies)
	}
	ks[0].node.CloseRecv()
	if m, ok := net.Node(0).Recv(); ok {
		t.Fatalf("the sink declined %v to the serve loop", m)
	}
}

// TestDeliverShutdownRunOn is the RunOn shutdown race: kernel 0 releases the
// final barrier to every node, itself included, from inside one handler. Were
// its own release offered to the sink — a self-send is delivered on the
// sending goroutine — PE 0 would be through the barrier while the handler was
// still writing the other releases, and RunOn's CloseRecv, which on tcpnet
// closes every socket, would strand the remaining nodes until their sync wait
// timed out. PE 0 arrives first, so it is first in the waiter list.
func TestDeliverShutdownRunOn(t *testing.T) {
	const nodes = 24
	for iter := 0; iter < 8; iter++ {
		net, err := tcpnet.NewLocal(nodes)
		if err != nil {
			t.Fatalf("NewLocal: %v", err)
		}
		cfg := Config{RequestTimeout: 2 * sim.Second}
		var wg sync.WaitGroup
		errs := make([]error, nodes)
		for i := 0; i < nodes; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := RunOn(cfg, net.Node(i), func(pe *PE) error {
					if pe.ID() != 0 {
						time.Sleep(time.Millisecond)
					}
					return nil
				})
				if err == nil {
					err = res.FirstErr()
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		net.Stop()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("iteration %d, node %d: %v", iter, i, err)
			}
		}
	}
}
