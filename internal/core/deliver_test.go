package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

// TestDeliverAppBypassesServeLoop pins the two routes an app-bound message
// can take. On the real transports the node's sink hands replies and grants
// to the blocked application on the receiving context, so no kernel's serve
// loop services a single reply op; on simnet the same router runs from
// handle and every reply is serviced. Either way the traffic is counted,
// logged and free of strays.
func TestDeliverAppBypassesServeLoop(t *testing.T) {
	const reads = 200
	for _, tr := range []TransportKind{TransportInproc, TransportTCP, TransportSim} {
		t.Run(string(tr), func(t *testing.T) {
			var log bytes.Buffer
			cfg := simCfg(2)
			cfg.Transport = tr
			cfg.KernelShards, cfg.DirectReads, cfg.WriteRings = 1, -1, -1
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
			if got := tot.ServiceByOp[wire.OpRead].Count; got != reads {
				t.Fatalf("home serviced %d reads, want %d", got, reads)
			}
			wantServiced := uint64(0)
			if tr == TransportSim {
				wantServiced = reads
			}
			if got := tot.ServiceByOp[wire.OpReadResp].Count; got != wantServiced {
				t.Fatalf("serve loops serviced %d read replies, want %d", got, wantServiced)
			}
			if tr != TransportSim {
				for op := range tot.ServiceByOp {
					if isReply(wire.Op(op)) && tot.ServiceByOp[op].Count != 0 {
						t.Fatalf("a serve loop serviced %d %v replies", tot.ServiceByOp[op].Count, wire.Op(op))
					}
				}
				if n := tot.ServiceByOp[wire.OpBarrierRelease].Count; n != 0 {
					t.Fatalf("a serve loop serviced %d barrier releases", n)
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
// PE. With a request timeout set, a reply that lands while its (given-up)
// request is still pending reaches the mailbox and is skipped as stale by
// sequence validation; one that lands after the request was dropped is
// declined by the sink and left to the serve loop, which counts the stray.
func TestDeliverAppLateReply(t *testing.T) {
	net, ks := testKernels(t, 2, func(cfg *Config) {
		cfg.RequestTimeout = 10 * sim.Second
	})
	pe := newPE(ks[0])
	addr := remoteAddr(t, pe, 1)
	ks[1].seg.Write(addr, []int64{77})
	lateReply := func(seq uint64) {
		m := wire.GetMessage()
		m.Op, m.Src, m.Dst, m.Seq = wire.OpReadResp, 1, 0, seq
		m.PutWord(-1)
		ks[1].svc.Send(0, m)
		wire.PutMessage(m)
	}
	stale, _ := ks[0].addPending(pe.replyMb, 1) // timed out, not yet dropped
	lateReply(stale)
	stray, _ := ks[0].addPending(pe.replyMb, 1) // timed out and dropped
	ks[0].dropPending(stray)
	lateReply(stray)

	go ks[1].serve()
	v, err := pe.GMReadErr(addr)
	if err != nil {
		t.Fatalf("GMReadErr with the requester's serve loop stopped: %v", err)
	}
	if v != 77 {
		t.Fatalf("read %d, want 77 (late reply consumed as the answer)", v)
	}
	if pe.extra.StaleReplies != 1 {
		t.Fatalf("StaleReplies = %d, want 1", pe.extra.StaleReplies)
	}
	m := recvFrom(t, net, 0)
	if m.Seq != stray {
		t.Fatalf("declined reply seq %d, want %d", m.Seq, stray)
	}
	if consumed := ks[0].handle(m); !consumed || ks[0].extra.StrayDrops != 1 {
		t.Fatalf("handle consumed=%v StrayDrops=%d, want true and 1", consumed, ks[0].extra.StrayDrops)
	}
}
