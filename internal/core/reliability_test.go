package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/gmem"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/internal/wire"
)

// remoteAddr finds a global address homed at kernel `home`.
func remoteAddr(t *testing.T, pe *PE, home int) uint64 {
	t.Helper()
	var addr uint64
	for pe.Space().HomeOf(addr) != home {
		addr++
	}
	return addr
}

// TestStaleReplyDiscarded is the regression test for the stale-reply race:
// residue in the persistent reply mailbox (a reply whose request was given
// up on long ago) must be discarded by sequence validation, not handed to
// the next request as its answer.
func TestStaleReplyDiscarded(t *testing.T) {
	net, ks := testKernels(t, 2, nil)
	pe := newPE(ks[0])
	addr := remoteAddr(t, pe, 1)
	ks[1].seg.Write(addr, []int64{77})
	for i := range ks {
		go ks[i].serve()
	}
	// Plant stale residue: a read response with a sequence number that
	// belongs to no outstanding request, carrying a wrong value.
	stale := wire.GetMessage()
	stale.Op, stale.Src, stale.Seq = wire.OpReadResp, 1, 999
	stale.PutWord(-1)
	ks[0].replyMb.Put(stale)

	v, err := pe.GMReadErr(addr)
	if err != nil {
		t.Fatalf("GMReadErr: %v", err)
	}
	if v != 77 {
		t.Fatalf("read %d, want 77 (stale reply consumed as answer)", v)
	}
	if pe.extra.StaleReplies != 1 {
		t.Fatalf("StaleReplies = %d, want 1", pe.extra.StaleReplies)
	}
	_ = net
}

// holdNode is an inproc node whose Svc port holds back what its kernel sends
// until released: the way to delay a reply on a transport where the request
// is served the moment it is sent, whether or not the home's serve loop runs.
// Once released, mangle (if set) rewrites the next message on its way out and
// is spent: the way to put one malformed reply on the wire.
type holdNode struct {
	transport.SinkNode
	mu       sync.Mutex
	released bool
	held     []*wire.Message
	mangle   func(*wire.Message)
}

type holdPort struct {
	transport.Port
	nd *holdNode
}

func (nd *holdNode) Svc() transport.Port { return holdPort{nd.SinkNode.Svc(), nd} }

func (p holdPort) Send(dst int, m *wire.Message) {
	p.nd.mu.Lock()
	if !p.nd.released {
		c := wire.GetMessage() // the caller recycles m as soon as Send returns
		if err := wire.DecodeInto(c, m.Append(nil)); err != nil {
			panic(err)
		}
		p.nd.held = append(p.nd.held, c)
		p.nd.mu.Unlock()
		return
	}
	if mangle := p.nd.mangle; mangle != nil {
		p.nd.mangle = nil
		mangle(m) // the sender is done with m when Send returns
	}
	p.nd.mu.Unlock()
	p.Port.Send(dst, m)
}

// release sends everything held so far, in order, and holds nothing more.
func (nd *holdNode) release() {
	nd.mu.Lock()
	held := nd.held
	nd.held, nd.released = nil, true
	nd.mu.Unlock()
	for _, m := range held {
		nd.SinkNode.Svc().Send(int(m.Dst), m)
		wire.PutMessage(m)
	}
}

// TestDelayedReplyDoesNotCorruptNextRequest delays a kernel's reply past the
// request timeout: the first request fails, its late reply must be dropped,
// and the next request must receive its own (correct) answer. The delay is in
// the transport — on inproc a kernel whose serve loop is not even running
// still serves GM requests, on the requester's goroutine.
func TestDelayedReplyDoesNotCorruptNextRequest(t *testing.T) {
	cfg, err := (&Config{NumPE: 2, Transport: TransportInproc, KernelShards: 1,
		RequestTimeout: 100 * sim.Millisecond}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	net := inproc.New(2)
	t.Cleanup(net.Stop)
	slow := &holdNode{SinkNode: net.Node(1).(transport.SinkNode)}
	k0, k1 := newKernel(0, net.Node(0), &cfg), newKernel(1, slow, &cfg)
	pe := newPE(k0)
	addr := remoteAddr(t, pe, 1)
	k1.seg.Write(addr, []int64{77})
	go k0.serve()
	// Kernel 1 serves the read — no serve loop needed — but its reply is held
	// in its node: the read times out.
	if _, err := pe.GMReadErr(addr); err == nil {
		t.Fatal("read answered although the reply is still held")
	} else if _, ok := err.(*TimeoutError); !ok {
		t.Fatalf("unexpected error type: %v", err)
	}
	if got := k1.shards[0].extra.ServiceByOp[wire.OpRead].Count.Load(); got != 1 {
		t.Fatalf("kernel 1 serviced %d reads with its serve loop stopped, want 1", got)
	}
	// The word moves on, the stale reply (carrying 77) is let go, and the next
	// read must get its own answer, not that one.
	k1.seg.Write(addr, []int64{78})
	slow.release()
	v, err := pe.GMReadErr(addr)
	if err != nil {
		t.Fatalf("second read: %v", err)
	}
	if v != 78 {
		t.Fatalf("second read = %d, want 78", v)
	}
}

// TestMalformedReadReplyIsDropped puts one read reply with the wrong payload
// size on the wire per reply op. Each used to panic the requester — Word(0)
// on an empty payload, the cache's block-size panic, a slice past the lease
// snapshot, landReply's bounds, WordsInto on a torn payload; each must now be
// counted in CorruptDrops and treated as lost, so the request — a range
// transfer's like a scalar's: one engine retries both — gets the well-formed
// answer to its retry.
func TestMalformedReadReplyIsDropped(t *testing.T) {
	empty := func(m *wire.Message) { m.Data = m.Data[:0] }
	oneWord := func(m *wire.Message) { m.Data = m.Data[:8] }
	torn := func(m *wire.Message) { m.Data = m.Data[:len(m.Data)-3] }
	for _, tc := range []struct {
		name   string
		reply  wire.Op
		mode   gmem.Mode
		mangle func(*wire.Message)
		read   func(pe *PE, addr uint64) (int64, error)
	}{
		{"scalar", wire.OpReadResp, gmem.ModeStrong, empty, (*PE).GMReadErr},
		{"block-fetch", wire.OpReadResp, gmem.ModeCached, oneWord, (*PE).GMReadErr},
		{"lease", wire.OpReadLeaseResp, gmem.ModeLease, torn, (*PE).GMReadErr},
		{"vectored", wire.OpReadVResp, gmem.ModeStrong, oneWord, func(pe *PE, addr uint64) (int64, error) {
			out, err := pe.GMGatherErr([]uint64{addr + 1, addr})
			if err != nil {
				return 0, err
			}
			return out[1], nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := (&Config{NumPE: 2, Transport: TransportInproc, KernelShards: 1,
				DirectReads: -1, RequestTimeout: 100 * sim.Millisecond, RequestRetries: 1}).withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			net := inproc.New(2)
			t.Cleanup(net.Stop)
			var sent wire.Op
			home := &holdNode{SinkNode: net.Node(1).(transport.SinkNode), released: true}
			home.mangle = func(m *wire.Message) { sent = m.Op; tc.mangle(m) }
			k0, k1 := newKernel(0, net.Node(0), &cfg), newKernel(1, home, &cfg)
			pe := newPE(k0)
			addr := pe.AllocBlocksMode(2*cfg.GMBlockWords, tc.mode)
			if pe.HomeOf(addr) != 1 {
				addr += uint64(cfg.GMBlockWords)
			}
			k1.seg.Write(addr, []int64{77})
			go k0.serve()
			v, err := tc.read(pe, addr)
			if sent != tc.reply {
				t.Fatalf("the mangled message was %v, want %v", sent, tc.reply)
			}
			if got := pe.extra.CorruptDrops; got != 1 {
				t.Errorf("CorruptDrops = %d, want 1", got)
			}
			if err != nil || v != 77 || pe.extra.Retries != 1 {
				t.Errorf("read = %d, %v after %d retries, want 77 after 1", v, err, pe.extra.Retries)
			}
		})
	}
}

// TestClosedNodeRefusesInlineService is the mirror image: a node that has
// shut down (CloseRecv) must not be served on the sender either. The request
// is refused before any service, the peer is reported down and the operation
// fails with the typed error instead of mutating a dead kernel's memory.
func TestClosedNodeRefusesInlineService(t *testing.T) {
	net, ks := testKernels(t, 2, nil)
	pe := newPE(ks[0])
	addr := remoteAddr(t, pe, 1)
	ks[1].seg.Write(addr, []int64{77})
	net.Node(1).CloseRecv()
	err := pe.GMWriteErr(addr, 5)
	var down *PeerDownError
	if !errors.As(err, &down) || down.Peer != 1 {
		t.Fatalf("write to a closed node: %v, want PeerDownError for peer 1", err)
	}
	if v := ks[1].seg.Read(addr, 1)[0]; v != 77 {
		t.Fatalf("closed node's memory changed: %d, want 77", v)
	}
	sh := ks[1].shards[0]
	if sh.extra.ShardedMsgs != 0 || sh.extra.ServiceByOp[wire.OpWrite].Count.Load() != 0 {
		t.Fatalf("closed node served inline: ShardedMsgs=%d", sh.extra.ShardedMsgs)
	}
	if !ks[0].peers[1].dead.Load() {
		t.Fatal("peer 1 not marked dead")
	}
	if _, err := pe.GMReadErr(addr); !errors.As(err, &down) {
		t.Fatalf("read after the peer was reported down: %v", err)
	}
}

// TestRetryFetchAddExactlyOnce drives retried FetchAdds through a lossy
// simulated medium: every addition must be applied exactly once (the home's
// dedup window absorbs retransmissions), so the observed old values are the
// gapless sequence 0..n-1.
func TestRetryFetchAddExactlyOnce(t *testing.T) {
	const n = 20
	cfg := simCfg(2)
	cfg.LossProbability = 0.15
	cfg.RequestTimeout = 200 * sim.Millisecond
	cfg.RequestRetries = 25
	res, err := Run(cfg, func(pe *PE) error {
		base := pe.Alloc(8)
		if pe.ID() != 1 {
			return nil
		}
		for i := int64(0); i < n; i++ {
			old, err := pe.FetchAddErr(base, 1)
			if err != nil {
				return err
			}
			if old != i {
				t.Errorf("FetchAdd %d returned old value %d (lost or double-applied)", i, old)
			}
		}
		v, err := pe.GMReadErr(base)
		if err != nil {
			return err
		}
		if v != n {
			t.Errorf("final counter = %d, want %d", v, n)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	// 15% loss over dozens of frames (seeded, deterministic): the retry
	// path must actually have been exercised.
	if res.Total.Retries == 0 {
		t.Fatal("no retries under 15% loss — retry path untested")
	}
	t.Logf("retries=%d dupRequests=%d staleReplies=%d elapsed=%v",
		res.Total.Retries, res.Total.DupRequests, res.Total.StaleReplies, res.Elapsed)
}

// TestSimnetLossBudgetDetectsPeer checks the simulated transport's failure
// detector: under total loss with a loss budget configured, a dead peer is
// declared down after the budgeted consecutive undelivered frames, failing
// the request well before all retry attempts are waited out.
func TestSimnetLossBudgetDetectsPeer(t *testing.T) {
	cfg := simCfg(2)
	cfg.LossProbability = 1.0
	cfg.RequestTimeout = 100 * sim.Millisecond
	cfg.RequestRetries = 5
	cfg.PeerLossBudget = 3
	res, err := Run(cfg, func(pe *PE) error {
		return nil // registration alone needs the wire for PE 1
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ferr := res.Errs[1]
	if ferr == nil {
		t.Fatal("PE 1 succeeded under total loss")
	}
	if !strings.Contains(ferr.Error(), "peer 0 is down") {
		t.Fatalf("expected peer-down failure, got: %v", ferr)
	}
	// Detection fires on the budget's third send: well under the 6 full
	// timeout+backoff rounds (~1s virtual) retrying to exhaustion costs.
	if res.Elapsed >= 500*sim.Millisecond {
		t.Fatalf("detection took %v — slower than the loss budget should allow", res.Elapsed)
	}
	t.Logf("peer declared down after %v (budget 3 frames, timeout %v, %d retries allowed)",
		res.Elapsed, cfg.RequestTimeout, cfg.RequestRetries)
}

// TestRetryWriteVExactlyOnce is TestRetryFetchAddExactlyOnce for a range
// operation: scatters whose per-home requests are vectored writes cross a
// lossy simulated medium. Before the one request engine a transfer did not
// retry at all; now a lost OpWriteV or a lost ack is retransmitted under the
// same Seq and the home's dedup window absorbs the duplicate, so every word
// ends at its last round's value and the history is clean — a duplicate
// applied late would put an older round's value back.
func TestRetryWriteVExactlyOnce(t *testing.T) {
	const rounds = 20
	cfg := simCfg(3)
	cfg.LossProbability = 0.15
	cfg.RequestTimeout = 200 * sim.Millisecond
	cfg.RequestRetries = 25
	cfg.RecordHistory = true
	res, err := Run(cfg, func(pe *PE) error {
		bw := pe.Space().BlockWords
		base := pe.AllocBlocks(6 * bw)
		if pe.ID() != 2 {
			return nil
		}
		// Two words in each of two blocks per remote home: one OpWriteV of two
		// runs to kernel 0 and one to kernel 1 per scatter.
		var addrs []uint64
		for b := 0; b < 6; b++ {
			if a := base + uint64(b*bw); pe.HomeOf(a) != 2 {
				addrs = append(addrs, a, a+1)
			}
		}
		vals := make([]int64, len(addrs))
		for r := 1; r <= rounds; r++ {
			for i := range vals {
				vals[i] = int64(r)<<16 | int64(i)
			}
			if err := pe.GMScatterErr(addrs, vals); err != nil {
				return err
			}
		}
		got, err := pe.GMGatherErr(addrs)
		if err != nil {
			return err
		}
		for i := range got {
			if got[i] != vals[i] {
				t.Errorf("word %d = %#x, want the last round's %#x", addrs[i], got[i], vals[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if res.Total.ByOp[wire.OpWriteV].Msgs < 2*rounds {
		t.Fatalf("%d OpWriteV messages: the scatters did not travel vectored", res.Total.ByOp[wire.OpWriteV].Msgs)
	}
	if res.Total.Retries == 0 || res.Total.DupRequests == 0 {
		t.Fatalf("Retries = %d, DupRequests = %d under 15%% loss: the retry path of a transfer is untested",
			res.Total.Retries, res.Total.DupRequests)
	}
	if rep := check.Check(res.History); !rep.OK() {
		t.Fatalf("history of the retried scatters:\n%s", rep)
	}
}

// TestPeerDownNoticeMatchesInFlight pins what the request engine does with
// the kernel's one peer-down notice per dead peer. A range transfer with
// groups in flight to kernels 1 and 2 survives the death of kernel 3, which
// none of its groups addresses, and fails with *PeerDownError naming kernel 1
// the moment that one is declared dead. A notice that finds nothing in
// flight is dropped, and the next request to that peer fails fast on the dead
// flag, before anything is sent.
func TestPeerDownNoticeMatchesInFlight(t *testing.T) {
	cfg, err := (&Config{NumPE: 4, Transport: TransportInproc, KernelShards: 1, DirectReads: -1}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	net := inproc.New(4)
	t.Cleanup(net.Stop)
	slow := &holdNode{SinkNode: net.Node(1).(transport.SinkNode)}
	ks := []*Kernel{newKernel(0, net.Node(0), &cfg), newKernel(1, slow, &cfg),
		newKernel(2, net.Node(2), &cfg), newKernel(3, net.Node(3), &cfg)}
	pe := newPE(ks[0])
	a1, a2 := remoteAddr(t, pe, 1), remoteAddr(t, pe, 2)
	ks[2].seg.Write(a2, []int64{22})

	// Kernel 1 serves its group at once, but its reply is held in its node:
	// the transfer stays in flight with kernel 2's answer already in.
	done := make(chan error, 1)
	go func() {
		_, err := pe.GMGatherErr([]uint64{a1, a2})
		done <- err
	}()
	for held := 0; held == 0; time.Sleep(time.Millisecond) {
		slow.mu.Lock()
		held = len(slow.held)
		slow.mu.Unlock()
	}
	ks[0].peerDown(3)
	select {
	case err := <-done:
		t.Fatalf("transfer to kernels 1 and 2 ended by the death of kernel 3: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	ks[0].peerDown(1)
	var down *PeerDownError
	if err := <-done; !errors.As(err, &down) || down.Peer != 1 {
		t.Fatalf("transfer after kernel 1 died: %v, want a *PeerDownError naming peer 1", err)
	}

	// Nothing is in flight now: kernel 2's notice is dropped by whichever
	// request takes it, and a request to kernel 2 is refused unsent.
	served := ks[2].shards[0].extra.ServiceByOp[wire.OpRead].Count.Load()
	ks[0].peerDown(2)
	if _, err := pe.GMReadErr(a2); !errors.As(err, &down) || down.Peer != 2 {
		t.Fatalf("read from a peer declared dead: %v, want a *PeerDownError naming peer 2", err)
	}
	if got := ks[2].shards[0].extra.ServiceByOp[wire.OpRead].Count.Load(); got != served {
		t.Fatalf("kernel 2 served %d reads after it was declared dead", got-served)
	}
	if v, err := pe.GMReadErr(pe.Alloc(1)); err != nil || v != 0 {
		t.Fatalf("own-home read with notices queued: %d, %v", v, err)
	}
	if pe.extra.StaleReplies != 0 {
		t.Fatalf("StaleReplies = %d: a peer-down notice is not a reply", pe.extra.StaleReplies)
	}
}
