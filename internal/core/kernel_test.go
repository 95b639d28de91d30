package core

import (
	"testing"
	"time"

	"repro/internal/gmem"
	"repro/internal/sim"
	"repro/internal/transport/inproc"
	"repro/internal/wire"
)

// testKernels builds n kernels over an inproc network without starting
// their serve loops, so tests can drive handle() directly and observe the
// outgoing messages on the peers' receive queues.
func testKernels(t *testing.T, n int, mutate func(cfg *Config)) (*inproc.Net, []*Kernel) {
	t.Helper()
	// One shard: these tests drive handle() directly and pin which shard's
	// state a request lands in.
	cfg := Config{NumPE: n, Transport: TransportInproc, KernelShards: 1}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	net := inproc.New(n)
	t.Cleanup(net.Stop)
	ks := make([]*Kernel, n)
	for i := 0; i < n; i++ {
		ks[i] = newKernel(i, net.Node(i), &c)
	}
	return net, ks
}

// recvFrom pops the next message from node i with a deadline.
func recvFrom(t *testing.T, net *inproc.Net, i int) *wire.Message {
	t.Helper()
	ch := make(chan *wire.Message, 1)
	go func() {
		m, ok := net.Node(i).Recv()
		if ok {
			ch <- m
		}
	}()
	select {
	case m := <-ch:
		return m
	case <-time.After(10 * time.Second):
		t.Fatalf("no message arrived at node %d", i)
		return nil
	}
}

// replyFrom pops the next reply from kernel k's reply mailbox with a deadline.
// Like grants, replies never reach the peer's receive queue on inproc: the
// sink routes every reply op to the mailbox its PE's request engine takes from.
func replyFrom(t *testing.T, k *Kernel) *wire.Message {
	t.Helper()
	m, ok, timedOut := k.replyMb.TakeTimeout(10 * sim.Second)
	if timedOut || !ok {
		t.Fatalf("no reply arrived at kernel %d's reply mailbox", k.id)
	}
	return m
}

// syncFrom pops the next grant from kernel k's sync mailbox with a deadline.
// Grants never reach the peer's receive queue on inproc: the sending
// kernel's Send hands them to the peer's sink (Kernel.deliverApp).
func syncFrom(t *testing.T, k *Kernel) *wire.Message {
	t.Helper()
	m, ok, timedOut := k.syncMb.TakeTimeout(10 * sim.Second)
	if timedOut || !ok {
		t.Fatalf("no grant arrived at kernel %d's sync mailbox", k.id)
	}
	return m
}

func TestKernelHandleReadRepliesWithWords(t *testing.T) {
	_, ks := testKernels(t, 2, nil)
	// Address homed at kernel 0 (block 0).
	ks[0].seg.Write(3, []int64{42, 43})
	ks[0].handle(&wire.Message{Op: wire.OpRead, Src: 1, Dst: 0, Seq: 9, Addr: 3, Arg1: 2})
	resp := replyFrom(t, ks[1])
	if resp.Op != wire.OpReadResp || resp.Seq != 9 {
		t.Fatalf("reply = %v", resp)
	}
	ws := resp.Words()
	if len(ws) != 2 || ws[0] != 42 || ws[1] != 43 {
		t.Fatalf("words = %v", ws)
	}
}

func TestKernelHandleWriteAndFetchAdd(t *testing.T) {
	_, ks := testKernels(t, 2, nil)
	w := &wire.Message{Op: wire.OpWrite, Src: 1, Dst: 0, Seq: 1, Addr: 5}
	w.PutWords([]int64{7})
	ks[0].handle(w)
	if ack := replyFrom(t, ks[1]); ack.Op != wire.OpWriteAck || ack.Seq != 1 {
		t.Fatalf("ack = %v", ack)
	}
	ks[0].handle(&wire.Message{Op: wire.OpFetchAdd, Src: 1, Dst: 0, Seq: 2, Addr: 5, Arg1: 3})
	if resp := replyFrom(t, ks[1]); resp.Op != wire.OpFetchAddResp || resp.Arg1 != 7 {
		t.Fatalf("fetch-add resp = %v", resp)
	}
	if v := ks[0].seg.Read(5, 1)[0]; v != 10 {
		t.Fatalf("value = %d", v)
	}
}

func TestKernelCentralBarrierReleasesAll(t *testing.T) {
	net, ks := testKernels(t, 3, nil)
	ks[0].handle(&wire.Message{Op: wire.OpBarrierArrive, Src: 1, Tag: 4})
	ks[0].handle(&wire.Message{Op: wire.OpBarrierArrive, Src: 2, Tag: 4})
	ks[0].handle(&wire.Message{Op: wire.OpBarrierArrive, Src: 0, Tag: 4})
	// The remote releases land in their kernels' sync mailboxes without a
	// handle() at the receiver.
	for _, k := range ks[1:] {
		if m := syncFrom(t, k); m.Op != wire.OpBarrierRelease || m.Tag != 4 {
			t.Fatalf("kernel %d got %v", k.id, m)
		}
	}
	// Kernel 0's own release is a self-send, which no sink is offered: it is
	// routed to the sync mailbox by the next handle(), i.e. only after the
	// handler that sent the other releases has returned.
	self := recvFrom(t, net, 0)
	ks[0].handle(self)
	if m := syncFrom(t, ks[0]); m.Op != wire.OpBarrierRelease || m.Tag != 4 {
		t.Fatalf("kernel 0 got %v", m)
	}
}

func TestKernelLockGrantChain(t *testing.T) {
	_, ks := testKernels(t, 3, nil)
	ks[0].handle(&wire.Message{Op: wire.OpLockAcquire, Src: 1, Tag: 2})
	if m := syncFrom(t, ks[1]); m.Op != wire.OpLockGrant {
		t.Fatalf("first acquire: %v", m)
	}
	// Second acquirer queues: no grant yet.
	ks[0].handle(&wire.Message{Op: wire.OpLockAcquire, Src: 2, Tag: 2})
	ks[0].handle(&wire.Message{Op: wire.OpLockRelease, Src: 1, Tag: 2})
	if m := syncFrom(t, ks[2]); m.Op != wire.OpLockGrant || m.Tag != 2 {
		t.Fatalf("queued acquire: %v", m)
	}
}

func TestKernelInvalidationRound(t *testing.T) {
	net, ks := testKernels(t, 3, func(cfg *Config) { cfg.GMDefaultMode = gmem.ModeCached })
	// Kernel 1 caches block 0 (homed at kernel 0).
	ks[0].handle(&wire.Message{Op: wire.OpRead, Src: 1, Dst: 0, Seq: 1, Addr: 0, Arg2: 1})
	if m := replyFrom(t, ks[1]); m.Op != wire.OpReadResp {
		t.Fatalf("block fetch: %v", m)
	}
	// Kernel 2 writes the block: kernel 1 must be invalidated before the ack.
	w := &wire.Message{Op: wire.OpWrite, Src: 2, Dst: 0, Seq: 2, Addr: 0}
	w.PutWords([]int64{99})
	ks[0].handle(w)
	inv := recvFrom(t, net, 1)
	if inv.Op != wire.OpInvalidate {
		t.Fatalf("expected invalidate at kernel 1, got %v", inv)
	}
	// The writer must NOT have its ack yet: the round is still open.
	if len(ks[0].shards[0].inv) != 1 {
		t.Fatalf("invalidation round not tracked: %d open", len(ks[0].shards[0].inv))
	}
	// Ack the invalidation (as kernel 1's handler would).
	ks[0].handle(&wire.Message{Op: wire.OpInvAck, Src: 1, Dst: 0, Seq: inv.Seq, Addr: inv.Addr})
	if ack := replyFrom(t, ks[2]); ack.Op != wire.OpWriteAck || ack.Seq != 2 {
		t.Fatalf("writer ack = %v", ack)
	}
}

func TestKernelStrayInvAckDropped(t *testing.T) {
	_, ks := testKernels(t, 2, func(cfg *Config) { cfg.GMDefaultMode = gmem.ModeCached })
	ks[0].handle(&wire.Message{Op: wire.OpInvAck, Src: 1, Seq: 123})
	if ks[0].shards[0].extra.StrayDrops != 1 {
		t.Fatalf("StrayDrops = %d, want 1", ks[0].shards[0].extra.StrayDrops)
	}
}

// TestKernelCorruptBarrierArriveDropped injects the three barrier arrivals a
// kernel must not trust: one that reached a kernel other than 0 (used to
// panic it), a second one from a source already waiting (used to be counted:
// two arrivals from PE 1 released a 2-PE barrier PE 0 never reached) and one
// past the barrier's size (used to panic kernel 0). Each is counted in
// CorruptDrops and dropped, and the barrier still completes when PE 0 arrives.
func TestKernelCorruptBarrierArriveDropped(t *testing.T) {
	_, ks := testKernels(t, 2, nil)
	arrive := func(k *Kernel, src int32, size int64) {
		k.handle(&wire.Message{Op: wire.OpBarrierArrive, Src: src, Tag: 4, Arg2: size})
	}
	arrive(ks[1], 0, 0)
	if ks[1].extra.CorruptDrops != 1 {
		t.Fatalf("arrival at kernel 1: CorruptDrops = %d, want 1", ks[1].extra.CorruptDrops)
	}
	arrive(ks[0], 1, 0)
	arrive(ks[0], 1, 0) // duplicate
	arrive(ks[0], 7, 0) // names no PE
	if ks[0].extra.CorruptDrops != 2 {
		t.Fatalf("duplicate and out-of-range arrivals: CorruptDrops = %d, want 2", ks[0].extra.CorruptDrops)
	}
	if _, _, timedOut := ks[1].syncMb.TakeTimeout(10 * sim.Millisecond); !timedOut {
		t.Fatal("PE 1 released from a barrier PE 0 never reached")
	}
	arrive(ks[0], 0, 1) // claims a 1-PE barrier while PE 1 waits on the same id
	if ks[0].extra.CorruptDrops != 3 {
		t.Fatalf("over-arrival: CorruptDrops = %d, want 3", ks[0].extra.CorruptDrops)
	}
	arrive(ks[0], 0, 0)
	if m := syncFrom(t, ks[1]); m.Op != wire.OpBarrierRelease || m.Tag != 4 {
		t.Fatalf("release = %v", m)
	}
}

func TestKernelUnknownOpDropped(t *testing.T) {
	_, ks := testKernels(t, 1, nil)
	ks[0].handle(&wire.Message{Op: wire.Op(200)})
	if ks[0].extra.CorruptDrops != 1 {
		t.Fatalf("CorruptDrops = %d, want 1", ks[0].extra.CorruptDrops)
	}
}

// TestKernelCorruptPayloadsDropped feeds malformed global-memory traffic to
// a kernel and checks it drops (and counts) each message instead of
// panicking.
func TestKernelCorruptPayloadsDropped(t *testing.T) {
	_, ks := testKernels(t, 2, nil)
	// Torn scalar write: payload is not whole words.
	ks[0].handle(&wire.Message{Op: wire.OpWrite, Src: 1, Seq: 1, Addr: 0, Data: []byte{1, 2, 3}})
	// Ragged vectored read: truncated range list.
	ks[0].handle(&wire.Message{Op: wire.OpReadV, Src: 1, Seq: 2, Data: []byte{9, 9, 9, 9, 9}})
	// Truncated vectored write: header promises more runs than present.
	ks[0].handle(&wire.Message{Op: wire.OpWriteV, Src: 1, Seq: 3, Arg1: 5, Data: []byte{0}})
	if ks[0].shards[0].extra.CorruptDrops != 3 {
		t.Fatalf("CorruptDrops = %d, want 3", ks[0].shards[0].extra.CorruptDrops)
	}
}

// TestKernelDedupAbsorbsRetriedFetchAdd retransmits a FetchAdd with the same
// Seq (as the PE's retry path would) and checks it is applied exactly once,
// with the cached response resent.
func TestKernelDedupAbsorbsRetriedFetchAdd(t *testing.T) {
	_, ks := testKernels(t, 2, nil)
	req := &wire.Message{Op: wire.OpFetchAdd, Src: 1, Dst: 0, Seq: 7, Addr: 5, Arg1: 3}
	ks[0].handle(req)
	if resp := replyFrom(t, ks[1]); resp.Op != wire.OpFetchAddResp || resp.Arg1 != 0 {
		t.Fatalf("first resp = %v", resp)
	}
	retry := &wire.Message{Op: wire.OpFetchAdd, Src: 1, Dst: 0, Seq: 7, Addr: 5, Arg1: 3, Flags: wire.FlagRetry}
	ks[0].handle(retry)
	resp := replyFrom(t, ks[1])
	if resp.Op != wire.OpFetchAddResp || resp.Arg1 != 0 {
		t.Fatalf("resent resp = %v (want cached old value 0)", resp)
	}
	if v := ks[0].seg.Read(5, 1)[0]; v != 3 {
		t.Fatalf("value = %d, want 3 (applied exactly once)", v)
	}
	if ks[0].shards[0].extra.DupRequests != 1 {
		t.Fatalf("DupRequests = %d, want 1", ks[0].shards[0].extra.DupRequests)
	}
}

func TestKernelPingPong(t *testing.T) {
	_, ks := testKernels(t, 2, nil)
	ks[0].handle(&wire.Message{Op: wire.OpPing, Src: 1, Seq: 5})
	if m := replyFrom(t, ks[1]); m.Op != wire.OpPong || m.Seq != 5 {
		t.Fatalf("pong = %v", m)
	}
}

func TestKernelUserMessageRouting(t *testing.T) {
	_, ks := testKernels(t, 1, nil)
	ks[0].handle(&wire.Message{Op: wire.OpUserMsg, Src: 0, Tag: 11, Data: []byte("hi")})
	mb := ks[0].userMb(11)
	m, ok := mb.Take()
	if !ok || string(m.Data) != "hi" {
		t.Fatalf("user message = %v", m)
	}
	// Different tag queues are independent.
	ks[0].handle(&wire.Message{Op: wire.OpUserMsg, Src: 0, Tag: 12})
	if _, _, timedOut := ks[0].userMb(11).TakeTimeout(10_000_000); !timedOut {
		t.Fatal("tag 11 queue should be empty")
	}
}

// TestKernelPendingResponseRouting: a reply op is routed by op alone — the
// kernel keeps no table of pending requests, so the first answer and a
// duplicate of it both reach the reply mailbox, where the request engine's Seq
// filter sorts them out; the serve loop drops neither.
func TestKernelPendingResponseRouting(t *testing.T) {
	_, ks := testKernels(t, 2, nil)
	for i := 0; i < 2; i++ {
		if consumed := ks[0].handle(&wire.Message{Op: wire.OpReadResp, Src: 1, Seq: 9}); consumed {
			t.Fatalf("reply %d was consumed by the serve loop", i)
		}
		if m, ok := ks[0].replyMb.Take(); !ok || m.Seq != 9 {
			t.Fatalf("reply %d not in the reply mailbox: %v", i, m)
		}
	}
	if ks[0].extra.StrayDrops != 0 {
		t.Fatalf("StrayDrops = %d, want 0", ks[0].extra.StrayDrops)
	}
}

func TestKernelProcManagement(t *testing.T) {
	_, ks := testKernels(t, 2, nil)
	ks[0].handle(&wire.Message{Op: wire.OpProcRegister, Src: 1, Seq: 1, Data: []byte("hostX")})
	reg := replyFrom(t, ks[1])
	if reg.Op != wire.OpProcRegResp || reg.Arg1 != 1 {
		t.Fatalf("register resp = %v", reg)
	}
	ks[0].handle(&wire.Message{Op: wire.OpProcList, Src: 1, Seq: 2})
	list := replyFrom(t, ks[1])
	if list.Op != wire.OpProcListResp || len(list.Data) == 0 {
		t.Fatalf("list resp = %v", list)
	}
	ks[0].handle(&wire.Message{Op: wire.OpProcExit, Src: 1, Seq: 3, Arg1: reg.Arg1, Arg2: 0})
	if ack := replyFrom(t, ks[1]); ack.Op != wire.OpProcExitAck {
		t.Fatalf("exit ack = %v", ack)
	}
}
