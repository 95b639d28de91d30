package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/gmem"
	"repro/internal/sim"
	"repro/internal/transport"
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
// Replies — barrier releases and lock grants among them — never reach the
// peer's receive queue on inproc: the sending kernel's Send hands them to the
// peer's sink (Kernel.deliverApp), which puts them into the mailbox its PE's
// request engine takes from.
func replyFrom(t *testing.T, k *Kernel) *wire.Message {
	t.Helper()
	m, ok, timedOut := k.replyMb.TakeTimeout(10 * sim.Second)
	if timedOut || !ok {
		t.Fatalf("no reply arrived at kernel %d's reply mailbox", k.id)
	}
	return m
}

// grantFrom pops the next reply from kernel k's reply mailbox and checks that
// it is the grant op about id, answering request seq.
func grantFrom(t *testing.T, k *Kernel, op wire.Op, id int32, seq uint64) {
	t.Helper()
	if m := replyFrom(t, k); m.Op != op || m.Tag != id || m.Seq != seq {
		t.Fatalf("kernel %d got %v, want %v about %d answering seq %d", k.id, m, op, id, seq)
	}
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
	// PE 0 arrives first, so the manager lists its release first.
	ks[0].handle(&wire.Message{Op: wire.OpBarrierArrive, Src: 0, Tag: 4, Seq: 1})
	ks[0].handle(&wire.Message{Op: wire.OpBarrierArrive, Src: 1, Tag: 4, Seq: 11})
	// Kernel 0's own release is a self-send, which its local sink takes
	// straight to the reply mailbox: PE 0 may go the moment it lands, so by
	// then every other release must already be in its kernel's mailbox.
	var early []uint64
	net.Node(0).(*inproc.Node).SetLocalSink(func(m *wire.Message) bool {
		if m.Op == wire.OpBarrierRelease {
			for _, k := range ks[1:] {
				if r, ok, timedOut := k.replyMb.TakeTimeout(sim.Millisecond); ok && !timedOut {
					early = append(early, r.Seq)
				}
			}
		}
		return ks[0].deliverSelf(m)
	})
	ks[0].handle(&wire.Message{Op: wire.OpBarrierArrive, Src: 2, Tag: 4, Seq: 21})
	// Each release lands in its kernel's reply mailbox without a handle() at
	// the receiver, under its arrival's Seq; PE 0's does not queue for the
	// serve loop.
	if !slices.Equal(early, []uint64{11, 21}) {
		t.Fatalf("releases in kernels 1 and 2 when PE 0's was sent: seqs %v, want [11 21]", early)
	}
	grantFrom(t, ks[0], wire.OpBarrierRelease, 4, 1)
}

func TestKernelLockGrantChain(t *testing.T) {
	_, ks := testKernels(t, 3, nil)
	ks[0].handle(&wire.Message{Op: wire.OpLockAcquire, Src: 1, Tag: 2, Seq: 5})
	grantFrom(t, ks[1], wire.OpLockGrant, 2, 5)
	// Second acquirer queues: no grant yet.
	ks[0].handle(&wire.Message{Op: wire.OpLockAcquire, Src: 2, Tag: 2, Seq: 8})
	ks[0].handle(&wire.Message{Op: wire.OpLockRelease, Src: 1, Tag: 2})
	grantFrom(t, ks[2], wire.OpLockGrant, 2, 8)
}

// TestKernelCorruptBarrierArriveDropped injects the barrier arrivals a
// kernel must not trust: one that reached a kernel other than 0 (used to
// panic it), a second one from a source already waiting (used to be counted:
// two arrivals from PE 1 released a 2-PE barrier PE 0 never reached), one
// without a Seq, which no PE's request engine sends, and one past the
// barrier's size (used to panic kernel 0). Each is counted in CorruptDrops
// and dropped, and the barrier still completes when PE 0 arrives. A retry of
// the waiting arrival is no forgery: it is counted in DupRequests, not toward
// the barrier.
func TestKernelCorruptBarrierArriveDropped(t *testing.T) {
	_, ks := testKernels(t, 2, nil)
	arrive := func(k *Kernel, src int32, size int64, seq uint64) {
		k.handle(&wire.Message{Op: wire.OpBarrierArrive, Src: src, Tag: 4, Arg2: size, Seq: seq})
	}
	arrive(ks[1], 0, 0, 1)
	if ks[1].syncDrops != 1 {
		t.Fatalf("arrival at kernel 1: CorruptDrops = %d, want 1", ks[1].syncDrops)
	}
	arrive(ks[0], 1, 0, 5)
	arrive(ks[0], 1, 0, 6) // a second arrival while the first waits
	arrive(ks[0], 7, 0, 1) // names no PE
	arrive(ks[0], 0, 0, 0) // unnumbered
	if ks[0].syncDrops != 3 {
		t.Fatalf("duplicate, out-of-range and unnumbered arrivals: CorruptDrops = %d, want 3", ks[0].syncDrops)
	}
	arrive(ks[0], 1, 0, 5) // a retry
	if ks[0].syncDups != 1 {
		t.Fatalf("retry: DupRequests = %d, want 1", ks[0].syncDups)
	}
	noReplyFrom(t, ks[1], "a barrier PE 0 never reached")
	arrive(ks[0], 0, 1, 2) // claims a 1-PE barrier while PE 1 waits on the same id
	if ks[0].syncDrops != 4 {
		t.Fatalf("over-arrival: CorruptDrops = %d, want 4", ks[0].syncDrops)
	}
	arrive(ks[0], 0, 0, 3)
	grantFrom(t, ks[1], wire.OpBarrierRelease, 4, 5)
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

// TestKernelReusedReplyDedup: a shard builds its read and mutation replies in
// one message it keeps. A duplicate of a mutating request that arrives after
// that message has answered other requests is answered from the dedup
// window's copy, with the original result, and the copies the requester
// already took are not touched by the reuse.
func TestKernelReusedReplyDedup(t *testing.T) {
	_, ks := testKernels(t, 2, nil)
	cas := &wire.Message{Op: wire.OpCAS, Src: 1, Dst: 0, Seq: 7, Addr: 5, Arg1: 0, Arg2: 4}
	ks[0].handle(cas)
	first := replyFrom(t, ks[1])
	if first.Op != wire.OpCASResp || first.Seq != 7 || first.Arg1 != 0 || first.Arg2 != 1 {
		t.Fatalf("first CAS reply = %v", first)
	}
	// The shard's reply message now serves a read (with a payload) and a
	// fetch-add.
	ks[0].handle(&wire.Message{Op: wire.OpRead, Src: 1, Dst: 0, Seq: 8, Addr: 5, Arg1: 1})
	if r := replyFrom(t, ks[1]); r.Op != wire.OpReadResp || r.Seq != 8 || r.PayloadWords() != 1 || r.Word(0) != 4 {
		t.Fatalf("read reply = %v", r)
	}
	ks[0].handle(&wire.Message{Op: wire.OpFetchAdd, Src: 1, Dst: 0, Seq: 9, Addr: 5, Arg1: 10})
	if r := replyFrom(t, ks[1]); r.Op != wire.OpFetchAddResp || r.Seq != 9 || r.Arg1 != 4 {
		t.Fatalf("fetch-add reply = %v", r)
	}
	// Re-executed, the CAS would now fail (the word is 14): only the window's
	// copy says it swapped.
	retry := *cas
	retry.Flags = wire.FlagRetry
	ks[0].handle(&retry)
	dup := replyFrom(t, ks[1])
	if dup.Op != wire.OpCASResp || dup.Seq != 7 || dup.Arg1 != 0 || dup.Arg2 != 1 || len(dup.Data) != 0 {
		t.Fatalf("duplicate CAS reply = %v, want the original's", dup)
	}
	if first.Op != wire.OpCASResp || first.Seq != 7 || first.Arg1 != 0 || first.Arg2 != 1 {
		t.Fatalf("first CAS reply changed to %v after the shard reused its message", first)
	}
	if v := ks[0].seg.Read(5, 1)[0]; v != 14 {
		t.Fatalf("value = %d, want 14", v)
	}
	if sh := ks[0].shards[0]; sh.extra.DupRequests != 1 || sh.resp.Op != wire.OpInvalid || len(sh.resp.Data) != 0 {
		t.Fatalf("DupRequests = %d, reply message left as %v; want 1 and empty", sh.extra.DupRequests, &sh.resp)
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

// TestKernelUserQueuesAfterRelease: once the serve loop has exited nothing can
// fill or close a user queue any more, so a RecvMsg on a tag first used then
// must fail like a wait the shutdown interrupted — with no RequestTimeout
// (the default here) it would otherwise park for good, which is what a node
// killed under its running application did. A queue created before the
// release keeps what it held.
func TestKernelUserQueuesAfterRelease(t *testing.T) {
	_, ks := testKernels(t, 1, nil)
	k := ks[0]
	pe := newPE(k)
	served := make(chan struct{})
	go func() {
		defer close(served)
		k.serve()
	}()
	held := k.userMb(7)
	held.Put(&wire.Message{Op: wire.OpUserMsg, Tag: 7, Data: []byte("held")})
	k.node.CloseRecv()

	raised := make(chan any, 1)
	go func() {
		<-served
		defer func() { raised <- recover() }()
		pe.RecvMsg(9)
	}()
	select {
	case r := <-raised:
		var down *ShutdownError
		if err, _ := r.(error); !errors.As(err, &down) || down.Op != "recv-msg" {
			t.Fatalf("RecvMsg on a new tag after the serve loop exited: %v, want a *ShutdownError of recv-msg", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RecvMsg on a new tag parked after the serve loop exited")
	}
	if m, ok := held.Take(); !ok || string(m.Data) != "held" {
		t.Fatalf("queue created before the release lost its message: %v %v", m, ok)
	}
	if m, ok := held.Take(); ok {
		t.Fatalf("drained queue still open: %v", m)
	}
}

// TestKernelPendingResponseRouting: a reply op is routed by op alone — the
// kernel keeps no table of pending requests, so the first answer and a
// duplicate of it both reach the reply mailbox, where the request engine's Seq
// filter sorts them out; the serve loop drops neither.
func TestKernelPendingResponseRouting(t *testing.T) {
	_, ks := testKernels(t, 2, nil)
	for i := 0; i < 2; i++ {
		if consumed, _ := ks[0].handle(&wire.Message{Op: wire.OpReadResp, Src: 1, Seq: 9}); consumed {
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

// noReplyFrom asserts that nothing has reached kernel k's reply mailbox.
func noReplyFrom(t *testing.T, k *Kernel, what string) {
	t.Helper()
	if m, _, timedOut := k.replyMb.TakeTimeout(20 * sim.Millisecond); !timedOut {
		t.Fatalf("%s was answered: %v", what, m)
	}
}

// TestKernelCorruptLockMessagesDropped injects the lock messages kernel 0's
// manager used to answer with a panic — a re-acquire by the holder, a release
// by a PE that does not hold the lock — and the ones that fail before they
// reach it: a second acquire by a waiter (used to be queued twice, i.e. granted
// twice), a source that names no PE, a lock message at a kernel other than 0.
// Each is counted in CorruptDrops and dropped, and the lock still passes down
// its queue in order, once per well-formed acquire.
func TestKernelCorruptLockMessagesDropped(t *testing.T) {
	_, ks := testKernels(t, 3, nil)
	send := func(k *Kernel, op wire.Op, src int32, seq uint64) {
		k.handle(&wire.Message{Op: op, Src: src, Tag: 2, Seq: seq})
	}
	send(ks[0], wire.OpLockAcquire, 1, 10)
	grantFrom(t, ks[1], wire.OpLockGrant, 2, 10)
	send(ks[0], wire.OpLockAcquire, 2, 20) // queues
	for i, bad := range []struct {
		k   *Kernel
		op  wire.Op
		src int32
		seq uint64
	}{
		{ks[0], wire.OpLockAcquire, 1, 11}, // holder again
		{ks[0], wire.OpLockAcquire, 2, 21}, // waiter again
		{ks[0], wire.OpLockRelease, 2, 0},  // not the holder
		{ks[0], wire.OpLockRelease, 0, 0},  // not the holder either
		{ks[0], wire.OpLockAcquire, 7, 1},  // names no PE
		{ks[0], wire.OpLockRelease, -1, 0}, // names no PE
		{ks[0], wire.OpLockAcquire, 0, 0},  // unnumbered
	} {
		send(bad.k, bad.op, bad.src, bad.seq)
		if got := ks[0].syncDrops; got != uint64(i+1) {
			t.Fatalf("forged message %d (%v from %d): CorruptDrops = %d, want %d", i, bad.op, bad.src, got, i+1)
		}
	}
	send(ks[1], wire.OpLockAcquire, 0, 1)
	send(ks[1], wire.OpLockRelease, 0, 0)
	if ks[1].syncDrops != 2 {
		t.Fatalf("sync messages at kernel 1: CorruptDrops = %d, want 2", ks[1].syncDrops)
	}
	send(ks[0], wire.OpLockRelease, 1, 0)
	grantFrom(t, ks[2], wire.OpLockGrant, 2, 20)
	send(ks[0], wire.OpLockRelease, 2, 0) // nobody waits: the refused duplicate must not be granted
	for _, k := range ks {
		noReplyFrom(t, k, "a lock nobody asked for")
	}
	if _, r := ks[0].sync.Residue(); r != 0 {
		t.Fatalf("lock manager residue = %d, want 0", r)
	}
}

// TestKernelCorruptTreeArrivalsDropped injects what a node of the combining
// tree used to count on trust — an arrival from a kernel that is not its
// child, a second arrival from one that is, either of which completed the
// subtree before everybody in it had arrived — and what it used to pass on: a
// release from anybody but its parent, and sync messages whose source names no
// PE, which only kernel 0's central path checked. Each is counted in
// CorruptDrops, nothing is sent and the application is not woken; the subtree
// then completes and is released as if they had never arrived.
func TestKernelCorruptTreeArrivalsDropped(t *testing.T) {
	net, ks := testKernels(t, 6, func(cfg *Config) { cfg.Barrier = BarrierTree })
	k := ks[1] // parent 0, children 3 and 4
	send := func(op wire.Op, src int32, seq uint64) { k.handle(&wire.Message{Op: op, Src: src, Tag: 4, Seq: seq}) }
	send(wire.OpBarrierArrive, 3, 0)
	for i, bad := range []struct {
		op  wire.Op
		src int32
	}{
		{wire.OpBarrierArrive, 5},  // no child of kernel 1
		{wire.OpBarrierArrive, 0},  // its parent is not its child either
		{wire.OpBarrierArrive, 3},  // a child, twice in one epoch
		{wire.OpBarrierArrive, 99}, // names no PE
		{wire.OpBarrierArrive, 1},  // the own PE's, unnumbered
		{wire.OpBarrierRelease, -1},
		{wire.OpBarrierRelease, 3}, // not from the parent
		{wire.OpLockAcquire, 99},
	} {
		send(bad.op, bad.src, 0)
		if got := k.syncDrops; got != uint64(i+1) {
			t.Fatalf("forged message %d (%v from %d): CorruptDrops = %d, want %d", i, bad.op, bad.src, got, i+1)
		}
	}
	if n := k.Stats().MsgsSent; n != 0 {
		t.Fatalf("%d messages sent on forged input", n)
	}
	noReplyFrom(t, k, "forged input")
	send(wire.OpBarrierArrive, 1, 7)
	send(wire.OpBarrierArrive, 4, 0)
	if m := recvFrom(t, net, 0); m.Op != wire.OpBarrierArrive || m.Src != 1 || m.Tag != 4 {
		t.Fatalf("the complete subtree's arrival at the parent: %v", m)
	}
	send(wire.OpBarrierRelease, 0, 0)
	for _, c := range []int{3, 4} {
		if m := recvFrom(t, net, c); m.Op != wire.OpBarrierRelease || m.Tag != 4 || m.Seq != 0 {
			t.Fatalf("child %d got %v", c, m)
		}
	}
	grantFrom(t, k, wire.OpBarrierRelease, 4, 7)
}

// servedRuns is the request TestServedRangeSinglePass sends in each vectored
// form: three runs in three blocks kernel 0 of 2 homes (default block size 32).
var servedRuns = []struct {
	addr  uint64
	words []int64
}{{3, []int64{11, 12}}, {64 + 5, []int64{21}}, {128, []int64{31, 32, 33, 34}}}

func servedReq(op wire.Op, seq uint64) *wire.Message {
	m := &wire.Message{Op: op, Src: 1, Dst: 0, Seq: seq}
	for _, r := range servedRuns {
		if op == wire.OpReadV {
			m.AppendRange(r.addr, len(r.words))
		} else {
			m.AppendWriteRun(r.addr, r.words)
		}
	}
	return m
}

// TestServedRangeSinglePass pins what a home does with a vectored request now
// that it is decoded, located and checked once (DESIGN.md §16): each of
// OpReadV, OpWriteV and OpFlushV, well-formed, torn, straying outside the
// requester's namespace, touching one block that migrated away, and sent
// twice. A corrupt request is counted exactly once and never answered; a
// refusal is all-or-nothing — the segment untouched, one OpNsNack or
// OpMigrateNack, the dedup entry forgotten, so the same request is served once
// the obstacle is gone; a duplicate write is applied once and its ack resent.
func TestServedRangeSinglePass(t *testing.T) {
	const untouched = -7
	for _, op := range []wire.Op{wire.OpReadV, wire.OpWriteV, wire.OpFlushV} {
		write := op != wire.OpReadV
		// setup returns fresh kernels whose target words hold untouched (a
		// write) or the words a read must return.
		setup := func(t *testing.T) (*Kernel, *Kernel, *kernelShard) {
			_, ks := testKernels(t, 2, nil)
			for _, r := range servedRuns {
				ws := r.words
				if write {
					ws = make([]int64, len(r.words))
					for i := range ws {
						ws[i] = untouched
					}
				}
				ks[0].seg.Write(r.addr, ws)
			}
			return ks[0], ks[1], ks[0].shards[0]
		}
		// applied reports whether the segment holds the request's words.
		applied := func(k *Kernel) bool {
			for _, r := range servedRuns {
				for i, w := range k.seg.Read(r.addr, len(r.words)) {
					if w != r.words[i] {
						return false
					}
				}
			}
			return true
		}
		// served asserts that the request was answered as a well-formed one is.
		served := func(t *testing.T, k0, k1 *Kernel, seq uint64) {
			t.Helper()
			resp := replyFrom(t, k1)
			if resp.Seq != seq {
				t.Fatalf("reply = %v, want seq %d", resp, seq)
			}
			if !write {
				want := []int64{11, 12, 21, 31, 32, 33, 34}
				if got := resp.Words(); resp.Op != wire.OpReadVResp || !slices.Equal(got, want) {
					t.Fatalf("reply = %v with %v, want the seven words in run order", resp, got)
				}
			} else if resp.Op != wire.OpWriteAck {
				t.Fatalf("reply = %v, want an ack", resp)
			}
			if !applied(k0) {
				t.Fatal("segment does not hold the request's words")
			}
		}

		t.Run(op.String()+"/well-formed", func(t *testing.T) {
			k0, k1, _ := setup(t)
			k0.handle(servedReq(op, 9))
			served(t, k0, k1, 9)
		})
		t.Run(op.String()+"/torn", func(t *testing.T) {
			k0, k1, sh := setup(t)
			torn := servedReq(op, 9)
			torn.Data = torn.Data[:len(torn.Data)-3]
			k0.handle(torn)
			if sh.extra.CorruptDrops != 1 {
				t.Fatalf("CorruptDrops = %d, want exactly 1", sh.extra.CorruptDrops)
			}
			noReplyFrom(t, k1, "a torn request")
			if write && applied(k0) {
				t.Fatal("runs decoded before the tear were applied")
			}
			// The retry carries the whole payload under the same Seq.
			k0.handle(servedReq(op, 9))
			served(t, k0, k1, 9)
			if sh.extra.DupRequests != 0 {
				t.Fatal("the retry of a dropped request was absorbed as a duplicate")
			}
		})
		t.Run(op.String()+"/outside-namespace", func(t *testing.T) {
			k0, k1, sh := setup(t)
			k0.ns.Bind(1, gmem.Region{Base: 0, Limit: 100}) // the third run strays
			k0.handle(servedReq(op, 9))
			if nack := replyFrom(t, k1); nack.Op != wire.OpNsNack || nack.Seq != 9 || nack.Arg2 != 100 {
				t.Fatalf("reply = %v, want OpNsNack carrying the bound region", nack)
			}
			noReplyFrom(t, k1, "a refused request, a second time")
			if sh.extra.NsViolations != 1 || (write && applied(k0)) {
				t.Fatalf("NsViolations = %d, applied = %v: want one violation and nothing applied", sh.extra.NsViolations, applied(k0))
			}
			k0.ns.Unbind(1)
			k0.handle(servedReq(op, 9))
			served(t, k0, k1, 9)
		})
		t.Run(op.String()+"/one-foreign-block", func(t *testing.T) {
			k0, k1, sh := setup(t)
			k0.dir.SetOverride(2, 1) // the second run's block lives at kernel 1 now
			k0.handle(servedReq(op, 9))
			if nack := replyFrom(t, k1); nack.Op != wire.OpMigrateNack || nack.Seq != 9 || nack.Arg1 != 1 {
				t.Fatalf("reply = %v, want OpMigrateNack hinting kernel 1", nack)
			}
			noReplyFrom(t, k1, "a NACKed request, a second time")
			if write && applied(k0) {
				t.Fatal("runs ahead of the foreign block were applied")
			}
			k0.dir.SetOverride(2, 0)
			k0.handle(servedReq(op, 9))
			served(t, k0, k1, 9)
			if sh.extra.DupRequests != 0 {
				t.Fatal("the retry of a NACKed request was absorbed as a duplicate")
			}
		})
		t.Run(op.String()+"/duplicate", func(t *testing.T) {
			k0, k1, sh := setup(t)
			k0.handle(servedReq(op, 9))
			served(t, k0, k1, 9)
			k0.seg.Write(3, []int64{untouched}) // somebody else's later store
			dup := servedReq(op, 9)
			dup.Flags = wire.FlagRetry
			k0.handle(dup)
			if resp := replyFrom(t, k1); resp.Seq != 9 {
				t.Fatalf("reply to the duplicate = %v", resp)
			}
			wantDups, wantWord := uint64(1), int64(untouched)
			if !write {
				wantDups = 0 // a read is simply served again
			}
			if got := k0.seg.ReadWord(3); sh.extra.DupRequests != wantDups || got != wantWord {
				t.Fatalf("DupRequests = %d, word 3 = %d: want %d and %d (applied once)", sh.extra.DupRequests, got, wantDups, wantWord)
			}
		})
	}
}

// TestKernelCorruptRunShapesDropped serves the run shapes no PE sends: a run
// that crosses a block boundary and a run of no words, in every request that
// carries runs. The segment answers either with a panic (a range "spans
// blocks") on whichever context serves — the home's serve loop on tcpnet — so
// the located-run pass refuses them first: counted once in CorruptDrops, not
// answered, and the dedup entry forgotten, so that the well-formed request a
// retry carries under the same Seq is served.
func TestKernelCorruptRunShapesDropped(t *testing.T) {
	four := []int64{1, 2, 3, 4}
	vec := func(op wire.Op, addr uint64, words []int64) *wire.Message {
		m := &wire.Message{Op: op}
		if op == wire.OpReadV {
			m.AppendRange(2, 1) // a well-formed run ahead of the bad one
			m.AppendRange(addr, len(words))
		} else {
			m.AppendWriteRun(2, four[:1])
			m.AppendWriteRun(addr, words)
		}
		return m
	}
	scalarWrite := func(addr uint64, words []int64) *wire.Message {
		m := &wire.Message{Op: wire.OpWrite, Addr: addr}
		m.PutWords(words)
		return m
	}
	for _, tc := range []struct {
		name string
		req  *wire.Message
	}{
		{"read/crossing", &wire.Message{Op: wire.OpRead, Addr: 30, Arg1: 4}},
		{"read/empty", &wire.Message{Op: wire.OpRead, Addr: 32}},
		{"read/negative", &wire.Message{Op: wire.OpRead, Addr: 3, Arg1: -1}},
		{"write/crossing", scalarWrite(30, four)},
		{"write/empty", scalarWrite(32, nil)},
		{"read-v/crossing", vec(wire.OpReadV, 30, four)},
		{"read-v/empty", vec(wire.OpReadV, 3, nil)},
		{"write-v/crossing", vec(wire.OpWriteV, 30, four)},
		{"write-v/empty", vec(wire.OpWriteV, 3, nil)},
		{"flush-v/crossing", vec(wire.OpFlushV, 30, four)},
		{"flush-v/empty", vec(wire.OpFlushV, 3, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ks := testKernels(t, 1, nil) // every block is homed here: nothing to NACK instead
			sh := ks[0].shards[0]
			tc.req.Seq = 5
			ks[0].handle(tc.req)
			if sh.extra.CorruptDrops != 1 {
				t.Fatalf("CorruptDrops = %d, want 1", sh.extra.CorruptDrops)
			}
			if v := ks[0].seg.ReadWord(2); v != 0 {
				t.Fatalf("word 2 = %d: the run ahead of the bad one was applied", v)
			}
			// Not answered (a lone kernel's reply is a self-send, queued for
			// its own serve loop), and — a mutation's — not remembered.
			if n := ks[0].Stats().MsgsSent; n != 0 {
				t.Fatalf("the request was answered: %d messages sent", n)
			}
			if isMutating(tc.req.Op) {
				ok := scalarWrite(2, four[:1])
				ok.Seq = 5
				ks[0].handle(ok)
				if sh.extra.DupRequests != 0 || ks[0].seg.ReadWord(2) != 1 {
					t.Fatalf("DupRequests = %d, word 2 = %d: the retry was absorbed by the dropped request's dedup entry",
						sh.extra.DupRequests, ks[0].seg.ReadWord(2))
				}
			}
		})
	}
}

// TestKernelCorruptJobFramesDropped serves the job frames no scheduler sends,
// as OpJobOpen and as OpJobClose: a torn member list, a member outside the
// cluster, an empty, inverted or unaligned region and a tag base that is not a
// slot. Each lists a well-formed member ahead of what is wrong with it, so a
// handler that applied the frame as it read it would show. Each is counted
// once in CorruptDrops, not answered, and changes no binding, block, queue or
// barrier. Members 2³¹+1 and 2³²−1 are the ids whose conversion to int wraps
// negative on a 32-bit build, the class of the frame that once bound PE 1 on
// 386 by naming PE 2³²+1: both are refused there as on 64-bit targets.
func TestKernelCorruptJobFramesDropped(t *testing.T) {
	const bw = 32
	region := gmem.Region{Base: 9 * bw, Limit: 12 * bw} // block 9 is homed at kernel 0
	tagBase := JobSlotBase(2)
	frame := func(op wire.Op) *wire.Message {
		m := &wire.Message{Src: 1, Seq: 7}
		g := JobGroup{Members: []int{1, 2}, TagBase: tagBase, Region: region}
		g.frame(m, op)
		return m
	}
	member := func(id uint32) func(m *wire.Message) {
		return func(m *wire.Message) { binary.LittleEndian.PutUint32(m.Data[4:], id) }
	}
	for _, op := range []wire.Op{wire.OpJobOpen, wire.OpJobClose} {
		for _, tc := range []struct {
			name string
			edit func(m *wire.Message)
		}{
			{"torn member list", func(m *wire.Message) { m.Data = m.Data[:len(m.Data)-1] }},
			{"member N", member(3)},
			{"member 2^31+1", member(1<<31 + 1)},
			{"member 2^32-1", member(1<<32 - 1)},
			{"empty region", func(m *wire.Message) { m.Arg2 = int64(m.Addr) }},
			{"inverted region", func(m *wire.Message) { m.Arg2 = int64(m.Addr) - bw }},
			{"unaligned base", func(m *wire.Message) { m.Addr++ }},
			{"unaligned limit", func(m *wire.Message) { m.Arg2++ }},
			{"tag base off a slot", func(m *wire.Message) { m.Tag++ }},
			{"tag base below the slots", func(m *wire.Message) { m.Tag = 0 }},
		} {
			t.Run(op.String()+"/"+tc.name, func(t *testing.T) {
				_, ks := testKernels(t, 3, nil)
				k := ks[0]
				// What a close would undo: member 2 bound, a block of the
				// region written, a message and a barrier arrival in the
				// job's tag window.
				k.ns.Bind(2, region)
				k.seg.Write(region.Base, []int64{5})
				k.userMb(tagBase + 5).Put(&wire.Message{Op: wire.OpUserMsg, Tag: tagBase + 5})
				k.handle(&wire.Message{Op: wire.OpBarrierArrive, Src: 2, Tag: tagBase + 1, Arg2: 2, Seq: 3})
				m := frame(op)
				tc.edit(m)
				k.handle(m)
				if k.extra.CorruptDrops != 1 {
					t.Fatalf("CorruptDrops = %d, want 1", k.extra.CorruptDrops)
				}
				noReplyFrom(t, ks[1], "a malformed job frame")
				if _, bound := k.ns.Lookup(1); bound {
					t.Error("member 1 was bound")
				}
				if r, bound := k.ns.Lookup(2); !bound || r != region {
					t.Errorf("member 2's binding = %v, %v; want %v", r, bound, region)
				}
				if got := k.seg.CountRange(region.Base/bw, 3); got != 1 {
					t.Errorf("%d blocks of the region left, want 1", got)
				}
				if pend, _ := k.sync.Residue(); len(k.userq) != 1 || pend != 1 {
					t.Errorf("%d user queues, %d barrier arrivals left; want 1 and 1", len(k.userq), pend)
				}
			})
		}
	}
}

// TestKernelStaleJobClose: a close of job A that arrives after job B rebound
// A's member to its own region leaves that member bound to B. It still tears
// A's region and tag window down.
func TestKernelStaleJobClose(t *testing.T) {
	const bw = 32
	a := JobGroup{Members: []int{1, 2}, TagBase: JobSlotBase(0), Region: gmem.Region{Base: 0, Limit: 4 * bw}}
	b := JobGroup{Members: []int{2}, TagBase: JobSlotBase(1), Region: gmem.Region{Base: 4 * bw, Limit: 8 * bw}}
	_, ks := testKernels(t, 3, nil)
	k := ks[0]
	seq := uint64(0)
	send := func(g JobGroup, op wire.Op) *wire.Message {
		seq++
		m := &wire.Message{Src: 1, Seq: seq}
		g.frame(m, op)
		k.handle(m)
		return replyFrom(t, ks[1])
	}
	send(a, wire.OpJobOpen)
	k.seg.Write(a.Region.Base, []int64{5})
	send(a, wire.OpJobClose)
	send(b, wire.OpJobOpen)
	k.seg.Write(a.Region.Base, []int64{6}) // somebody's write after the close
	if ack := send(a, wire.OpJobClose); ack.Op != wire.OpJobCloseAck || ack.Arg1 != 1 {
		t.Fatalf("stale close answered %v, want an ack dropping 1 block", ack)
	}
	if r, bound := k.ns.Lookup(2); !bound || r != b.Region {
		t.Fatalf("member 2's binding after the stale close = %v, %v; want job B's %v", r, bound, b.Region)
	}
	if _, bound := k.ns.Lookup(1); bound {
		t.Fatal("member 1 is still bound to job A")
	}
	if k.extra.CorruptDrops != 0 {
		t.Fatalf("CorruptDrops = %d for well-formed frames", k.extra.CorruptDrops)
	}
}

// TestKernelCorruptMembershipFrames sends every membership frame that names a
// kernel in an int64 field with an id no kernel has: 2³²+1 and 2³¹+1, which
// a 32-bit build's int narrows to 1 and to a negative id, −1, and N. The
// commit's block count and the epoch update's member state, which narrows to
// a byte on every target, get the same values where they are not legitimate.
// A kernel counts each frame in CorruptDrops and drops it unanswered, with
// its directory, escrow and segment as they were; a PE given such a NACK hint
// fails the request instead of chasing it.
func TestKernelCorruptMembershipFrames(t *testing.T) {
	const n = 3
	frames := []struct {
		name   string
		nValid bool // the field is no kernel id, and N is a legitimate value of it
		frame  func(v int64) *wire.Message
	}{
		{"migrate-start block destination", false, func(v int64) *wire.Message {
			return &wire.Message{Op: wire.OpMigrateStart, Arg1: migModeBlock, Arg2: v}
		}},
		{"migrate-start joiner", false, func(v int64) *wire.Message {
			return &wire.Message{Op: wire.OpMigrateStart, Arg1: migModeJoin, Arg2: v, Addr: 5}
		}},
		{"migrate-install leaver", false, func(v int64) *wire.Message {
			return &wire.Message{Op: wire.OpMigrateInstall, Arg1: migModeLeave, Arg2: v, Addr: 5,
				Data: ckpt.EncodeKernelState(32, nil)}
		}},
		{"migrate-commit destination", false, func(v int64) *wire.Message {
			return &wire.Message{Op: wire.OpMigrateCommit, Arg1: 1, Arg2: v}
		}},
		{"migrate-commit count", true, func(v int64) *wire.Message {
			return &wire.Message{Op: wire.OpMigrateCommit, Arg1: v, Arg2: 1}
		}},
		{"epoch-update member", false, func(v int64) *wire.Message {
			return &wire.Message{Op: wire.OpEpochUpdate, Arg1: v, Arg2: int64(gmem.MemberLeft), Addr: 5}
		}},
		{"epoch-update state", true, func(v int64) *wire.Message {
			return &wire.Message{Op: wire.OpEpochUpdate, Arg1: 2, Arg2: v, Addr: 5}
		}},
	}
	values := []int64{1<<32 + 1, 1<<31 + 1, -1, n}
	for _, fr := range frames {
		for _, v := range values {
			if fr.nValid && v == n {
				continue
			}
			t.Run(fmt.Sprintf("%s/%d", fr.name, v), func(t *testing.T) {
				_, ks := testKernels(t, n, nil)
				k := ks[0]
				k.seg.Write(0, []int64{9}) // block 0, homed here
				members, epoch := k.dir.Members(), k.dir.Epoch()
				m := fr.frame(v)
				m.Src, m.Seq = 1, 7
				k.handle(m)
				if k.extra.CorruptDrops != 1 {
					t.Fatalf("CorruptDrops = %d, want 1", k.extra.CorruptDrops)
				}
				noReplyFrom(t, ks[1], "a frame naming no kernel")
				if got := k.dir.Members(); !slices.Equal(got, members) || k.dir.Epoch() != epoch {
					t.Errorf("members %v at epoch %d, want %v at %d", got, k.dir.Epoch(), members, epoch)
				}
				if ov := k.dir.Overrides(); len(ov) != 0 {
					t.Errorf("overrides %v, want none", ov)
				}
				if !k.seg.Has(0) || len(k.escrow) != 0 {
					t.Error("block 0 left the segment")
				}
			})
		}
	}
	for _, v := range values {
		t.Run(fmt.Sprintf("NACK hint/%d", v), func(t *testing.T) {
			cfg, err := (&Config{NumPE: n, Transport: TransportInproc, KernelShards: 1, DirectReads: -1}).withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			net := inproc.New(n)
			t.Cleanup(net.Stop)
			home := &holdNode{SinkNode: net.Node(1).(transport.SinkNode), released: true}
			home.mangle = func(m *wire.Message) { m.Op, m.Arg1 = wire.OpMigrateNack, v }
			k0 := newKernel(0, net.Node(0), &cfg)
			k1 := newKernel(1, home, &cfg)
			newKernel(2, net.Node(2), &cfg)
			pe := newPE(k0)
			addr := remoteAddr(t, pe, 1)
			k1.seg.Write(addr, []int64{77})
			go k0.serve()
			if got, err := pe.GMReadErr(addr); err == nil {
				t.Fatalf("read through a NACK hinting kernel %d = %d, want an error", v, got)
			}
			if pe.extra.MigrateNacks != 1 || pe.extra.Retries != 0 {
				t.Fatalf("MigrateNacks = %d, Retries = %d; want 1 and 0", pe.extra.MigrateNacks, pe.extra.Retries)
			}
		})
	}
}
