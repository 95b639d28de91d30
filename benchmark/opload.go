package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The three op-level workloads share one closed-loop driver: PE 0 of a
// two-PE cluster issues a seeded mix of global-memory operations against 64
// blocks homed at PE 1, one at a time, each checked against a shadow copy
// (PE 0 is the only writer). They differ in the path the operations take,
// which each pins through explicit core.Config knobs and proves from the
// run's counters afterwards.

const (
	opBlocks   = 64 // blocks the mix addresses, all homed at PE 1
	blockWords = 64 // words per block (Config.GMBlockWords)
	scriptLen  = 1 << 16
	warmupOps  = 30000
	ctlTag     = 1 // user-message tag PE 0 steers PE 1 with
)

// Op classes. The order is the order of opSpec.classes; primary first.
const (
	kRead = iota
	kWrite
	kRMW
	kBlock
	kGather
	kBarrier
	numKinds
)

var kindNames = [numKinds]string{"read", "write", "rmw", "block", "gather64", "barrier"}

// opSpec pins one op-level workload.
type opSpec struct {
	name string
	cfg  core.Config
	// mix is the share of each op class in per mille; kBarrier is not part of
	// the mix (barriers run as their own slice at the end of a window).
	mix [numKinds]int
	// batch > 1 times that many same-class ops with one pair of clock reads:
	// on the one-sided path one op is shorter than the clock.
	batch int
	// barriersPerWindow two-PE barrier crossings close every window.
	barriersPerWindow int
	// substrate names the bare baseline: "chan", "tcp" or "shm".
	substrate string
	check     func(c *counters) error
}

func opSpecs() map[string]opSpec {
	msgMix := [numKinds]int{kRead: 600, kWrite: 250, kRMW: 100, kBlock: 30, kGather: 20}
	messagePath := func(c *counters) error {
		t := &c.total
		if t.DirectGM != 0 || t.RingGM != 0 {
			return fmt.Errorf("one-sided path taken on a message-path workload: DirectGM=%d RingGM=%d", t.DirectGM, t.RingGM)
		}
		if m := gmMsgsPerOp(c); m < 1.9 || m > 2.2 {
			return fmt.Errorf("core.msgs_per_op = %.3f, want 1.9..2.2 on the message path", m)
		}
		return nil
	}
	return map[string]opSpec{
		"gm_msg": {
			name: "gm_msg",
			cfg: core.Config{NumPE: 2, Transport: core.TransportInproc,
				KernelShards: 1, DirectReads: -1, WriteRings: -1, GMBlockWords: blockWords},
			mix: msgMix, batch: 1, barriersPerWindow: 2000, substrate: "chan",
			check: messagePath,
		},
		"gm_onesided": {
			name: "gm_onesided",
			cfg: core.Config{NumPE: 2, Transport: core.TransportInproc,
				KernelShards: 2, DirectReads: 1, WriteRings: 1, GMBlockWords: blockWords},
			mix: [numKinds]int{kRead: 800, kWrite: 200}, batch: 64, substrate: "shm",
			check: func(c *counters) error {
				t := &c.total
				if float64(t.DirectGM+t.RingGM) < 0.99*float64(t.RemoteGM) {
					return fmt.Errorf("one-sided share too low: DirectGM=%d RingGM=%d RemoteGM=%d", t.DirectGM, t.RingGM, t.RemoteGM)
				}
				if t.MsgsSent >= 100 {
					return fmt.Errorf("MsgsSent = %d, want < 100 on the one-sided path", t.MsgsSent)
				}
				return nil
			},
		},
		"gm_tcp": {
			name: "gm_tcp",
			// DirectReads/WriteRings are inert over TCP (no shared address
			// space); they are pinned off anyway so the config says so.
			cfg: core.Config{NumPE: 2, Transport: core.TransportTCP,
				KernelShards: 1, DirectReads: -1, WriteRings: -1, GMBlockWords: blockWords},
			mix: msgMix, batch: 1, substrate: "tcp",
			check: messagePath,
		},
	}
}

// gmMsgsPerOp is messages of the global-memory ops (requests and replies)
// per global-memory operation the client issued. Exact: 2.0 on the message
// path, 0 on the one-sided path.
func gmMsgsPerOp(c *counters) float64 {
	if c.gmOps == 0 {
		return 0
	}
	var msgs uint64
	for _, op := range []wire.Op{wire.OpRead, wire.OpReadResp, wire.OpWrite, wire.OpWriteAck,
		wire.OpFetchAdd, wire.OpFetchAddResp, wire.OpReadV, wire.OpReadVResp, wire.OpWriteV} {
		msgs += c.total.ByOp[op].Msgs
	}
	return float64(msgs) / float64(c.gmOps)
}

// reliabilityClean is the assertion every workload shares: nothing was
// retried, misdelivered, absorbed as a duplicate or refused.
func reliabilityClean(t *trace.PEStats) error {
	if t.Retries != 0 || t.StaleReplies != 0 || t.DupRequests != 0 || t.NsDenials != 0 {
		return fmt.Errorf("reliability counters not zero: Retries=%d StaleReplies=%d DupRequests=%d NsDenials=%d",
			t.Retries, t.StaleReplies, t.DupRequests, t.NsDenials)
	}
	return nil
}

type scriptOp struct {
	kind uint8
	blk  uint8
	off  uint8
	val  int64
}

// opRunner drives one cluster of an op-level workload. The cluster lives in
// a background goroutine for as long as the runner is started; PE 0's
// program executes the commands window sends it, PE 1 idles in RecvMsg and
// joins barriers when told to.
type opRunner struct {
	spec opSpec
	kind []int // class index -> op kind, primary first

	cmds  chan func(pe *core.PE)
	ack   chan struct{}
	ready chan error
	done  chan struct{}
	res   *core.Result
	err   error

	// Owned by PE 0's goroutine while a command runs, by the caller between.
	base      uint64
	shadow    []int64
	script    []scriptOp
	pos       int
	blockFlip bool
	smp       [numKinds]*samples
	subScalar *samples // substrate round trips, scalar-sized
	subBlock  *samples // TCP only: with a block-sized reply
	words     []int64
	addrs     []uint64
	chanSub   *chanEcho
	tcpSub    *tcpEcho
	shmSub    *shmWords
	c         counters
}

func newOpRunner(spec opSpec) *opRunner {
	r := &opRunner{spec: spec, subScalar: newSamples(1<<20, 1), subBlock: newSamples(1<<18, 1)}
	if spec.substrate == "shm" {
		r.shmSub = newShmWords(opBlocks * blockWords)
		r.subScalar.per = shmReadsPerSample
	}
	for k := 0; k < numKinds; k++ {
		if spec.mix[k] > 0 || (k == kBarrier && spec.barriersPerWindow > 0) {
			r.kind = append(r.kind, k)
			// Sized for the busiest class of the fastest path in the longest
			// window the contract allows; a full buffer only stops quantile
			// sampling (see samples).
			r.smp[k] = newSamples(1<<20, spec.batch)
		}
	}
	return r
}

func (r *opRunner) classes() []string {
	names := make([]string, len(r.kind))
	for i, k := range r.kind {
		names[i] = kindNames[k]
	}
	return names
}

func blockAddr(base uint64, blk int) uint64 {
	// With two PEs blocks alternate homes; the odd ones are PE 1's.
	return base + uint64(2*blk+1)*blockWords
}

func (r *opRunner) start(seed uint64, traced bool) error {
	rng := rand.New(rand.NewSource(int64(seed)))
	r.script = make([]scriptOp, scriptLen)
	for i := range r.script {
		p := rng.Intn(1000)
		k := 0
		for acc := r.spec.mix[0]; p >= acc; acc += r.spec.mix[k] {
			k++
		}
		r.script[i] = scriptOp{kind: uint8(k), blk: uint8(rng.Intn(opBlocks)), off: uint8(rng.Intn(blockWords)), val: rng.Int63()}
	}
	r.shadow = make([]int64, opBlocks*blockWords)
	for i := range r.shadow {
		r.shadow[i] = rng.Int63()
	}
	r.pos, r.blockFlip, r.c = 0, false, counters{}
	r.words = make([]int64, blockWords)
	r.addrs = make([]uint64, opBlocks)

	switch r.spec.substrate {
	case "chan":
		r.chanSub = newChanEcho()
	case "tcp":
		var err error
		if r.tcpSub, err = newTCPEcho(); err != nil {
			return err
		}
	}

	cfg := r.spec.cfg
	cfg.Seed = seed
	cfg.Tracing = trace.TracingConfig{Enabled: traced}
	r.cmds = make(chan func(pe *core.PE))
	r.ack = make(chan struct{})
	r.ready = make(chan error, 1)
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		r.res, r.err = core.Run(cfg, r.program)
	}()
	var err error
	select {
	case err = <-r.ready:
		if err == nil {
			return nil
		}
		<-r.done // a failed set-up ends the program on both PEs
	case <-r.done:
		err = fmt.Errorf("%s: cluster ended during set-up: %w", r.spec.name, r.runError())
	}
	r.stopSubstrates()
	return err
}

func (r *opRunner) stopSubstrates() {
	if r.chanSub != nil {
		r.chanSub.stop()
		r.chanSub = nil
	}
	if r.tcpSub != nil {
		r.tcpSub.stop()
		r.tcpSub = nil
	}
}

func (r *opRunner) runError() error {
	if r.err != nil {
		return r.err
	}
	if r.res != nil {
		if err := r.res.FirstErr(); err != nil {
			return err
		}
	}
	return errors.New("no error reported")
}

// program is the SPMD body both PEs run.
func (r *opRunner) program(pe *core.PE) error {
	base := pe.AllocBlocks(2 * opBlocks * blockWords)
	if pe.ID() != 0 {
		for {
			_, p := pe.RecvMsg(ctlTag)
			n := binary.LittleEndian.Uint32(p)
			if n == 0 {
				return nil
			}
			for i := uint32(0); i < n; i++ {
				pe.Barrier()
			}
		}
	}
	defer r.tellPeer(pe, 0)
	err := r.prepare(pe, base)
	r.ready <- err
	if err != nil {
		return err
	}
	for f := range r.cmds {
		f(pe)
		r.ack <- struct{}{}
	}
	return nil
}

// prepare is PE 0's share of set-up: check the homes, seed the blocks, warm
// the path up.
func (r *opRunner) prepare(pe *core.PE, base uint64) error {
	r.base = base
	for b := 0; b < opBlocks; b++ {
		a := blockAddr(base, b)
		if h := pe.HomeOf(a); h != 1 {
			return fmt.Errorf("%s: block %d homed at PE %d, want 1", r.spec.name, b, h)
		}
		if err := r.seedBlock(pe, a, r.shadow[b*blockWords:(b+1)*blockWords]); err != nil {
			return err
		}
	}
	var warm window
	r.runOps(pe, &warm, warmupOps, 0)
	r.c.gmOps += warm.units
	if warm.failed > 0 {
		return fmt.Errorf("%s: %d of %d warm-up operations failed", r.spec.name, warm.failed, warm.units)
	}
	return nil
}

// seedBlock stores a block's initial words through an operation the
// workload's own mix uses, so that seeding cannot put traffic on a path the
// workload claims to leave idle (a block write is always a message).
func (r *opRunner) seedBlock(pe *core.PE, addr uint64, words []int64) error {
	if r.spec.mix[kBlock] > 0 {
		r.c.gmOps++
		return writeBlock(pe, addr, words)
	}
	for i, v := range words {
		if err := pe.GMWriteErr(addr+uint64(i), v); err != nil {
			return err
		}
		r.c.gmOps++
	}
	return nil
}

func (r *opRunner) tellPeer(pe *core.PE, n uint32) {
	var p [4]byte
	binary.LittleEndian.PutUint32(p[:], n)
	pe.SendMsg(1, ctlTag, p[:])
}

// The block calls of the Parallel API have no Err form; a failure panics.
// Recover it so it is counted as a failed operation, not a dead benchmark.

func readBlock(pe *core.PE, addr uint64, n int) (out []int64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("GMReadBlock: %v", p)
		}
	}()
	return pe.GMReadBlock(addr, n), nil
}

func writeBlock(pe *core.PE, addr uint64, words []int64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("GMWriteBlock: %v", p)
		}
	}()
	pe.GMWriteBlock(addr, words)
	return nil
}

func gather(pe *core.PE, addrs []uint64) (out []int64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("GMGather: %v", p)
		}
	}()
	return pe.GMGather(addrs), nil
}

func (r *opRunner) next() scriptOp {
	op := r.script[r.pos]
	r.pos = (r.pos + 1) % scriptLen
	return op
}

// runOps issues operations from the script until maxOps have run (maxOps > 0)
// or the clock passes deadline. Every result is checked against the shadow.
func (r *opRunner) runOps(pe *core.PE, w *window, maxOps int64, deadline int64) {
	batch := r.spec.batch
	for {
		if maxOps > 0 && w.units >= maxOps {
			return
		}
		op := r.next()
		k := int(op.kind)
		var ok bool
		var t0, t1 int64
		if batch > 1 {
			t0, t1, ok = r.batchOps(pe, k)
		} else {
			t0, t1, ok = r.oneOp(pe, op)
		}
		n := int64(batch)
		r.smp[k].add(t1 - t0)
		w.units += n
		if !ok {
			w.failed += n
		}
		if deadline > 0 && t1 >= deadline {
			return
		}
	}
}

// batchOps issues spec.batch scalar reads or writes under one pair of clock
// reads, each at the next address of the script. The compare against the
// shadow is inside the timed interval here: one load and one branch per op.
func (r *opRunner) batchOps(pe *core.PE, kind int) (t0, t1 int64, ok bool) {
	ok = true
	t0 = now()
	for i := 0; i < r.spec.batch; i++ {
		o := r.next()
		idx := int(o.blk)*blockWords + int(o.off)
		addr := blockAddr(r.base, int(o.blk)) + uint64(o.off)
		if kind == kRead {
			if v, err := pe.GMReadErr(addr); err != nil || v != r.shadow[idx] {
				ok = false
			}
		} else {
			if err := pe.GMWriteErr(addr, o.val); err != nil {
				ok = false
			}
			r.shadow[idx] = o.val
		}
	}
	return t0, now(), ok
}

// oneOp issues one individually timed operation and verifies its result
// outside the timed interval.
func (r *opRunner) oneOp(pe *core.PE, op scriptOp) (t0, t1 int64, ok bool) {
	blk, off := int(op.blk), int(op.off)
	idx := blk*blockWords + off
	addr := blockAddr(r.base, blk) + uint64(off)
	switch int(op.kind) {
	case kRead:
		t0 = now()
		v, err := pe.GMReadErr(addr)
		t1 = now()
		ok = err == nil && v == r.shadow[idx]
	case kWrite:
		t0 = now()
		err := pe.GMWriteErr(addr, op.val)
		t1 = now()
		ok = err == nil
		r.shadow[idx] = op.val
	case kRMW:
		delta := op.val >> 40
		t0 = now()
		old, err := pe.FetchAddErr(addr, delta)
		t1 = now()
		ok = err == nil && old == r.shadow[idx]
		r.shadow[idx] += delta
	case kBlock:
		sh := r.shadow[blk*blockWords : (blk+1)*blockWords]
		r.blockFlip = !r.blockFlip
		if r.blockFlip {
			t0 = now()
			out, err := readBlock(pe, blockAddr(r.base, blk), blockWords)
			t1 = now()
			ok = err == nil && slices.Equal(out, sh)
		} else {
			for i := range r.words {
				r.words[i] = op.val + int64(i)
			}
			t0 = now()
			err := writeBlock(pe, blockAddr(r.base, blk), r.words)
			t1 = now()
			ok = err == nil
			copy(sh, r.words)
		}
	case kGather:
		for b := range r.addrs {
			r.addrs[b] = blockAddr(r.base, b) + uint64(off)
		}
		t0 = now()
		out, err := gather(pe, r.addrs)
		t1 = now()
		ok = err == nil && len(out) == opBlocks
		for b := 0; ok && b < opBlocks; b++ {
			ok = out[b] == r.shadow[b*blockWords+off]
		}
	}
	return t0, t1, ok
}

// A window is cut into rounds; each round runs a slice of the bare substrate
// and then a slice of DSE operations, so the two sides of overhead_x are never
// more than a fraction of a second apart and share whatever the host is doing
// at that moment. The barrier slice is a fixed count on top.
const (
	shmReadsPerSample   = 512 // bare shared-memory reads timed together
	roundsPerWindow     = 8
	substrateShare      = 0.20
	substrateBlockShare = 0.10 // second TCP slice: 560-byte replies
)

func (r *opRunner) window(d time.Duration) (window, error) {
	var w window
	var werr error
	select {
	case r.cmds <- func(pe *core.PE) { w, werr = r.runWindow(pe, d) }:
	case <-r.done:
		return w, fmt.Errorf("%s: cluster ended mid-run: %w", r.spec.name, r.runError())
	}
	select {
	case <-r.ack:
		return w, werr
	case <-r.done: // the command panicked and took PE 0 down with it
		return w, fmt.Errorf("%s: cluster ended mid-window: %w", r.spec.name, r.runError())
	}
}

func (r *opRunner) runWindow(pe *core.PE, d time.Duration) (window, error) {
	var w window
	for _, k := range r.kind {
		r.smp[k].reset()
	}
	round := float64(d) / roundsPerWindow
	dseShare := 1 - substrateShare
	if r.spec.substrate == "tcp" {
		dseShare -= substrateBlockShare
	}
	r.subScalar.reset()
	r.subBlock.reset()
	var g gauges
	for i := 0; i < roundsPerWindow; i++ {
		if err := r.runSubstrate(pe, int64(round*substrateShare), tcpReqBytes, r.subScalar); err != nil {
			return w, err
		}
		if r.spec.substrate == "tcp" {
			if err := r.runSubstrate(pe, int64(round*substrateBlockShare), tcpBlockReply, r.subBlock); err != nil {
				return w, err
			}
		}
		g.begin()
		r.runOps(pe, &w, 0, now()+int64(round*dseShare))
		g.end(&w)
		r.subScalar.mark()
		r.subBlock.mark()
		for _, k := range r.kind {
			if k != kBarrier {
				r.smp[k].mark()
			}
		}
	}
	r.c.gmOps += w.units

	if n := r.barrierCount(d); n > 0 {
		r.tellPeer(pe, uint32(n))
		for i := 0; i < n; i++ {
			t0 := now()
			pe.Barrier()
			r.smp[kBarrier].add(now() - t0)
		}
		r.smp[kBarrier].mark() // the barrier slice is one round of its own
	}

	scalarRounds, blockRounds := r.subScalar.roundMedians(), r.subBlock.roundMedians()
	scalar, block := r.subScalar.quantiles(0.5)[0], r.subBlock.quantiles(0.5)[0]
	w.class = make([]classStat, len(r.kind))
	for i, k := range r.kind {
		rounds := r.smp[k].roundMedians()
		q := r.smp[k].quantiles(0.5, 0.99)
		sub, subRounds := scalar, scalarRounds
		if (k == kBlock || k == kGather) && block > 0 {
			sub, subRounds = block, blockRounds
		}
		if k == kBarrier {
			subRounds = []float64{scalar}
		}
		w.class[i] = classStat{n: r.smp[k].cnt, meanNs: r.smp[k].mean(), p50Ns: q[0], p99Ns: q[1], subNs: sub,
			roundNs: rounds, roundSubNs: subRounds}
	}
	return w, nil
}

// barrierCount scales the barrier slice with the window so that a short
// smoke run stays short; at the contract's run length it is
// barriersPerWindow.
func (r *opRunner) barrierCount(d time.Duration) int {
	if r.spec.barriersPerWindow == 0 {
		return 0
	}
	n := int(float64(r.spec.barriersPerWindow) * d.Seconds() / nominalWindow.Seconds())
	if n < 20 {
		n = 20
	}
	if n > r.spec.barriersPerWindow {
		n = r.spec.barriersPerWindow
	}
	return n
}

// runSubstrate runs the bare baseline for budget nanoseconds, timing every
// round trip into t the way runOps times every operation. replyBytes only
// matters to the TCP substrate.
func (r *opRunner) runSubstrate(pe *core.PE, budget int64, replyBytes int, t *samples) error {
	for end := now() + budget; ; {
		t0 := now()
		switch r.spec.substrate {
		case "chan":
			if r.chanSub.roundTrip(t0) != t0 {
				return errors.New("chan substrate echoed a wrong value")
			}
		case "tcp":
			if err := r.tcpSub.roundTrip(replyBytes); err != nil {
				return fmt.Errorf("tcp substrate: %w", err)
			}
		case "shm":
			// A sequence-locked read is a few nanoseconds: many go into one
			// sample, at the script's addresses like the operations.
			for i := 0; i < shmReadsPerSample; i++ {
				o := r.script[(r.pos+i)%scriptLen]
				idx := int(o.blk)*blockWords + int(o.off)
				if v := r.shmSub.read(idx); v != int64(idx) {
					return fmt.Errorf("shared-memory substrate read %d at word %d", v, idx)
				}
			}
		}
		t1 := now()
		t.add(t1 - t0)
		if t1 >= end {
			return nil
		}
	}
}

func (r *opRunner) stop() (*counters, error) {
	close(r.cmds)
	<-r.done
	r.stopSubstrates()
	if r.err != nil {
		return nil, fmt.Errorf("%s: %w", r.spec.name, r.err)
	}
	if err := r.res.FirstErr(); err != nil {
		return nil, fmt.Errorf("%s: %w", r.spec.name, err)
	}
	c := r.c
	c.total, c.spans = r.res.Total, r.res.Spans
	c.onewayMetric = "inproc.oneway_ns"
	if r.spec.substrate == "tcp" {
		c.onewayMetric = "tcpnet.oneway_ns"
	}
	if err := r.spec.check(&c); err != nil {
		return &c, fmt.Errorf("%s: path assertion: %w", r.spec.name, err)
	}
	if err := reliabilityClean(&c.total); err != nil {
		return &c, fmt.Errorf("%s: %w", r.spec.name, err)
	}
	return &c, nil
}
