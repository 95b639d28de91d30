package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The request engine (DESIGN.md §7): the requester side of the message
// exchange mechanism. Every request a PE makes of a kernel — a scalar GM
// operation, the per-home groups of a range transfer, a flush, a ping, a
// process-management, checkpoint, membership or namespace call, a barrier
// arrival or a lock acquire — is a flight, and one loop sends flights and
// awaits their answers: launch and land, which exchange wraps in the
// round-trip accounting and a sync wait in its own (PE.syncWait).
// The list of flights is also the only record of what is outstanding: replies
// reach the PE's reply mailbox unrouted (Kernel.deliverApp) and are matched
// here by Seq.

// flight is one request in flight.
type flight struct {
	req  *wire.Message // the request, resent as it is on a retry; the issuer recycles it
	resp *wire.Message // its answer, the issuer's to recycle; nil while in flight
	dst  int           // the kernel addressed; moves when a redirect is followed
	want int           // payload words a well-formed read reply carries (replyWords)

	bounces int  // redirects followed chasing a migrating home
	moved   bool // a several-run request NACKed whole: its issuer re-issues it run by run
	timed   bool // its exchange is timed: every send of req is stamped (PE.send)
	landed  int  // words of a range read's reply already in the caller's buffer
}

// must raises the error of the error-returning tier underneath as a panic
// with its type intact, for the calls that report failure by panicking
// (the three panicking range forms, a job's abort) — runPE turns it
// into the PE's Result.Errs entry, so callers still classify the failure
// with errors.As.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// requestErr sends m to kernel dst and blocks until the response arrives in
// the reply mailbox. The caller owns both m and the returned response;
// recycle them with wire.PutMessage when done. Failures are errors:
// *TimeoutError after the configured retries are exhausted, *PeerDownError
// when the transport declared dst dead, *ShutdownError when the cluster went
// down, *NamespaceError when the home refused the request (see exchange).
// m goes out under a fresh Seq.
func (pe *PE) requestErr(dst int, m *wire.Message) (*wire.Message, error) {
	m.Seq = 0
	pe.one[0] = flight{req: m, dst: dst}
	err := pe.exchange(pe.one[:], 0)
	return pe.one[0].resp, err
}

// ask sends req, a pooled request it recycles, to kernel dst and returns the
// answer's Arg1, recycling the answer: requestErr for the requests whose
// answer carries one number or none.
func (pe *PE) ask(dst int, req *wire.Message) (int64, error) {
	resp, err := pe.requestErr(dst, req)
	wire.PutMessage(req)
	if err != nil {
		return 0, err
	}
	arg := resp.Arg1
	wire.PutMessage(resp)
	return arg, nil
}

// exchange sends every flight of fl (launch) and returns once each has its
// answer in resp, or with the first failure, and then no answer is kept
// (land).
//
// Replies are matched by Seq among the flights still in flight, in whatever
// order they arrive; anything else in the mailbox — the late answer to a
// request given up on, a duplicate, the response to a kernel's escrow
// re-offer, a grant that answers no wait — is counted in StaleReplies and
// dropped. Three answers are not the request's result. wire.OpMigrateNack
// means the addressed kernel no longer homes (one of) the request's blocks. A
// single-run request follows the hinted new home with the SAME Seq —
// exactly-once carries across the redirect because the old home never applied
// the operation (NACKs are issued before any mutation) and the new home's
// window absorbs duplicates like any other. A request of several runs was
// refused whole and is marked moved: its runs may now have different homes, so
// its issuer re-issues them one by one under the live directory once this
// exchange has drained. wire.OpNsNack is the home's namespace guard and fails
// the exchange with *NamespaceError. A read reply that does not carry the
// words asked for is input from another node gone wrong: counted in
// CorruptDrops and treated as lost.
//
// A wire.OpPeerDown notice (Kernel.peerDown) fails the exchange with
// *PeerDownError iff a flight in flight fails with the dead peer — addresses
// it, or is a sync wait under the any-peer rule (Kernel.anyPeer) — and is
// dropped otherwise.
//
// Accounting is per exchange: with xfer zero (fl is one request) the
// request's own op gets the round-trip event, timed from before the send, and
// a request span; otherwise xfer (wire.OpReadV or wire.OpWriteV) names the
// range transfer whose overlapping round trips are observable only as a whole,
// timed from the moment the last request left. Whether an exchange is timed at
// all is timing's decision; an untimed one is counted (Histogram.Tally) and
// reads no clock. Each request of a timed exchange leaves stamped
// (wire.Message.SentAt: a single request with the round trip's start, a
// transfer's each as it goes): where the home serves on the sender's context
// (inproc, Kernel.serveOnSender) the service is timed from that stamp, and an
// unstamped request is served untimed. So a timed inline round trip reads the
// clock three times — at its start, at the service's end and at its end — and
// an untimed one not at all.
//
// Send keeps nothing of a request, so the issuer owns it throughout and
// resends it as it is; a request its issuer keeps (the word executor's, a
// range transfer's) is emptied with Reset once exchange returns, a pooled one
// recycled.
func (pe *PE) exchange(fl []flight, xfer wire.Op) error {
	k := pe.k
	op := xfer
	if xfer == 0 {
		op = fl[0].req.Op
	}
	weight := pe.timing(fl, op)
	timed := weight != 0
	var start, sent sim.Time
	if timed && xfer == 0 {
		start = pe.app.Now()
	}
	// A transfer's start is 0: its requests are stamped one by one.
	err := pe.launch(fl, timed, start)
	if err != nil {
		return err
	}
	switch {
	case timed && xfer != 0:
		start = pe.app.Now()
	case pe.spans != nil: // spans imply a timed exchange (PE.timeMask)
		sent = pe.app.Now()
	}
	err = pe.land(fl, xfer != 0)
	var end sim.Time
	if timed {
		end = pe.app.Now()
		pe.extra.WaitTime += (end - start) * weight
	}
	if err != nil {
		return err
	}
	// Only the per-op histogram is fed on the hot path; the aggregate
	// PEStats.RTT is derived from it at collect time.
	h := pe.extra.RTTByOp.Of(op)
	if !timed {
		h.Tally()
		return nil
	}
	h.Observe(end - start)
	if pe.live != nil {
		pe.live.Observe(end - start)
	}
	if pe.spans != nil {
		s := trace.Span{Kind: trace.SpanTransfer, Op: op, PE: int32(k.id), Peer: int32(k.id), Start: start, End: end}
		if xfer == 0 {
			s.Kind, s.Peer, s.Seq, s.Sent = trace.SpanRequest, int32(fl[0].dst), fl[0].req.Seq, sent
		}
		pe.spans.Record(s)
	}
	return nil
}

// launch numbers every flight of fl that has no Seq yet (one that has keeps
// it and travels flagged as a retry) and sends it, stamped when timed (send).
// A flight a known death fails (Kernel.deadFor) fails the launch unsent.
func (pe *PE) launch(fl []flight, timed bool, at sim.Time) error {
	k := pe.k
	for i := range fl {
		f := &fl[i]
		m := f.req
		if dead := k.deadFor(m.Op, f.dst); dead >= 0 {
			return &PeerDownError{PE: k.id, Peer: dead, Op: m.Op.String()}
		}
		m.Src, m.Dst = int32(k.id), int32(f.dst)
		if m.Seq == 0 {
			m.Seq = k.seqCtr.Add(1)
		} else {
			m.Flags |= wire.FlagRetry
		}
		f.want, f.timed = k.replyWords(m), timed
		pe.send(f, at)
	}
	return nil
}

// land awaits the answers of the launched flights fl. Each round of waiting
// has one deadline (Config.RequestTimeout); what is still unanswered then is
// sent again with the same Seq and the retry flag, after the backoff, up to
// Config.RequestRetries times: the home's dedup window applies it once.
func (pe *PE) land(fl []flight, transfer bool) error {
	k := pe.k
	left, backoff := len(fl), k.cfg.RequestTimeout/4
	var err error
	for round := 1; ; round++ {
		if left, err = pe.await(fl, transfer, left, round); err == nil {
			return nil
		}
		if _, timedOut := err.(*TimeoutError); !timedOut || round > k.cfg.RequestRetries {
			break
		}
		if backoff > 0 {
			pe.app.Sleep(backoff)
			if backoff < 8*(k.cfg.RequestTimeout/4) {
				backoff *= 2
			}
		}
		for i := range fl {
			if f := &fl[i]; f.inFlight() {
				f.req.Flags |= wire.FlagRetry
				pe.extra.Retries++
				pe.send(f, 0)
			}
		}
	}
	for i := range fl {
		wire.PutMessage(fl[i].resp)
		fl[i].resp = nil
	}
	return err
}

// send sends f's request to f.dst. The request of a timed exchange leaves
// stamped with its SentAt — at, or the clock read now if at is 0 — which inproc
// hands the home as the start of the service; the stamp is not kept, so a
// resend or a redirect is stamped afresh.
func (pe *PE) send(f *flight, at sim.Time) {
	m := f.req
	if f.timed {
		if at == 0 {
			at = pe.app.Now()
		}
		m.SentAt = at
	}
	pe.app.Send(f.dst, m)
	m.SentAt = 0
}

// timing decides whether the exchange of fl for op is timed (DESIGN.md §8)
// and returns the weight its round trip carries in WaitTime: 0 when it is not
// timed, else how many round trips its duration stands for. A PE whose
// timeMask is 0 times every one. Otherwise (inproc) it times one of an op
// kind's round trips in timeMask+1, on that kind's own event count, so that no
// kind's period can alias another's, and weighs it timeMask+1. That holds
// only for what the sender serves: a serve loop times every service it takes
// up, so a request it serves — one the sender declines, or one addressed to
// the PE's own kernel — makes a round trip that is always timed, at weight 1,
// and every timed service lies inside a timed round trip.
func (pe *PE) timing(fl []flight, op wire.Op) sim.Duration {
	if pe.timeMask == 0 || !servedOnSender(op) {
		return 1
	}
	for i := range fl {
		if fl[i].dst == pe.k.id {
			return 1
		}
	}
	if pe.extra.RTTByOp.Of(op).Count.Load()&pe.timeMask != 0 {
		return 0
	}
	return sim.Duration(pe.timeMask + 1)
}

// inFlight reports whether f still awaits its answer.
func (f *flight) inFlight() bool { return f.resp == nil && !f.moved }

// await takes replies for one round of exchange: until none of the left
// flights is in flight any more, or the round's deadline passes. It returns
// how many are still unanswered.
func (pe *PE) await(fl []flight, transfer bool, left, round int) (int, error) {
	k := pe.k
	d := k.cfg.RequestTimeout
	var deadline sim.Time
	if d > 0 {
		deadline = pe.app.Now() + d // no clock read on the wait-forever path
	}
	for first := true; left > 0; first = false {
		var resp *wire.Message
		ok, timedOut := true, false
		wait := d // the round's first take waits all of it: the deadline was just set
		if d > 0 && !first {
			wait = deadline - pe.app.Now()
		}
		switch {
		case d <= 0:
			resp, ok = k.replyMb.Take()
		case wait > 0:
			resp, ok, timedOut = k.replyMb.TakeTimeout(wait)
		default:
			timedOut = true
		}
		if timedOut {
			f := firstInFlight(fl, -1)
			return left, &TimeoutError{PE: k.id, Dst: f.dst, Op: f.req.Op.String(), Attempts: round}
		}
		if !ok {
			return left, &ShutdownError{PE: k.id, Op: firstInFlight(fl, -1).req.Op.String()}
		}
		if resp.Op == wire.OpPeerDown {
			peer := int(resp.Src)
			wire.PutMessage(resp)
			f := firstInFlight(fl, peer)
			if f == nil && k.anyPeer(fl[0].req.Op) {
				f = firstInFlight(fl, -1)
			}
			if f != nil {
				return left, &PeerDownError{PE: k.id, Peer: peer, Op: f.req.Op.String()}
			}
			continue // nothing of ours fails with it
		}
		var f *flight
		for i := range fl {
			if g := &fl[i]; g.req.Seq == resp.Seq && g.inFlight() {
				f = g
				break
			}
		}
		switch {
		case f == nil:
			pe.extra.StaleReplies++
		case resp.Op == wire.OpMigrateNack:
			pe.extra.MigrateNacks++
			if transfer {
				f.moved = true
				left--
			} else if err := pe.follow(f, resp.Arg1); err != nil {
				wire.PutMessage(resp)
				return left, err
			} else if d > 0 {
				deadline = pe.app.Now() + d
			}
		case resp.Op == wire.OpNsNack:
			// The home rejected the request whole: it strayed outside the
			// requester's bound namespace (the kernel counted the violation).
			// Surface the typed error so the job aborts instead of ever
			// touching foreign memory.
			err := &NamespaceError{
				PE: k.id, Op: f.req.Op.String(), Addr: f.req.Addr,
				Base: uint64(resp.Arg1), Limit: uint64(resp.Arg2),
			}
			wire.PutMessage(resp)
			return left, err
		case !readReplyOK(resp, f.want):
			pe.extra.CorruptDrops++ // the deadline and the retry own recovery
		default:
			f.resp = resp
			left--
			continue
		}
		wire.PutMessage(resp)
	}
	return 0, nil
}

// firstInFlight returns the first flight of fl still in flight and addressed
// to kernel dst (any kernel when dst < 0); nil if there is none.
func firstInFlight(fl []flight, dst int) *flight {
	for i := range fl {
		if f := &fl[i]; f.inFlight() && (dst < 0 || f.dst == dst) {
			return f
		}
	}
	return nil
}

// follow re-addresses the single-run request f to the new home its old one
// named in a migrate NACK (arg, the NACK's Arg1), and sends it there under
// the same Seq. A hint naming no kernel fails the request like a chase that
// never ends.
func (pe *PE) follow(f *flight, arg int64) error {
	k := pe.k
	m := f.req
	hint, ok := memberID(arg, k.n)
	if f.bounces++; f.bounces > maxMigrateBounces || !ok {
		return fmt.Errorf("core: PE %d: %v to kernel %d bounced %d times chasing a migrating home", k.id, m.Op, f.dst, f.bounces)
	}
	if f.bounces > 2 {
		// A redirect can outrun the handoff itself: the hinted new home NACKs
		// back toward the probe rule until its install lands. Give the
		// migration a beat instead of burning the bounce budget on a tight
		// ping-pong.
		pe.app.Sleep(k.cfg.pause)
	}
	switch m.Op {
	case wire.OpRead, wire.OpWrite, wire.OpFetchAdd, wire.OpCAS, wire.OpReadLease:
		// Cache the new home so later requests skip the bounce. Gated to the
		// ops whose Addr is a data address. The requester's hint cache is the
		// kernel's shared directory, which is authoritative about what this
		// kernel homes, so CacheHint never caches a hint naming our OWN
		// kernel — a stale peer's probe-rule hint would overwrite the override
		// the kernel installed when it handed the block away, resurrecting
		// phantom self-ownership: the kernel would lazily recreate the
		// extracted block and swallow writes into it — nor one for a block our
		// kernel has adopted since the NACK was sent, which would disown it.
		k.dir.CacheHint(k.space.BlockOf(m.Addr), hint, k.id)
	}
	if k.peers[hint].dead.Load() {
		return &PeerDownError{PE: k.id, Peer: hint, Op: m.Op.String()}
	}
	f.dst = hint
	m.Dst = int32(hint)
	m.Flags |= wire.FlagRetry
	pe.send(f, 0)
	return nil
}

// replyWords returns how many payload words a well-formed reply to the read
// request req carries; -1 for the requests whose replies carry none.
func (k *Kernel) replyWords(req *wire.Message) int {
	switch req.Op {
	case wire.OpRead:
		return int(req.Arg1)
	case wire.OpReadLease:
		return k.space.BlockWords
	case wire.OpReadV:
		return int(req.Arg1) // what AppendRange summed as the request was built
	}
	return -1
}

// readReplyOK reports whether resp, answering a request that expects want
// payload words, can be consumed: a reply is input from another node, and a
// read reply's payload is indexed by the counts the request asked for.
func readReplyOK(resp *wire.Message, want int) bool {
	switch resp.Op {
	case wire.OpReadResp, wire.OpReadVResp, wire.OpReadLeaseResp:
		return len(resp.Data) == 8*want
	}
	return true
}
