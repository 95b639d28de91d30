package check

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// ev builds a completed event for the synthetic histories.
func ev(pe int32, kind Kind, addr uint64, inv, resp sim.Time) Event {
	return Event{PE: pe, Kind: kind, Addr: addr, Inv: inv, Resp: resp}
}

func hist(events ...Event) *History { return histIn(modeStrong, events...) }

// histIn builds a history whose events all carry the consistency tier mode.
func histIn(mode uint8, events ...Event) *History {
	for i := range events {
		events[i].Seq = int32(i)
		events[i].Mode = mode
	}
	return &History{Events: events}
}

func wantViolation(t *testing.T, h *History, kind string) {
	t.Helper()
	rep := Check(h)
	for _, v := range rep.Violations {
		if v.Kind == kind {
			return
		}
	}
	t.Fatalf("expected a %q violation, got: %v", kind, rep)
}

func wantClean(t *testing.T, h *History) {
	t.Helper()
	if rep := Check(h); !rep.OK() {
		t.Fatalf("expected a consistent history, got: %v", rep)
	}
}

func write(pe int32, addr uint64, v int64, inv, resp sim.Time) Event {
	e := ev(pe, KindWrite, addr, inv, resp)
	e.Arg1 = v
	return e
}

func read(pe int32, addr uint64, v int64, inv, resp sim.Time) Event {
	e := ev(pe, KindRead, addr, inv, resp)
	e.Out = v
	return e
}

// leased is a read served from a lease granted at grant and expiring at until.
func leased(pe int32, addr uint64, v int64, inv, resp, grant, until sim.Time) Event {
	e := read(pe, addr, v, inv, resp)
	e.Cached, e.Arg1, e.Arg2 = true, int64(grant), int64(until)
	return e
}

func flush(pe int32, inv, resp sim.Time) Event { return ev(pe, KindFlush, 0, inv, resp) }

// tierCases exercises every rule of the release and lease tiers, each beside
// a legal history that differs from it only where the rule draws its line.
// want lists the report's violation kinds in order; empty means consistent.
var tierCases = []struct {
	name   string
	mode   uint8
	events []Event
	want   []string
}{
	{"release-own-write-then-initial", modeRelease, []Event{
		write(0, 8, 100, 1, 2),
		read(0, 8, 0, 3, 4), // its own buffered write must shadow the word
	}, []string{"release-lost-write"}},
	{"release-own-superseded-value", modeRelease, []Event{
		write(0, 8, 100, 1, 2),
		write(0, 8, 200, 3, 4),
		read(0, 8, 100, 5, 6), // the buffer keeps the last own write per word
	}, []string{"release-lost-write"}},
	{"release-other-value-while-own-buffered", modeRelease, []Event{
		write(1, 8, 300, 1, 2),
		flush(1, 3, 4),
		write(0, 8, 100, 5, 6),
		read(0, 8, 300, 7, 8), // 100 is still buffered: the overlay serves it
	}, []string{"release-lost-write"}},
	{"release-own-unflushed-write-visible", modeRelease, []Event{
		write(1, 8, 300, 1, 2),
		flush(1, 3, 4),
		write(0, 8, 100, 5, 6),
		read(0, 8, 100, 7, 8),
	}, nil},
	{"release-initial-after-flush", modeRelease, []Event{
		write(0, 8, 100, 1, 2),
		flush(0, 3, 4),
		read(1, 8, 0, 5, 6),
	}, []string{"release-stale-read"}},
	{"release-initial-while-flushing", modeRelease, []Event{
		write(0, 8, 100, 1, 2),
		flush(0, 3, 6),
		read(1, 8, 0, 5, 7), // the flush had not completed when the read began
	}, nil},
	{"release-value-after-later-flush", modeRelease, []Event{
		write(0, 8, 100, 1, 2),
		flush(0, 3, 4),
		write(0, 8, 200, 5, 6),
		flush(0, 7, 8),
		read(1, 8, 100, 9, 10),
	}, []string{"release-stale-read"}},
	{"release-value-inside-later-flush", modeRelease, []Event{
		write(0, 8, 100, 1, 2),
		flush(0, 3, 4),
		write(0, 8, 200, 5, 6),
		flush(0, 7, 10),
		read(1, 8, 100, 9, 11),
	}, nil},
	{"release-never-flushed-value", modeRelease, []Event{
		write(0, 8, 100, 1, 2),
		read(1, 8, 100, 3, 4),
	}, []string{"release-unflushed-read"}},
	{"release-opposite-order", modeRelease, []Event{
		write(0, 8, 100, 1, 2),
		flush(0, 3, 4),
		write(1, 8, 200, 5, 6),
		flush(1, 7, 30),
		read(2, 8, 200, 8, 9),
		read(2, 8, 100, 10, 11), // a read inversion under the strong rules
	}, nil},
	{"lease-overstay", modeLease, []Event{
		write(0, 8, 100, 1, 2),
		leased(1, 8, 100, 10, 11, 3, 8),
	}, []string{"lease-overstay"}},
	{"lease-initial-after-write-before-grant", modeLease, []Event{
		write(0, 8, 100, 1, 2),
		leased(1, 8, 0, 5, 6, 3, 10),
	}, []string{"lease-stale-read"}},
	{"lease-initial-granted-before-write", modeLease, []Event{
		leased(1, 8, 0, 5, 6, 1, 10),
		write(0, 8, 100, 2, 3),
	}, nil},
	{"lease-value-overwritten-before-grant", modeLease, []Event{
		write(0, 8, 100, 1, 2),
		write(0, 8, 200, 3, 4),
		leased(1, 8, 100, 7, 8, 5, 10),
	}, []string{"lease-stale-read"}},
	{"lease-value-overwritten-after-grant", modeLease, []Event{
		write(0, 8, 100, 1, 2),
		write(0, 8, 200, 4, 5),
		leased(1, 8, 100, 7, 8, 3, 10),
	}, nil},
	{"lease-home-read-keeps-strong-bound", modeLease, []Event{
		write(0, 8, 100, 1, 2),
		write(0, 8, 200, 4, 5),
		read(1, 8, 100, 7, 8), // served by the home: bounded by its own start
	}, []string{"stale-read"}},
	{"lease-opposite-order", modeLease, []Event{
		write(0, 8, 100, 1, 2),
		write(1, 8, 200, 3, 20),
		read(2, 8, 200, 4, 5),
		leased(3, 8, 100, 6, 7, 2, 50), // a read inversion under the strong rules
	}, nil},
}

func TestCheckTierRules(t *testing.T) {
	for _, c := range tierCases {
		t.Run(c.name, func(t *testing.T) {
			rep := Check(histIn(c.mode, append([]Event(nil), c.events...)...))
			var got []string
			for _, v := range rep.Violations {
				got = append(got, v.Kind)
			}
			if strings.Join(got, " ") != strings.Join(c.want, " ") {
				t.Fatalf("violations %q, want %q:\n%v", got, c.want, rep)
			}
		})
	}
}

func TestCheckSequentialHistory(t *testing.T) {
	wantClean(t, hist(
		write(0, 8, 100, 1, 2),
		read(1, 8, 100, 3, 4),
		write(1, 8, 200, 5, 6),
		read(0, 8, 200, 7, 8),
	))
}

func TestCheckConcurrentWriteEitherValue(t *testing.T) {
	// A read overlapping a write may see the old or the new value.
	wantClean(t, hist(
		write(0, 8, 100, 1, 2),
		write(1, 8, 200, 3, 10),
		read(2, 8, 100, 4, 5), // old value while the write is in flight
		read(2, 8, 200, 6, 7), // new value, also fine
	))
}

func TestCheckInitialValueRead(t *testing.T) {
	wantClean(t, hist(
		read(0, 8, 0, 1, 2),
		write(1, 8, 100, 3, 4),
	))
	wantViolation(t, hist(
		write(1, 8, 100, 1, 2),
		read(0, 8, 0, 3, 4), // zero after a completed write
	), "stale-read")
}

func TestCheckStaleRead(t *testing.T) {
	wantViolation(t, hist(
		write(0, 8, 100, 1, 2),
		write(1, 8, 200, 3, 4),
		read(2, 8, 100, 5, 6), // 100 was overwritten before the read began
	), "stale-read")
}

func TestCheckThinAirRead(t *testing.T) {
	wantViolation(t, hist(
		write(0, 8, 100, 1, 2),
		read(1, 8, 999, 3, 4),
	), "thin-air-read")
}

func TestCheckFutureRead(t *testing.T) {
	wantViolation(t, hist(
		read(1, 8, 100, 1, 2),
		write(0, 8, 100, 3, 4),
	), "future-read")
}

func TestCheckReadInversion(t *testing.T) {
	// Both writes overlap both reads, so neither read is individually
	// stale — but PE 2 observes them in opposite real-time order than the
	// writes completed... construct: w1 entirely before w2's invocation,
	// first read sees w2, later read sees w1.
	wantViolation(t, hist(
		write(0, 8, 100, 1, 2),
		write(1, 8, 200, 3, 20),
		read(2, 8, 200, 4, 5),
		read(2, 8, 100, 6, 7), // goes back to the older write
	), "read-inversion")
}

func TestCheckFailedWriteIsNotStale(t *testing.T) {
	// A failed (timed-out) write may have applied: reading it is legal,
	// and it never makes an older value stale.
	failed := write(0, 8, 100, 1, 0)
	failed.Failed = true
	wantClean(t, hist(
		failed,
		write(1, 8, 200, 3, 4),
		read(2, 8, 100, 5, 6), // the failed write may have landed after 200
	))
}

func TestCheckAmbiguousValue(t *testing.T) {
	wantViolation(t, hist(
		write(0, 8, 100, 1, 2),
		write(1, 8, 100, 3, 4),
	), "ambiguous-value")
}

func fadd(pe int32, addr uint64, delta, out int64, inv, resp sim.Time) Event {
	e := ev(pe, KindFetchAdd, addr, inv, resp)
	e.Arg1, e.Out = delta, out
	return e
}

func TestCheckFetchAddClean(t *testing.T) {
	wantClean(t, hist(
		fadd(0, 16, 1, 0, 1, 2),
		fadd(1, 16, 1, 1, 3, 4),
		fadd(0, 16, 1, 2, 5, 6),
	))
}

func TestCheckFetchAddDuplicate(t *testing.T) {
	wantViolation(t, hist(
		fadd(0, 16, 1, 0, 1, 2),
		fadd(1, 16, 1, 0, 3, 4), // same previous value observed twice
	), "fetchadd-duplicate")
}

func TestCheckFetchAddLost(t *testing.T) {
	wantViolation(t, hist(
		fadd(0, 16, 1, 0, 1, 2),
		fadd(1, 16, 1, 2, 3, 4), // skipped 1 although nothing failed
	), "fetchadd-lost")
}

func TestCheckFetchAddOrder(t *testing.T) {
	wantViolation(t, hist(
		fadd(0, 16, 1, 1, 1, 2),
		fadd(1, 16, 1, 0, 3, 4), // later attempt saw the smaller counter
	), "fetchadd-order")
}

func TestCheckFetchAddFailedAttemptTolerated(t *testing.T) {
	failed := fadd(1, 16, 1, 0, 3, 0)
	failed.Failed = true
	// The failed attempt may or may not have applied: observing 0,1 with a
	// hole at 2 or a contiguous 0,1 are both legal.
	wantClean(t, hist(
		fadd(0, 16, 1, 0, 1, 2),
		failed,
		fadd(0, 16, 1, 2, 5, 6),
	))
}

func cas(pe int32, addr uint64, old, new, out int64, ok bool, inv, resp sim.Time) Event {
	e := ev(pe, KindCAS, addr, inv, resp)
	e.Arg1, e.Arg2, e.Out, e.Ok = old, new, out, ok
	return e
}

func TestCheckCASChainClean(t *testing.T) {
	wantClean(t, hist(
		cas(0, 24, 0, 100, 0, true, 1, 2),
		cas(1, 24, 0, 200, 100, false, 3, 4), // lost the race, saw 100
		cas(1, 24, 100, 200, 100, true, 5, 6),
	))
}

func TestCheckCASFork(t *testing.T) {
	wantViolation(t, hist(
		cas(0, 24, 0, 100, 0, true, 1, 2),
		cas(1, 24, 0, 200, 0, true, 3, 4), // both swapped from 0
	), "cas-fork")
}

func TestCheckCASRefused(t *testing.T) {
	wantViolation(t, hist(
		cas(0, 24, 0, 100, 0, false, 1, 2), // saw expected 0 but "failed"
	), "cas-refused")
}

func lockEv(pe int32, id uint64, inv, resp sim.Time) Event { return ev(pe, KindLock, id, inv, resp) }
func unlockEv(pe int32, id uint64, at sim.Time) Event      { return ev(pe, KindUnlock, id, at, at) }

func TestCheckLockMutualExclusion(t *testing.T) {
	wantClean(t, hist(
		lockEv(0, 1, 1, 2),
		unlockEv(0, 1, 5),
		lockEv(1, 1, 3, 6), // granted only after the release
		unlockEv(1, 1, 8),
	))
	wantViolation(t, hist(
		lockEv(0, 1, 1, 2),
		lockEv(1, 1, 3, 4), // granted while PE 0 still holds
		unlockEv(0, 1, 6),
		unlockEv(1, 1, 8),
	), "lock-overlap")
}

func TestCheckBarrierRounds(t *testing.T) {
	wantClean(t, hist(
		ev(0, KindBarrier, 0, 1, 5),
		ev(1, KindBarrier, 0, 4, 5),
		ev(0, KindBarrier, 0, 6, 9),
		ev(1, KindBarrier, 0, 8, 9),
	))
	wantViolation(t, hist(
		ev(0, KindBarrier, 0, 1, 2), // released before PE 1 arrived
		ev(1, KindBarrier, 0, 4, 5),
	), "barrier-order")
}

// Tied arrivals or releases must name the same PEs in every report: the
// first of the tied PEs in PE order.
func TestCheckBarrierTiesDeterministic(t *testing.T) {
	h := hist(
		ev(0, KindBarrier, 0, 1, 2),
		ev(1, KindBarrier, 0, 1, 2),
		ev(2, KindBarrier, 0, 5, 6),
		ev(3, KindBarrier, 0, 5, 6),
	)
	for i := 0; i < 50; i++ {
		rep := Check(h)
		if len(rep.Violations) != 1 || rep.Violations[0].Msg != "round 0: PE 0 was released before PE 2 arrived" {
			t.Fatalf("run %d: %v", i, rep)
		}
	}
}

func TestReportString(t *testing.T) {
	rep := Check(hist(
		write(0, 8, 100, 1, 2),
		read(1, 8, 999, 3, 4),
	))
	if rep.OK() {
		t.Fatal("expected violations")
	}
	s := rep.String()
	if !strings.Contains(s, "thin-air-read") || !strings.Contains(s, "999") {
		t.Fatalf("report lacks the violating op: %s", s)
	}
}
