package stress

import (
	"fmt"

	"repro/internal/sim"
)

// Case is one row of a sweep: a configuration plus the gates its result
// must pass. Every row must finish without a PE error and with a
// violation-free history; the fields below add what a row's schedule must
// also have provoked — a run whose kill or churn silently never fired
// would prove nothing.
type Case struct {
	Options
	// MustRecover: the scheduled kill must have triggered a restart from a
	// snapshot that ran to completion.
	MustRecover bool
	// MinEvents: at least this many membership events (joins + leaves +
	// migrations) must have fired.
	MinEvents uint64
}

// Verify checks one result of c's configuration against c's gates and
// describes the first one it fails.
func (c Case) Verify(res *Result) error {
	if res.Err != nil {
		return fmt.Errorf("PE error: %w", res.Err)
	}
	if !res.Report.OK() {
		return fmt.Errorf("%d consistency violations:\n%s", len(res.Report.Violations), res.Report)
	}
	if c.MustRecover && (res.Recovery == nil || !res.Recovery.Recovered()) {
		return fmt.Errorf("no recovery (kill never fired?)")
	}
	if events := res.Joins + res.Leaves + res.Migrations; events < c.MinEvents {
		return fmt.Errorf("only %d membership events, want >= %d", events, c.MinEvents)
	}
	return nil
}

// SuiteNames lists the sweeps Suite knows, which are also the dsebench
// flags that run them.
var SuiteNames = []string{"stress", "recover", "membership"}

// Suite returns the named sweep for one base seed. Every row is a pure
// function of its Options: the seed printed with a failure replays the
// failing history bit for bit.
func Suite(name string, seed uint64) []Case {
	switch name {
	case "stress":
		return stressSuite(seed)
	case "recover":
		return recoverSuite(seed)
	case "membership":
		return membershipSuite(seed)
	}
	panic("stress: no suite " + name)
}

// stressSuite is the consistency matrix: PEs x loss under delay jitter, then
// the kill, in-place, one-sided and mixed-tier legs.
func stressSuite(seed uint64) []Case {
	const ops = 1000
	kill := Options{Seed: seed, NumPE: 4, OpsPerPE: ops, Loss: 0.02, KillPE: 2, KillAt: 2 * sim.Second}
	lossy := Options{Seed: seed, NumPE: 4, OpsPerPE: ops, Loss: 0.15, Jitter: 200 * sim.Microsecond}

	var rows []Options
	for _, np := range []int{2, 4, 8} {
		for _, loss := range []float64{0, 0.05, 0.15} {
			rows = append(rows, Options{
				Seed: seed, NumPE: np, OpsPerPE: ops,
				Loss: loss, Jitter: 200 * sim.Microsecond,
			})
		}
	}
	rows = append(rows, kill)
	// The harshest lossy corner and the kill again with the paths in place
	// on: what the loss drops is only what still travels.
	for _, o := range []Options{lossy, kill} {
		o.DirectReads = 1
		rows = append(rows, o)
	}
	// One-sided legs: the paths in place on, lossy and with a kill early
	// enough to land inside the fast one-sided schedule.
	oneSided := Options{Seed: seed, NumPE: 4, OpsPerPE: ops, DirectReads: 1}
	a, b := oneSided, oneSided
	a.Loss = 0.05
	b.Loss, b.KillPE, b.KillAt = 0.02, 2, 100*sim.Millisecond
	rows = append(rows, a, b)
	// Mixed consistency tiers — strong, release and lease allocations in one
	// run, checked by the per-mode rules: fault-free, through the lossy
	// corner, over the one-sided paths lossy and fault-free, and with a
	// station kill discarding unflushed WC words and stranding held leases.
	modes := Options{Seed: seed, NumPE: 4, OpsPerPE: ops, Modes: true}
	a, b, c := lossy, modes, kill
	a.Modes, c.Modes = true, true
	b.DirectReads, b.Loss = 1, 0.05
	d := b
	d.Loss = 0
	rows = append(rows, modes, a, b, c, d)

	cases := make([]Case, len(rows))
	for i, o := range rows {
		cases[i] = Case{Options: o}
	}
	return cases
}

// recoverSuite is the kill-and-recover schedules: each row checkpoints
// periodically, loses a PE abruptly mid-run, restarts from the last snapshot
// and must complete with a checker-clean history.
func recoverSuite(seed uint64) []Case {
	const ops, killAt = 1000, 1500 * sim.Millisecond
	return []Case{
		{MustRecover: true, Options: Options{Seed: seed, NumPE: 4, OpsPerPE: ops,
			Recover: true, CkptEvery: 32, KillPE: 2, KillAt: killAt}},
		{MustRecover: true, Options: Options{Seed: seed + 1, NumPE: 4, OpsPerPE: ops,
			Recover: true, CkptEvery: 32, KillPE: 1, KillAt: killAt}},
		// 8 PEs pace slower per op: give the first checkpoint room to commit
		// before the kill lands.
		{MustRecover: true, Options: Options{Seed: seed + 2, NumPE: 8, OpsPerPE: ops,
			Recover: true, CkptEvery: 32, KillPE: 5, KillAt: 2 * killAt}},
		// The restart must rebind the one-sided paths to the fresh segments;
		// the one-sided schedule is faster, so the kill comes sooner.
		{MustRecover: true, Options: Options{Seed: seed + 3, NumPE: 4, OpsPerPE: ops,
			Recover: true, CkptEvery: 32, KillPE: 2, KillAt: killAt / 5,
			DirectReads: 1}},
		// Frame loss under the checkpoints: their barrier arrivals and
		// releases are retransmitted like any request.
		{MustRecover: true, Options: Options{Seed: seed + 4, NumPE: 4, OpsPerPE: ops, Loss: 0.02,
			Recover: true, CkptEvery: 32, KillPE: 2, KillAt: killAt}},
	}
}

// membershipSuite is the elastic-membership schedules: live joins, graceful
// leaves and block re-homings overlapping the randomized workload.
func membershipSuite(seed uint64) []Case {
	const ops = 800
	join := Options{Seed: seed, OpsPerPE: ops, Latent: 1, JoinAtOp: ops / 4, MigrateEvery: ops / 8}
	// Full churn: join + leave + periodic re-homings over the complete op
	// mix (blocks, gathers, locks, barriers), fault-free on 5 PEs.
	churn := join
	churn.NumPE, churn.LeavePE, churn.LeaveAtOp = 5, 2, ops/2

	// The same churn with the paths in place on: re-homing must fence the
	// stores made in place, not just the serve loop.
	inPlace := churn
	inPlace.DirectReads = 1
	rows := []Options{churn, inPlace}
	// Churn under frame loss: handoff NACKs, redirects and retries all cross
	// a lossy medium.
	lossy := join
	lossy.NumPE, lossy.Loss = 4, 0.05
	// One-sided legs: window reads and one-sided writes must follow their
	// blocks when they change home.
	oneSided := inPlace
	oneSided.NumPE = 4
	// A station kill overlapping the migration stream: handoffs stranded by
	// the dead peer may fail, but no acknowledged write may be lost or
	// duplicated in the surviving history.
	kill := join
	kill.NumPE, kill.Loss, kill.KillPE, kill.KillAt = 5, 0.02, 3, 2*sim.Second
	// Mixed consistency tiers through the full churn: half the re-homings
	// target the release region, so handoffs overlap unflushed WC buffers and
	// joins and leaves drop held leases cluster-wide — on the message path,
	// then over the one-sided paths.
	modes := churn
	modes.Modes = true
	modesOneSided := modes
	modesOneSided.DirectReads = 1
	rows = append(rows, lossy, oneSided, kill, modes, modesOneSided)

	cases := make([]Case, len(rows))
	for i, o := range rows {
		cases[i] = Case{Options: o, MinEvents: 3}
	}
	return cases
}
