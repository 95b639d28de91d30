// Package stress is the seeded stress runner of the correctness harness:
// it generates a randomized mixed workload (scalar, block, gather/scatter
// global-memory operations, atomics, barriers wherever no kill is scheduled
// and locks in fault-free configurations) over the deterministic simulated
// transport, under a replayable fault schedule (frame loss, delay jitter, a
// mid-run station kill), records the complete operation history and
// validates it with the check package's consistency checker.
//
// Everything is a pure function of Options: running the same Options twice
// yields bit-identical histories (compare History.Digest), which is what
// makes a failing seed a complete bug report.
package stress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/gmem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/transport/simnet"
)

// Global-memory regions of the workload, in words.
const (
	dataWords = 256 // scalar + block reads/writes, unique non-zero values
	ctrWords  = 16  // FetchAdd counters, uniform +1 deltas
	casWords  = 16  // CAS chains, unique non-zero values
	lockWords = 4   // one word per lock id, mutated only under its lock

	// Modes runs add two more data regions under the weaker consistency
	// tiers (DESIGN.md §14); scalar and block traffic mixes across all three
	// tiers while atomics stay on the strong regions.
	relWords   = 128 // ModeRelease: writes buffered, flushed at sync edges
	leaseWords = 128 // ModeLease: reads served from time-bounded block leases
)

// Options selects one stress configuration. Every field participates in
// the deterministic replay: same Options, same history.
type Options struct {
	Seed     uint64
	NumPE    int          // 2..8
	OpsPerPE int          // operations issued per PE
	Loss     float64      // frame-loss probability on the simulated medium
	Jitter   sim.Duration // per-frame receive-side delay jitter, 0 = off
	// KillPE > 0 schedules that PE's network station to die at KillAt
	// (never PE 0 — kernel 0 hosts the sync managers and process table).
	// The victim PE winds down shortly before the kill so its exit message
	// still gets out; survivors detect the dead home via the loss budget
	// and skip addresses homed there.
	KillPE int
	KillAt sim.Duration
	// Fault passes through the kernel's TEST-ONLY protocol fault
	// (core.Config.Fault): message-path writes dropped, release flushes
	// skipped or lease expiry ignored. A run with one set must produce checker
	// violations; the harness tests use it to prove the checker catches the
	// broken protocol.
	Fault core.Fault
	// Recover enables coordinated checkpoint/restart: the workload
	// checkpoints every CkptEvery ops, the scheduled kill takes the victim
	// down abruptly (no wind-down — the snapshot, not a graceful exit, is
	// what survives), and the run goes through core.RunWithRecovery, so it
	// must complete with a checker-clean history after the restart.
	Recover bool
	// CkptEvery is the checkpoint period in ops per PE (0 = 64). Every PE
	// checkpoints at the same op indices — Checkpoint is collective.
	CkptEvery int
	// FaultCorruptSnapshot flips a byte in every stored slice file between
	// the failure and the restart. The store's CRC32/SHA-256
	// verification must refuse the snapshot: Run returns an error
	// mentioning the corruption instead of restoring garbage.
	FaultCorruptSnapshot bool
	// DirectReads passes through core.Config.DirectReads, the one switch for
	// the paths in place: 0 keeps the simulated transport's default, the
	// message path; >0 turns reads, stores and atomics in place on at every
	// co-located home. A store completes at its submit point, so these runs
	// replay deterministically like all others.
	DirectReads int

	// Membership schedule (incompatible with Recover).
	// Latent provisions that many PEs at the tail of the id range as latent
	// members — clients that own no global memory — and each joins live at
	// op index JoinAtOp + 32*k (k-th latent PE), taking over its probe-rule
	// share while the workload keeps running.
	Latent   int
	JoinAtOp int // op index the first latent PE joins at (0 = OpsPerPE/4)
	// LeaveAtOp > 0 schedules PE LeavePE (never 0 — kernel 0 hosts the
	// grant service and sync managers; 0 = the highest initially-active PE)
	// to leave voluntarily at that op index, handing its blocks to its
	// successor and continuing as a pure client.
	LeavePE   int
	LeaveAtOp int
	// MigrateEvery > 0 makes PE 1 re-home a random 1-2 block range of the
	// data region to a random active peer every MigrateEvery ops, so
	// migrations overlap the join/leave transitions and — in kill
	// schedules — the station death. Modes runs re-home the release region
	// half the time instead, so handoffs overlap unflushed WC buffers.
	MigrateEvery int

	// Modes mixes the three consistency tiers in one run: two extra data
	// regions are allocated under ModeRelease and ModeLease and a third of
	// the scalar/block/gather/scatter traffic lands on each tier. Atomics
	// stay on the strong regions (they always run the strong protocol, and
	// the release rules forbid atomics sharing words with buffered writes).
	Modes bool
	// LeaseDuration passes through core.Config.LeaseDuration. 0 in a Modes
	// run picks a short 300µs lease so expiries actually occur mid-run.
	LeaseDuration sim.Duration
}

// migratorPE issues the scheduled MigrateRange calls. Never 0 (kernel 0
// must stay free to serve grants) and never latent (latent PEs sit at the
// tail of the id range).
const migratorPE = 1

func (o Options) String() string {
	s := fmt.Sprintf("seed=%d pe=%d ops=%d loss=%g jitter=%v kill=%d@%v",
		o.Seed, o.NumPE, o.OpsPerPE, o.Loss, o.Jitter, o.KillPE, o.KillAt)
	if o.Recover {
		s += fmt.Sprintf(" recover(every=%d)", o.CkptEvery)
	}
	if o.DirectReads != 0 {
		s += fmt.Sprintf(" direct=%d", o.DirectReads)
	}
	if o.Latent > 0 {
		s += fmt.Sprintf(" latent=%d join@%d", o.Latent, o.JoinAtOp)
	}
	if o.LeaveAtOp > 0 {
		s += fmt.Sprintf(" leave=%d@%d", o.LeavePE, o.LeaveAtOp)
	}
	if o.MigrateEvery > 0 {
		s += fmt.Sprintf(" migrate/%d", o.MigrateEvery)
	}
	if o.Modes {
		s += " modes"
		if o.LeaseDuration > 0 {
			s += fmt.Sprintf("(lease=%v)", o.LeaseDuration)
		}
	}
	if o.Fault != core.NoFault {
		s += " fault=" + o.Fault.String()
	}
	return s
}

// membership reports whether any live join/leave/re-home event is scheduled.
func (o Options) membership() bool {
	return o.Latent > 0 || o.LeaveAtOp > 0 || o.MigrateEvery > 0
}

// faulty reports whether the configuration can lose messages, which rules
// out locks: an unlock is a one-way post, and a lost one keeps its lock held.
func (o Options) faulty() bool { return o.Loss > 0 || o.KillAt > 0 }

// Result is one stress run's outcome.
type Result struct {
	Report  *check.Report
	History *check.History
	Elapsed sim.Duration
	Err     error // first unexpected PE error (nil in a healthy run)
	// Recovery reports checkpoint/restart activity (nil unless
	// Options.Recover).
	Recovery *core.RecoveryReport
	// SnapshotBytes is the total encoded checkpoint data written across all
	// PEs and epochs (0 unless Options.Recover).
	SnapshotBytes uint64
	// Membership event totals across all PEs (0 unless a membership
	// schedule was set): joins and leaves completed, migrations initiated
	// and blocks handed to a new home.
	Joins, Leaves, Migrations, MigratedBlocks uint64
	// Consistency-tier totals (0 unless Options.Modes): WC buffer drains at
	// sync edges, leases fetched, leases dropped by expiry.
	WCFlushes, LeaseGrants, LeaseExpiries uint64
}

// Run executes one seeded stress run and checks its history.
func Run(o Options) (*Result, error) {
	if o.NumPE < 2 {
		o.NumPE = 2
	}
	if o.OpsPerPE <= 0 {
		o.OpsPerPE = 200
	}
	if o.membership() {
		if o.Recover {
			return nil, fmt.Errorf("stress: membership schedules cannot combine with Recover")
		}
		if o.Latent >= o.NumPE {
			return nil, fmt.Errorf("stress: %d latent of %d PEs leaves no active member", o.Latent, o.NumPE)
		}
		if o.Latent > 0 && o.JoinAtOp <= 0 {
			o.JoinAtOp = o.OpsPerPE / 4
		}
		if o.LeaveAtOp > 0 {
			if o.LeavePE <= 0 {
				o.LeavePE = o.NumPE - o.Latent - 1
			}
			if o.LeavePE <= 0 {
				return nil, fmt.Errorf("stress: no PE besides kernel 0 can leave (pe=%d latent=%d)", o.NumPE, o.Latent)
			}
		}
	}
	if o.Modes && o.Recover {
		return nil, fmt.Errorf("stress: Modes cannot combine with Recover (the recovery workload is scalar-strong)")
	}
	if o.Modes && o.LeaseDuration == 0 {
		o.LeaseDuration = 300 * sim.Microsecond
	}
	cfg := core.Config{
		NumPE:           o.NumPE,
		Platform:        platform.SparcSunOS,
		Seed:            o.Seed,
		LossProbability: o.Loss,
		DelayJitter:     o.Jitter,
		RecordHistory:   true,
		Fault:           o.Fault,
		DirectReads:     o.DirectReads,
		LatentPEs:       o.Latent,
		LeaseDuration:   o.LeaseDuration,
	}
	if o.faulty() {
		cfg.RequestTimeout = 50 * sim.Millisecond
		cfg.RequestRetries = 30
	}
	if o.KillAt > 0 {
		cfg.Kills = []simnet.Kill{{Node: o.KillPE, At: o.KillAt}}
		cfg.PeerLossBudget = 8
	}
	if o.Recover {
		return runRecover(o, cfg)
	}
	res, err := core.Run(cfg, program(o))
	if err != nil {
		return nil, err
	}
	return &Result{
		Report:         check.Check(res.History),
		History:        res.History,
		Elapsed:        res.Elapsed,
		Err:            res.FirstErr(),
		Joins:          res.Total.Joins,
		Leaves:         res.Total.Leaves,
		Migrations:     res.Total.Migrations,
		MigratedBlocks: res.Total.MigratedBlocks,
		WCFlushes:      res.Total.WCFlushes,
		LeaseGrants:    res.Total.LeaseGrants,
		LeaseExpiries:  res.Total.LeaseExpiries,
	}, nil
}

// maxRecoveries bounds restart attempts per stress run; the deterministic
// schedules kill at most one PE, so one recovery should always suffice.
const maxRecoveries = 3

// runRecover drives the checkpointing workload through core.RunWithRecovery
// against a throwaway on-disk snapshot store.
func runRecover(o Options, cfg core.Config) (*Result, error) {
	if o.CkptEvery <= 0 {
		o.CkptEvery = 64
	}
	dir, err := os.MkdirTemp("", "dse-ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var store ckpt.Store
	store, err = ckpt.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	if o.FaultCorruptSnapshot {
		store = &corruptingStore{Store: store, root: dir}
	}
	cfg.Ckpt = store
	res, rep, err := core.RunWithRecovery(cfg, maxRecoveries, recoverProgram(o))
	if err != nil {
		return nil, err
	}
	return &Result{
		Report:        check.Check(res.History),
		History:       res.History,
		Elapsed:       res.Elapsed,
		Err:           res.FirstErr(),
		Recovery:      rep,
		SnapshotBytes: res.Total.SnapshotBytes,
	}, nil
}

// corruptingStore flips a byte in every stored slice file the moment
// recovery first reads the snapshot back, modelling at-rest corruption. The
// underlying store's integrity checks must catch it.
type corruptingStore struct {
	ckpt.Store
	root string
	done bool
}

func (s *corruptingStore) ReadSlice(gen uint64, pe int) ([]byte, error) {
	if !s.done {
		s.done = true
		files, err := filepath.Glob(filepath.Join(s.root, "g*", "p*"))
		if err != nil {
			return nil, err
		}
		for _, p := range files {
			data, err := os.ReadFile(p)
			if err != nil || len(data) == 0 {
				return nil, fmt.Errorf("corruptingStore: %s: %v", p, err)
			}
			data[len(data)-1] ^= 0xff
			if err := os.WriteFile(p, data, 0o644); err != nil {
				return nil, err
			}
		}
	}
	return s.Store.ReadSlice(gen, pe)
}

// program builds the per-PE workload body.
func program(o Options) core.Program {
	return func(pe *core.PE) error {
		// SPMD allocation: every PE makes the identical calls, so the
		// regions land at the same addresses cluster-wide.
		data := pe.Alloc(dataWords)
		ctrs := pe.Alloc(ctrWords)
		casb := pe.Alloc(casWords)
		lckw := pe.Alloc(lockWords)

		rng := sim.NewRand(o.Seed ^ (uint64(pe.ID()+1) * 0x9e3779b97f4a7c15))
		w := &worker{pe: pe, o: o, rng: rng, data: data, ctrs: ctrs, casb: casb, lckw: lckw}
		if o.Modes {
			// Same SPMD discipline: the mode tables agree cluster-wide.
			w.rel = pe.AllocMode(relWords, gmem.ModeRelease)
			w.lea = pe.AllocMode(leaseWords, gmem.ModeLease)
		}
		w.casGuess = make([]int64, casWords)
		w.joinAt, w.leaveAt = -1, -1
		if base := o.NumPE - o.Latent; o.Latent > 0 && pe.ID() >= base {
			// Stagger the latent PEs' joins so the grant service serialises
			// overlapping transition requests rather than a fixed order.
			w.joinAt = o.JoinAtOp + 32*(pe.ID()-base)
		}
		if o.LeaveAtOp > 0 && pe.ID() == o.LeavePE {
			w.leaveAt = o.LeaveAtOp
		}

		victim := o.KillPE > 0 && pe.ID() == o.KillPE
		// Leave a quarter of the schedule as margin so the victim's exit
		// message reaches kernel 0 before the station dies.
		stopAt := sim.Time(o.KillAt - o.KillAt/4)

		for i := 0; i < o.OpsPerPE; i++ {
			if victim && pe.Now() >= stopAt {
				return nil
			}
			if err := w.membershipStep(i); err != nil {
				return err
			}
			w.step(i)
			// Runs without a kill rendezvous periodically: a barrier must be
			// reached by every PE (a dead one never arrives; a lost arrival
			// or release is retransmitted), so its schedule is fixed.
			if o.KillAt == 0 && i%64 == 63 {
				pe.BarrierID(int32(1 + i/64%2))
			}
		}
		return nil
	}
}

// recoverProgram is the checkpointing variant of the workload body: the
// same faulty-mode op mix (everything but the locks), with a
// collective checkpoint every CkptEvery ops. The victim runs at full tilt
// into the scheduled kill — no wind-down — so everything past the last
// checkpoint is genuinely lost and must be recovered from the snapshot.
//
// The checkpoint blob carries each PE's resume index, unique-value counter
// and CAS guesses: the restarted incarnation continues the op schedule
// after the checkpoint without ever reusing a value (the checker's value
// discipline spans the snapshot baseline and the rerun).
func recoverProgram(o Options) core.Program {
	return func(pe *core.PE) error {
		data := pe.Alloc(dataWords)
		ctrs := pe.Alloc(ctrWords)
		casb := pe.Alloc(casWords)
		lckw := pe.Alloc(lockWords)

		rng := sim.NewRand(o.Seed ^ (uint64(pe.ID()+1) * 0x9e3779b97f4a7c15))
		w := &worker{pe: pe, o: o, rng: rng, data: data, ctrs: ctrs, casb: casb, lckw: lckw}
		w.casGuess = make([]int64, casWords)
		pe.RegisterCheckpoint(w.saveBlob, w.restoreBlob)

		for i := w.resume; i < o.OpsPerPE; i++ {
			w.step(i)
			if (i+1)%o.CkptEvery == 0 {
				w.resume = i + 1
				if err := pe.Checkpoint(); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// worker is one PE's workload state.
type worker struct {
	pe       *core.PE
	o        Options
	rng      *sim.Rand
	data     uint64
	ctrs     uint64
	casb     uint64
	lckw     uint64
	rel      uint64 // Modes: ModeRelease region base
	lea      uint64 // Modes: ModeLease region base
	casGuess []int64
	uniq     int64
	dead     map[int]bool // homes declared down; their addresses are skipped
	resume   int          // recover mode: op index the next incarnation starts at
	joinAt   int          // op index this (latent) PE joins at; -1 = never
	leaveAt  int          // op index this PE leaves at; -1 = never
}

// membershipStep fires any membership event scheduled at op index i: this
// PE's join or leave, or — on the migrator — a periodic block re-homing.
// With a kill scheduled the in-flight handoffs can die mid-protocol; those
// errors are tolerated (the checker still validates every surviving
// operation), but in a fault-free run a failed transition fails the PE.
func (w *worker) membershipStep(i int) error {
	pe := w.pe
	if i == w.joinAt {
		if err := pe.Join(); err != nil {
			w.note(err)
			if !w.o.faulty() {
				return fmt.Errorf("join at op %d: %w", i, err)
			}
		}
	}
	if i == w.leaveAt {
		if err := pe.Leave(); err != nil {
			w.note(err)
			if !w.o.faulty() {
				return fmt.Errorf("leave at op %d: %w", i, err)
			}
		}
	}
	if w.o.MigrateEvery > 0 && pe.ID() == migratorPE && i > 0 && i%w.o.MigrateEvery == 0 {
		return w.migrateOnce(i)
	}
	return nil
}

// migrateOnce re-homes a random 1-2 block range of the data region — or, in
// Modes runs, of the release region half the time, so handoffs overlap other
// PEs' unflushed WC buffers — to a random active member. A destination that
// concurrently left the membership between the snapshot and the call is a
// benign race, not a failure.
func (w *worker) migrateOnce(i int) error {
	pe := w.pe
	bw := pe.Space().BlockWords
	base, words := w.data, dataWords
	if w.o.Modes && w.rng.Intn(2) == 0 {
		base, words = w.rel, relWords
	}
	blocks := words / bw
	if blocks < 1 {
		return nil
	}
	nblocks := 1
	if blocks > 1 && w.rng.Intn(2) == 0 {
		nblocks = 2
	}
	off := w.rng.Intn(blocks - nblocks + 1)
	addr := base + uint64(off*bw)
	var cands []int
	for id, m := range pe.Members() {
		if m.State == gmem.MemberActive && (w.dead == nil || !w.dead[id]) {
			cands = append(cands, id)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	dst := cands[w.rng.Intn(len(cands))]
	if err := pe.MigrateRange(addr, nblocks, dst); err != nil {
		w.note(err)
		if !w.o.faulty() && !strings.Contains(err.Error(), "non-active") {
			return fmt.Errorf("migrate %d blocks to %d at op %d: %w", nblocks, dst, i, err)
		}
	}
	return nil
}

// saveBlob snapshots the workload state a restarted incarnation needs:
// [resume, uniq, casGuess...], little-endian 64-bit words.
func (w *worker) saveBlob() []byte {
	buf := make([]byte, 0, (2+len(w.casGuess))*8)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.resume))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.uniq))
	for _, g := range w.casGuess {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(g))
	}
	return buf
}

func (w *worker) restoreBlob(b []byte) {
	if len(b) != (2+len(w.casGuess))*8 {
		return // foreign blob: start from scratch rather than corrupt state
	}
	w.resume = int(binary.LittleEndian.Uint64(b[0:]))
	w.uniq = int64(binary.LittleEndian.Uint64(b[8:]))
	for i := range w.casGuess {
		w.casGuess[i] = int64(binary.LittleEndian.Uint64(b[16+8*i:]))
	}
}

// region picks the data region of a non-atomic access: always the strong
// region outside Modes runs (no extra rng draws, so pinned non-Modes
// histories replay unchanged), a third per tier inside them.
func (w *worker) region() (uint64, int) {
	if !w.o.Modes {
		return w.data, dataWords
	}
	switch w.rng.Intn(3) {
	case 0:
		return w.data, dataWords
	case 1:
		return w.rel, relWords
	default:
		return w.lea, leaseWords
	}
}

// next returns a cluster-unique non-zero value: the checker's value
// discipline maps every read back to the one write that produced it.
func (w *worker) next() int64 {
	w.uniq++
	return int64(w.pe.ID()+1)<<40 | w.uniq
}

// skip reports whether addr is homed at a kernel already declared down.
// The lookup is directory-aware so re-homed blocks track their current
// owner, not the probe rule's static assignment.
func (w *worker) skip(addr uint64) bool {
	return w.dead != nil && w.dead[w.pe.HomeOf(addr)]
}

// skipBlock is skip for the n words at addr: a range operation that touches a
// home already declared down is skipped whole, like a scalar.
func (w *worker) skipBlock(addr uint64, n int) bool {
	for i := 0; i < n; i++ {
		if w.skip(addr + uint64(i)) {
			return true
		}
	}
	return false
}

// rangeErr is what a block, gather or scatter does with its error: under a
// fault schedule it is noted like a scalar's (the engine retried as configured;
// what is left is a dead home), in a fault-free run it fails the PE.
func (w *worker) rangeErr(err error) {
	if err != nil && !w.o.faulty() {
		panic(err)
	}
	w.note(err)
}

// note tracks peer-down errors so later operations stop hammering the dead
// home (each would burn the full retry schedule).
func (w *worker) note(err error) {
	var pd *core.PeerDownError
	if errors.As(err, &pd) {
		if w.dead == nil {
			w.dead = make(map[int]bool)
		}
		w.dead[pd.Peer] = true
	}
}

func (w *worker) step(i int) {
	pe, rng := w.pe, w.rng
	// The lock leg has a stand-in under any fault schedule, drawn from the
	// same slot of the mix: an unlock is a one-way post.
	faulty := w.o.faulty()
	switch p := rng.Intn(100); {
	case p < 25: // scalar read
		base, nw := w.region()
		a := base + uint64(rng.Intn(nw))
		if w.skip(a) {
			return
		}
		if _, err := pe.GMReadErr(a); err != nil {
			w.note(err)
		}
	case p < 50: // scalar write
		base, nw := w.region()
		a := base + uint64(rng.Intn(nw))
		if w.skip(a) {
			return
		}
		if err := pe.GMWriteErr(a, w.next()); err != nil {
			w.note(err)
		}
	case p < 65, faulty && p >= 95: // counter fetch-add
		a := w.ctrs + uint64(rng.Intn(ctrWords))
		if w.skip(a) {
			return
		}
		if _, err := pe.FetchAddErr(a, 1); err != nil {
			w.note(err)
		}
	case p < 75: // CAS chain: guess tracks the last observed value
		wi := rng.Intn(casWords)
		a := w.casb + uint64(wi)
		if w.skip(a) {
			return
		}
		nv := w.next()
		out, ok, err := pe.CASErr(a, w.casGuess[wi], nv)
		if err != nil {
			w.note(err)
			return
		}
		if ok {
			w.casGuess[wi] = nv
		} else {
			w.casGuess[wi] = out
		}
	case p < 85: // block/gather read
		if rng.Intn(2) == 0 {
			base, nw := w.region()
			n := 2 + rng.Intn(15)
			addr := base + uint64(rng.Intn(nw-n))
			if w.skipBlock(addr, n) {
				return
			}
			_, err := pe.GMReadBlockErr(addr, n)
			w.rangeErr(err)
		} else {
			// Modes runs mix tiers per element, exercising the vectored
			// paths' mixed-mode scalar fallback.
			addrs := make([]uint64, 2+rng.Intn(7))
			for j := range addrs {
				base, nw := w.region()
				addrs[j] = base + uint64(rng.Intn(nw))
			}
			if slices.ContainsFunc(addrs, w.skip) {
				return
			}
			_, err := pe.GMGatherErr(addrs)
			w.rangeErr(err)
		}
	case p < 95: // block/scatter write
		if rng.Intn(2) == 0 {
			base, nw := w.region()
			n := 2 + rng.Intn(15)
			addr := base + uint64(rng.Intn(nw-n))
			words := make([]int64, n)
			for j := range words {
				words[j] = w.next()
			}
			if w.skipBlock(addr, n) {
				return
			}
			w.rangeErr(pe.GMWriteBlockErr(addr, words))
		} else {
			n := 2 + rng.Intn(7)
			addrs := make([]uint64, n)
			vals := make([]int64, n)
			for j := range addrs {
				base, nw := w.region()
				addrs[j] = base + uint64(rng.Intn(nw))
				vals[j] = w.next()
			}
			if slices.ContainsFunc(addrs, w.skip) {
				return
			}
			w.rangeErr(pe.GMScatterErr(addrs, vals))
		}
	default: // lock-protected read-modify-write
		id := int32(rng.Intn(lockWords))
		pe.Lock(id)
		a := w.lckw + uint64(id)
		if _, err := pe.GMReadErr(a); err == nil {
			_ = pe.GMWriteErr(a, w.next())
		}
		pe.Unlock(id)
	}
}
