package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"repro/internal/apps/dct"
	"repro/internal/apps/gauss"
	"repro/internal/apps/knight"
	"repro/internal/apps/othello"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/gmem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// SnapshotSchemaVersion is bumped whenever the snapshot JSON layout changes
// incompatibly, so downstream consumers (the CI regression gate, plotting
// scripts) can refuse data they do not understand.
const SnapshotSchemaVersion = 1

// Snapshot is one machine-readable benchmark run: the repo's performance
// trajectory, committed as BENCH_*.json and diffed by the CI regression
// gate. Everything in it except AllocPerRemoteOp is deterministic on the
// simulated transport (virtual time, exact message counts).
type Snapshot struct {
	SchemaVersion int    `json:"schema_version"`
	Tool          string `json:"tool"`  // producer, e.g. "dsebench"
	Scale         string `json:"scale"` // "quick" or "full"
	Platform      string `json:"platform"`
	Seed          uint64 `json:"seed"`

	Workloads []WorkloadMetrics `json:"workloads"`
	Speedup   []SpeedupPoint    `json:"speedup"`

	// Saturation is the sharded-kernel throughput sweep (dsebench
	// -saturate), present only when that flag was given. Unlike the fields
	// above it is wall-clock, so Compare gates it loosely.
	Saturation []SaturationPoint `json:"saturation,omitempty"`

	// Sched is the multi-job scheduler load test (dsebench -sched), present
	// only when that flag was given. Wall-clock like Saturation, so Compare
	// gates throughput by collapse only — but a nonzero violation count is
	// always a failure.
	Sched []SchedPoint `json:"sched,omitempty"`

	// ConsistencyTiers is the per-mode gauss ablation (DESIGN.md §14):
	// message counts and tier-machinery counters for each consistency mode,
	// deterministic on the simulated transport and gated by Compare like
	// the workload metrics. Absent from baselines predating the tiers.
	ConsistencyTiers []TierMetrics `json:"consistency_tiers,omitempty"`
}

// WorkloadMetrics captures one reference-application run.
type WorkloadMetrics struct {
	Name      string `json:"name"`
	NumPE     int    `json:"num_pe"`
	ElapsedUS int64  `json:"elapsed_us"` // virtual end-to-end time

	MsgsSent  uint64 `json:"msgs_sent"`
	BytesSent uint64 `json:"bytes_sent"`
	LocalGM   uint64 `json:"local_gm"`
	RemoteGM  uint64 `json:"remote_gm"`

	// AllocPerRemoteOp is whole-run heap allocations (application work
	// included) normalised by remote global-memory operations, measured
	// after a warm-up run primes the message pools. A drift upward means
	// something on the request path started allocating. It is the one
	// nondeterministic field; the regression gate compares it with an
	// epsilon.
	AllocPerRemoteOp float64 `json:"alloc_per_remote_op"`

	// PerOp breaks sent traffic down by protocol operation.
	PerOp map[string]OpMetrics `json:"per_op"`

	RTT         LatencySummary `json:"rtt_us"`
	BarrierWait LatencySummary `json:"barrier_wait_us"`

	// Reliability-layer counters (all zero on a healthy simulated run).
	Retries      uint64 `json:"retries"`
	StaleReplies uint64 `json:"stale_replies"`
	StrayDrops   uint64 `json:"stray_drops"`
	CorruptDrops uint64 `json:"corrupt_drops"`
	DupRequests  uint64 `json:"dup_requests"`

	// Checkpoint/restart cost, measured only for the gauss workload (zero
	// and omitted elsewhere, and in baselines predating the subsystem —
	// Compare's old > 0 guard keeps those comparable). CkptOverheadPct is
	// the relative elapsed-time cost of one coordinated checkpoint of the
	// full solved system; SnapshotBytes is that snapshot's encoded size
	// across all PEs. The ElapsedUS above always comes from a
	// checkpointing-free run: with Config.Ckpt nil the subsystem costs
	// nothing on the hot path.
	CkptOverheadPct float64 `json:"ckpt_overhead_pct,omitempty"`
	SnapshotBytes   uint64  `json:"snapshot_bytes,omitempty"`
}

// OpMetrics is one op's share of the sent traffic.
type OpMetrics struct {
	Msgs  uint64 `json:"msgs"`
	Bytes uint64 `json:"bytes"`
}

// LatencySummary summarises a latency distribution in microseconds
// (quantiles are bucket upper bounds; see trace.Histogram.Quantile).
type LatencySummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// SpeedupPoint is one cell of the speed-up curve committed with the
// snapshot: how much faster the named workload runs on NumPE processors
// than on one.
type SpeedupPoint struct {
	Workload string  `json:"workload"`
	NumPE    int     `json:"num_pe"`
	Ratio    float64 `json:"ratio"`
}

func summarize(h *trace.Histogram) LatencySummary {
	hs := h.Snapshot()
	us := func(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) }
	return LatencySummary{
		Count: hs.Count,
		Mean:  us(hs.Mean()),
		P50:   us(hs.Quantile(0.50)),
		P95:   us(hs.Quantile(0.95)),
		P99:   us(hs.Quantile(0.99)),
		Max:   us(hs.Max),
	}
}

// snapshotWorkload is one reference app configured for the snapshot.
type snapshotWorkload struct {
	name       string
	npe        int
	blockWords int
	body       core.Program
}

// snapshotWorkloads are the four reference applications at fixed, fast
// parameter points: the metrics the repo tracks across PRs.
func snapshotWorkloads(sc Scale) []snapshotWorkload {
	const p = 4
	gaussN := 120
	if len(sc.GaussNs) > 1 {
		gaussN = sc.GaussNs[1]
	}
	return []snapshotWorkload{
		{
			name: fmt.Sprintf("gauss N=%d", gaussN), npe: p, blockWords: gaussBlockWords,
			body: func(pe *core.PE) error {
				_, err := gauss.Parallel(pe, gauss.Params{N: gaussN, Seed: sc.Seed})
				return err
			},
		},
		{
			name: "dct 64/8", npe: p,
			body: func(pe *core.PE) error {
				_, err := dct.Parallel(pe, dct.Params{ImageN: 64, Block: 8, Rate: 0.5, Seed: sc.Seed})
				return err
			},
		},
		{
			name: "knight jobs=16", npe: p,
			body: func(pe *core.PE) error {
				_, err := knight.Parallel(pe, knight.Params{BoardN: 5, Jobs: 16})
				return err
			},
		},
		{
			name: "othello depth=3", npe: p,
			body: func(pe *core.PE) error {
				_, err := othello.Parallel(pe, othello.Params{Depth: 3})
				return err
			},
		},
	}
}

// measureWorkload runs w twice on the simulated cluster — once to warm the
// message pools, once measured (virtual-time metrics plus a heap-allocation
// count around the measured run) — and fills one WorkloadMetrics.
func measureWorkload(pl *platform.Platform, sc Scale, w snapshotWorkload) (WorkloadMetrics, error) {
	cfg := core.Config{NumPE: w.npe, Platform: pl, Seed: sc.Seed, GMBlockWords: w.blockWords}
	run := func() (*core.Result, error) {
		res, err := core.Run(cfg, w.body)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := res.FirstErr(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		return res, nil
	}
	if _, err := run(); err != nil { // warm-up: prime pools, JIT-free but cache-warm
		return WorkloadMetrics{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := run()
	if err != nil {
		return WorkloadMetrics{}, err
	}
	runtime.ReadMemStats(&after)

	m := WorkloadMetrics{
		Name:      w.name,
		NumPE:     w.npe,
		ElapsedUS: int64(res.Elapsed / sim.Microsecond),
		MsgsSent:  res.Total.MsgsSent,
		BytesSent: res.Total.BytesSent,
		LocalGM:   res.Total.LocalGM,
		RemoteGM:  res.Total.RemoteGM,
		PerOp:     map[string]OpMetrics{},

		RTT:         summarize(&res.Total.RTT),
		BarrierWait: summarize(&res.Total.BarrierWait),

		Retries:      res.Total.Retries,
		StaleReplies: res.Total.StaleReplies,
		StrayDrops:   res.Total.StrayDrops,
		CorruptDrops: res.Total.CorruptDrops,
		DupRequests:  res.Total.DupRequests,
	}
	if res.Total.RemoteGM > 0 {
		m.AllocPerRemoteOp = float64(after.Mallocs-before.Mallocs) / float64(res.Total.RemoteGM)
	}
	for i := range res.Total.ByOp {
		if res.Total.ByOp[i].Msgs > 0 {
			m.PerOp[wire.Op(i).String()] = OpMetrics{
				Msgs:  res.Total.ByOp[i].Msgs,
				Bytes: res.Total.ByOp[i].Bytes,
			}
		}
	}
	return m, nil
}

// BuildSnapshot runs the four reference applications on the simulated
// cluster and assembles the repo's benchmark snapshot. scaleName is recorded
// verbatim ("quick" or "full").
func BuildSnapshot(pl *platform.Platform, sc Scale, scaleName string) (*Snapshot, error) {
	snap := &Snapshot{
		SchemaVersion: SnapshotSchemaVersion,
		Tool:          "dsebench",
		Scale:         scaleName,
		Platform:      pl.Numeric,
		Seed:          sc.Seed,
	}
	for _, w := range snapshotWorkloads(sc) {
		m, err := measureWorkload(pl, sc, w)
		if err != nil {
			return nil, err
		}
		snap.Workloads = append(snap.Workloads, m)
	}

	// Checkpoint overhead rides on the gauss row: same run plus one
	// coordinated snapshot of the solved system.
	if len(snap.Workloads) > 0 {
		pct, bytes, err := gaussCkptOverhead(pl, sc, snap.Workloads[0].ElapsedUS)
		if err != nil {
			return nil, fmt.Errorf("checkpoint overhead: %w", err)
		}
		snap.Workloads[0].CkptOverheadPct = pct
		snap.Workloads[0].SnapshotBytes = bytes
	}

	// Per-mode consistency-tier rows: gauss under strong, release and
	// lease, vectored and fine-grained.
	tiers, err := ConsistencyTierProfile(pl, sc.Seed)
	if err != nil {
		return nil, fmt.Errorf("consistency tiers: %w", err)
	}
	snap.ConsistencyTiers = tiers

	// Speed-up curve: gauss at p = 1,2,4 (the snapshot's scaling check).
	gaussN := 120
	if len(sc.GaussNs) > 1 {
		gaussN = sc.GaussNs[1]
	}
	var base sim.Duration
	for _, p := range []int{1, 2, 4} {
		d, err := gaussElapsed(pl, gaussN, p, sc.Seed)
		if err != nil {
			return nil, fmt.Errorf("speedup gauss p=%d: %w", p, err)
		}
		if p == 1 {
			base = d
		}
		snap.Speedup = append(snap.Speedup, SpeedupPoint{
			Workload: fmt.Sprintf("gauss N=%d", gaussN),
			NumPE:    p,
			Ratio:    float64(base) / float64(d),
		})
	}
	return snap, nil
}

// RunGaussCkpt runs the snapshot's gauss point (p=4) with checkpointing
// enabled against a throwaway on-disk store and one coordinated Checkpoint
// of the fully solved system: the measurement behind the snapshot's
// checkpoint-overhead field, also surfaced by dsebench -latency and
// -recover.
func RunGaussCkpt(pl *platform.Platform, sc Scale) (*core.Result, error) {
	gaussN := 120
	if len(sc.GaussNs) > 1 {
		gaussN = sc.GaussNs[1]
	}
	dir, err := os.MkdirTemp("", "dse-ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := ckpt.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		NumPE: 4, Platform: pl, Seed: sc.Seed, GMBlockWords: gaussBlockWords,
		Ckpt: &core.CheckpointConfig{Store: store},
	}
	res, err := core.Run(cfg, func(pe *core.PE) error {
		pe.RegisterCheckpoint(nil, nil)
		if _, err := gauss.Parallel(pe, gauss.Params{N: gaussN, Seed: sc.Seed}); err != nil {
			return err
		}
		return pe.Checkpoint()
	})
	if err != nil {
		return nil, err
	}
	if err := res.FirstErr(); err != nil {
		return nil, err
	}
	return res, nil
}

// gaussCkptOverhead reports RunGaussCkpt's relative elapsed-time cost
// against baseUS (the checkpoint-free elapsed) plus the snapshot's encoded
// size.
func gaussCkptOverhead(pl *platform.Platform, sc Scale, baseUS int64) (float64, uint64, error) {
	res, err := RunGaussCkpt(pl, sc)
	if err != nil {
		return 0, 0, err
	}
	withUS := int64(res.Elapsed / sim.Microsecond)
	if baseUS <= 0 {
		return 0, res.Total.SnapshotBytes, nil
	}
	return 100 * float64(withUS-baseUS) / float64(baseUS), res.Total.SnapshotBytes, nil
}

// WriteJSON writes the snapshot, indented, stable.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// SaveJSON writes the snapshot to path.
func (s *Snapshot) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadSnapshot reads a snapshot written by SaveJSON, rejecting unknown
// schema versions.
func LoadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if s.SchemaVersion != SnapshotSchemaVersion {
		return nil, fmt.Errorf("bench: %s has schema version %d, this tool expects %d",
			path, s.SchemaVersion, SnapshotSchemaVersion)
	}
	return &s, nil
}

// LatencyTables runs the four reference applications and renders each one's
// per-op latency distribution (round trips, kernel service times,
// synchronisation waits) as a table: EXPERIMENTS.md's latency-distribution
// data.
func LatencyTables(pl *platform.Platform, sc Scale) ([]*trace.Table, error) {
	var tables []*trace.Table
	for _, w := range snapshotWorkloads(sc) {
		cfg := core.Config{NumPE: w.npe, Platform: pl, Seed: sc.Seed, GMBlockWords: w.blockWords}
		res, err := core.Run(cfg, w.body)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := res.FirstErr(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		title := fmt.Sprintf("latency distribution, %s p=%d on %s (elapsed %v, %d msgs, %d bytes)",
			w.name, w.npe, pl.Numeric, res.Elapsed, res.Total.MsgsSent, res.Total.BytesSent)
		tables = append(tables, res.Total.LatencyTable(title))
	}

	// One checkpoint-enabled gauss run rides along: its table carries the
	// ckpt-mark round trips and the checkpoint counters.
	res, err := RunGaussCkpt(pl, sc)
	if err != nil {
		return nil, fmt.Errorf("gauss+ckpt: %w", err)
	}
	title := fmt.Sprintf("latency distribution, gauss+ckpt p=4 on %s (elapsed %v, %d msgs, %d bytes, one coordinated checkpoint)",
		pl.Numeric, res.Elapsed, res.Total.MsgsSent, res.Total.BytesSent)
	tables = append(tables, res.Total.LatencyTable(title))
	ck := &trace.Table{
		Title:  "checkpoint counters, gauss+ckpt p=4",
		Header: []string{"counter", "value"},
	}
	ck.AddRow("checkpoints", fmt.Sprintf("%d", res.Total.Checkpoints))
	ck.AddRow("restores", fmt.Sprintf("%d", res.Total.Restores))
	ck.AddRow("snapshot_bytes", fmt.Sprintf("%d", res.Total.SnapshotBytes))
	ck.AddRow("rollback_ops", fmt.Sprintf("%d", res.Total.RollbackOps))
	tables = append(tables, ck)

	// One release-mode fine-grained gauss run rides along: its table's
	// flush-stall row is the WC-buffer drain latency at sync edges, which
	// every strong workload above leaves empty.
	rel, err := core.Run(core.Config{
		NumPE: tierGaussPE, Platform: pl, Seed: sc.Seed, GMBlockWords: gaussBlockWords,
	}, func(pe *core.PE) error {
		return gaussFine(pe, gmem.ModeRelease, sc.Seed)
	})
	if err != nil {
		return nil, fmt.Errorf("gauss-fine release: %w", err)
	}
	if err := rel.FirstErr(); err != nil {
		return nil, fmt.Errorf("gauss-fine release: %w", err)
	}
	title = fmt.Sprintf("latency distribution, gauss-fine N=%d release p=%d on %s (elapsed %v, %d msgs, %d bytes, %d WC flushes)",
		tierGaussN, tierGaussPE, pl.Numeric, rel.Elapsed, rel.Total.MsgsSent, rel.Total.BytesSent, rel.Total.WCFlushes)
	tables = append(tables, rel.Total.LatencyTable(title))
	return tables, nil
}

// regressionTolerance is how much a tracked deterministic metric may grow
// before Compare flags it.
const regressionTolerance = 0.10

// allocEpsilon absorbs run-to-run noise in the allocation counter on top of
// the fractional tolerance.
const allocEpsilon = 0.5

// Compare diffs cur against base and describes every tracked metric that
// regressed: per-op message counts, total messages/bytes, remote-GM
// allocations per op, and p95 round-trip latency. Deterministic metrics use
// the >10% rule; the allocation rate additionally gets an absolute epsilon.
// An empty result means no regression.
func Compare(base, cur *Snapshot) []string {
	var regressions []string
	worse := func(name string, old, new float64) {
		if old > 0 && new > old*(1+regressionTolerance) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.4g -> %.4g (+%.1f%%)", name, old, new, 100*(new-old)/old))
		}
	}
	curByKey := map[string]*WorkloadMetrics{}
	for i := range cur.Workloads {
		w := &cur.Workloads[i]
		curByKey[fmt.Sprintf("%s/p%d", w.Name, w.NumPE)] = w
	}
	for i := range base.Workloads {
		old := &base.Workloads[i]
		key := fmt.Sprintf("%s/p%d", old.Name, old.NumPE)
		now, ok := curByKey[key]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: workload missing from current snapshot", key))
			continue
		}
		worse(key+" msgs_sent", float64(old.MsgsSent), float64(now.MsgsSent))
		worse(key+" bytes_sent", float64(old.BytesSent), float64(now.BytesSent))
		worse(key+" rtt p95", old.RTT.P95, now.RTT.P95)
		// Baselines predating the checkpoint subsystem carry 0 here and
		// pass the old > 0 guard.
		worse(key+" ckpt_overhead_pct", old.CkptOverheadPct, now.CkptOverheadPct)
		if now.AllocPerRemoteOp > old.AllocPerRemoteOp*(1+regressionTolerance)+allocEpsilon {
			regressions = append(regressions,
				fmt.Sprintf("%s alloc/remote-op: %.3g -> %.3g", key, old.AllocPerRemoteOp, now.AllocPerRemoteOp))
		}
		ops := make([]string, 0, len(old.PerOp))
		for op := range old.PerOp {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		for _, op := range ops {
			worse(fmt.Sprintf("%s msgs[%s]", key, op), float64(old.PerOp[op].Msgs), float64(now.PerOp[op].Msgs))
		}
	}

	// Consistency-tier rows are deterministic like the workload metrics:
	// the >10% rule on messages, bytes, msgs/op and the tier-machinery
	// counters (a jump in flushes or lease churn means a fence or expiry
	// started firing where it didn't). Baselines predating the tiers carry
	// no rows and are skipped; rows missing from the current snapshot are
	// reported like missing workloads.
	curTiers := map[string]*TierMetrics{}
	for i := range cur.ConsistencyTiers {
		t := &cur.ConsistencyTiers[i]
		curTiers[tierKey(t)] = t
	}
	for i := range base.ConsistencyTiers {
		old := &base.ConsistencyTiers[i]
		key := tierKey(old)
		now, ok := curTiers[key]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: tier row missing from current snapshot", key))
			continue
		}
		worse(key+" msgs_sent", float64(old.MsgsSent), float64(now.MsgsSent))
		worse(key+" bytes_sent", float64(old.BytesSent), float64(now.BytesSent))
		worse(key+" msgs/op", old.MsgsPerOp, now.MsgsPerOp)
		worse(key+" wc_flushes", float64(old.WCFlushes), float64(now.WCFlushes))
		worse(key+" lease_grants", float64(old.LeaseGrants), float64(now.LeaseGrants))
		worse(key+" lease_expiries", float64(old.LeaseExpiries), float64(now.LeaseExpiries))
	}

	// Saturation points are wall-clock throughput, so run-to-run noise is
	// real: only a collapse below saturationFloor of the baseline — the kind
	// a lost shard or a serialised fast path produces — counts as a
	// regression. Points absent from either side are skipped (baselines
	// predate the sweep, or it wasn't requested this run).
	curSat := map[string]*SaturationPoint{}
	for i := range cur.Saturation {
		p := &cur.Saturation[i]
		curSat[satKey(p)] = p
	}
	for i := range base.Saturation {
		old := &base.Saturation[i]
		key := satKey(old)
		now, ok := curSat[key]
		if !ok || old.OpsPerSec <= 0 {
			continue
		}
		if now.OpsPerSec < old.OpsPerSec*saturationFloor {
			regressions = append(regressions,
				fmt.Sprintf("saturation %s ops/sec: %.0f -> %.0f (below %.0f%% of baseline)",
					key, old.OpsPerSec, now.OpsPerSec, 100*saturationFloor))
		}
	}
	// Scheduler load-test legs are wall-clock like saturation points: gate
	// job throughput by collapse only, skip legs absent from either side.
	// Namespace violations are not noise at any count — SchedSweep already
	// refuses to produce a point with violations, but a hand-edited or
	// corrupted snapshot should fail the gate too.
	curSched := map[string]*SchedPoint{}
	for i := range cur.Sched {
		p := &cur.Sched[i]
		curSched[schedKey(p)] = p
	}
	for i := range cur.Sched {
		if p := &cur.Sched[i]; p.Violations != 0 {
			regressions = append(regressions,
				fmt.Sprintf("sched %s: %d cross-namespace violations", schedKey(p), p.Violations))
		}
	}
	for i := range base.Sched {
		old := &base.Sched[i]
		key := schedKey(old)
		now, ok := curSched[key]
		if !ok || old.JobsPerSec <= 0 {
			continue
		}
		if now.JobsPerSec < old.JobsPerSec*saturationFloor {
			regressions = append(regressions,
				fmt.Sprintf("sched %s jobs/sec: %.0f -> %.0f (below %.0f%% of baseline)",
					key, old.JobsPerSec, now.JobsPerSec, 100*saturationFloor))
		}
	}
	return regressions
}

// saturationFloor is the fraction of baseline wall-clock throughput a
// saturation point must keep; anything above it is treated as noise.
const saturationFloor = 0.4

// satKey names a saturation point for baseline matching. Ring-on legs get a
// "/r" suffix — a distinct key — so baselines predating the write rings
// simply skip them instead of comparing a ring run against a message run.
func satKey(p *SaturationPoint) string {
	k := fmt.Sprintf("%s/p%d/s%d", p.Workload, p.NumPE, p.Shards)
	if p.Rings {
		k += "/r"
	}
	return k
}
