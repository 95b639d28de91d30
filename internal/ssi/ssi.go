// Package ssi builds the single-system-image layer on top of the DSE
// runtime: the cluster presents itself to applications as one machine with
// one process table, one name space and one load picture, regardless of
// which physical workstation hosts which DSE kernel — the stated goal of
// the paper ("users can freely use these cluster computing systems without
// knowing the underlying system architecture").
package ssi

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/gmem"
	"repro/internal/procmgmt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// View is a PE's single-machine view of the whole cluster.
type View struct {
	pe   *core.PE
	jobs JobSource
}

// NewView wraps a PE.
func NewView(pe *core.PE) *View { return &View{pe: pe} }

// JobRow is one scheduler job in the single-system image: the cluster's
// "process table" entry for multi-job operation (dsesched). States are
// "queued", "running", "done", "failed" and "cancelled".
type JobRow struct {
	ID          int     `json:"id"`
	Name        string  `json:"name"`
	State       string  `json:"state"`
	PEs         int     `json:"pes"`          // gang size (PEs held while running)
	QuotaBlocks uint64  `json:"quota_blocks"` // namespace quota, in GM blocks
	UsedBlocks  uint64  `json:"used_blocks"`  // blocks actually allocated
	Priority    int     `json:"priority"`
	WaitMS      float64 `json:"wait_ms"`         // queue wait (so far, or final)
	RunMS       float64 `json:"run_ms"`          // runtime (so far, or final)
	Error       string  `json:"error,omitempty"` // failure reason, failed jobs
}

// JobSource provides live scheduler job rows to the view (implemented by
// sched.Scheduler); nil until BindJobs.
type JobSource interface {
	JobRows() []JobRow
}

// BindJobs attaches a scheduler's job table to this view, so Jobs reports
// the cluster's multi-job state alongside the process table.
func (v *View) BindJobs(src JobSource) { v.jobs = src }

// Jobs returns the scheduler's per-job rows, or nil when no scheduler is
// bound to this view.
func (v *View) Jobs() []JobRow {
	if v.jobs == nil {
		return nil
	}
	return v.jobs.JobRows()
}

// NumCPU reports the cluster-wide processor count — the "machine size" a
// user of the single system sees.
func (v *View) NumCPU() int { return v.pe.N() }

// Uname describes the virtual machine.
func (v *View) Uname() string {
	return fmt.Sprintf("DSE cluster: %d processors (this PE: %d on %s)",
		v.pe.N(), v.pe.ID(), v.pe.Hostname())
}

// Processes returns the global process table.
func (v *View) Processes() []procmgmt.Entry { return v.pe.Processes() }

// LoadByHost reports running DSE processes per physical machine.
func (v *View) LoadByHost() map[string]int {
	load := make(map[string]int)
	for _, e := range v.Processes() {
		if e.State == procmgmt.StateRunning {
			load[e.Host]++
		}
	}
	return load
}

// LeastLoadedKernel picks the kernel on the least-loaded machine: the
// placement decision a load-aware SSI scheduler would make for new work.
// Ties break toward the lowest kernel id, deterministically.
func (v *View) LeastLoadedKernel() int {
	entries := v.Processes()
	load := make(map[string]int)
	hostOf := make(map[int32]string)
	for _, e := range entries {
		hostOf[e.Kernel] = e.Host
		if e.State == procmgmt.StateRunning {
			load[e.Host]++
		}
	}
	kernels := make([]int, 0, len(hostOf))
	for k := range hostOf {
		kernels = append(kernels, int(k))
	}
	sort.Ints(kernels)
	best, bestLoad := v.pe.ID(), int(^uint(0)>>1)
	for _, k := range kernels {
		if l := load[hostOf[int32(k)]]; l < bestLoad {
			best, bestLoad = k, l
		}
	}
	return best
}

// PeerStatus reports one kernel's liveness as seen from this PE.
type PeerStatus struct {
	Kernel int
	Alive  bool
	RTT    sim.Duration // valid only when Alive
	// Gen is the cluster view generation the answering peer serves under:
	// 0 for the original incarnation, N after the Nth checkpoint recovery.
	// Valid only when Alive.
	Gen uint64
	// Recovered marks a peer that rejoined through checkpoint/restart
	// recovery (Gen > 0) rather than surviving uninterrupted.
	Recovered bool
	// Left marks a peer that voluntarily left the membership (PE.Leave):
	// its blocks were re-homed and it serves no global memory, but the
	// kernel is still running — a planned departure, not a failure.
	Left bool
	// LeftGen is the membership generation of the leave transition.
	// Valid only when Left.
	LeftGen uint64
}

// String renders one probe result, e.g. "kernel 2: alive rtt=1.2ms
// recovered(gen=1)" for a peer that rejoined after a recovery, or
// "kernel 2: left(gen=3)" for one that departed voluntarily — rendered
// distinctly from "down" so operators can tell planned shrink from failure.
func (s PeerStatus) String() string {
	if s.Left {
		return fmt.Sprintf("kernel %d: left(gen=%d)", s.Kernel, s.LeftGen)
	}
	if !s.Alive {
		return fmt.Sprintf("kernel %d: down", s.Kernel)
	}
	if s.Recovered {
		return fmt.Sprintf("kernel %d: alive rtt=%v recovered(gen=%d)", s.Kernel, s.RTT, s.Gen)
	}
	return fmt.Sprintf("kernel %d: alive rtt=%v", s.Kernel, s.RTT)
}

// ProbePeers pings every other kernel and reports which answered — a
// simple SSI liveness sweep. The cluster must be configured with a
// core.Config.RequestTimeout, otherwise an undetected dead peer would block
// the probe forever. A peer the transport's failure detector has already
// declared dead fails immediately (core.PeerDownError) without waiting out
// the timeout.
//
// A peer that died and was brought back by checkpoint recovery
// (core.RunWithRecovery) answers probes again in the restarted incarnation:
// the probe result carries the new view generation instead of reporting the
// peer dead forever. Clusters restart as a unit, so an answering peer's
// generation is the prober's own.
// A peer that voluntarily left the membership (PE.Leave) is reported with
// Left set and the generation of its departure; it typically still answers
// probes (left kernels keep running as clients) but no longer serves global
// memory.
func (v *View) ProbePeers() []PeerStatus {
	gen := v.pe.ViewGeneration()
	members := v.pe.Members()
	out := make([]PeerStatus, 0, v.pe.N()-1)
	for k := 0; k < v.pe.N(); k++ {
		if k == v.pe.ID() {
			continue
		}
		st := PeerStatus{Kernel: k}
		if k < len(members) && members[k].State == gmem.MemberLeft {
			st.Left = true
			st.LeftGen = members[k].Gen
		}
		if rtt, err := v.pe.PingErr(k); err == nil {
			st.Alive = true
			st.RTT = rtt
			st.Gen = gen
			st.Recovered = gen > 0
		}
		out = append(out, st)
	}
	return out
}

// HealthReport summarises cluster liveness from one PE's vantage point
// over several probe rounds — the SSI operator's "is the machine healthy"
// answer, with a latency distribution instead of a single sample.
type HealthReport struct {
	// Peers is the last round's per-peer status. A peer is Alive when it
	// answered the final round's probe.
	Peers []PeerStatus
	// Rounds is how many probe sweeps ran.
	Rounds int
	// ProbeRTT aggregates every successful probe's round trip across all
	// rounds and peers.
	ProbeRTT trace.Histogram
	// Failures counts probes that went unanswered across all rounds.
	// Peers that voluntarily left the membership are never counted here:
	// a planned departure is not an availability failure.
	Failures int
	// LeftPeers counts peers in the final round that had voluntarily left
	// the membership (see PeerStatus.Left).
	LeftPeers int
	// Generation is the cluster view generation the report was taken
	// under: 0 for the original incarnation, N after the Nth checkpoint
	// recovery (see core.RunWithRecovery).
	Generation uint64
}

// AllAlive reports whether every peer answered the final probe round.
// Peers that voluntarily left the membership are skipped: a planned
// departure does not make the cluster unhealthy.
func (r *HealthReport) AllAlive() bool {
	for i := range r.Peers {
		if !r.Peers[i].Alive && !r.Peers[i].Left {
			return false
		}
	}
	return true
}

// Health probes every peer rounds times (at least once) and aggregates the
// results. Like ProbePeers it needs core.Config.RequestTimeout configured to
// bound probes of silently-dead peers.
func (v *View) Health(rounds int) *HealthReport {
	if rounds < 1 {
		rounds = 1
	}
	rep := &HealthReport{Rounds: rounds, Generation: v.pe.ViewGeneration()}
	for r := 0; r < rounds; r++ {
		peers := v.ProbePeers()
		for i := range peers {
			switch {
			case peers[i].Alive:
				rep.ProbeRTT.Observe(peers[i].RTT)
			case peers[i].Left:
				// Voluntary leave: not an availability failure.
			default:
				rep.Failures++
			}
		}
		if r == rounds-1 {
			rep.Peers = peers
		}
	}
	for i := range rep.Peers {
		if rep.Peers[i].Left {
			rep.LeftPeers++
		}
	}
	return rep
}

// Registry is a cluster-global name service: any PE can publish a 64-bit
// value under a string name and any other PE can look it up — typically a
// global-memory base address, giving applications location-transparent
// naming of shared structures.
//
// All PEs must construct the Registry at the same point in their allocation
// sequence (it reserves global memory deterministically).
type Registry struct {
	pe     *core.PE
	base   uint64
	cap    int
	lockID int32
}

// slotWords is the per-entry layout: [hash, value].
const slotWords = 2

// registryLockID is the cluster lock protecting every Registry; distinct
// registries share it (publishes are rare).
const registryLockID int32 = 1<<30 - 1

// NewRegistry reserves capacity naming slots in global memory.
func NewRegistry(pe *core.PE, capacity int) *Registry {
	if capacity <= 0 {
		capacity = 64
	}
	return &Registry{
		pe:     pe,
		base:   pe.AllocBlocks(capacity * slotWords),
		cap:    capacity,
		lockID: registryLockID,
	}
}

// fnv1a hashes a name to a non-zero 64-bit key (zero marks an empty slot).
func fnv1a(name string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return int64(h)
}

// Publish stores value under name. Republishing a name overwrites it.
// It fails when the registry is full.
func (r *Registry) Publish(name string, value int64) error {
	key := fnv1a(name)
	r.pe.Lock(r.lockID)
	defer r.pe.Unlock(r.lockID)
	for i := 0; i < r.cap; i++ {
		slot := r.base + uint64(i*slotWords)
		h := r.pe.GMRead(slot)
		if h == 0 || h == key {
			r.pe.GMWrite(slot+1, value)
			r.pe.GMWrite(slot, key)
			return nil
		}
	}
	return fmt.Errorf("ssi: registry full (%d names)", r.cap)
}

// Lookup retrieves the value published under name.
func (r *Registry) Lookup(name string) (int64, bool) {
	key := fnv1a(name)
	for i := 0; i < r.cap; i++ {
		slot := r.base + uint64(i*slotWords)
		h := r.pe.GMRead(slot)
		if h == 0 {
			return 0, false
		}
		if h == key {
			return r.pe.GMRead(slot + 1), true
		}
	}
	return 0, false
}
