package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/ethernet"
	"repro/internal/gmem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/internal/transport/simnet"
	"repro/internal/transport/tcpnet"
)

// TransportKind selects the message substrate.
type TransportKind string

// Available transports.
const (
	TransportSim    TransportKind = "simnet" // simulated Ethernet + platform models (default)
	TransportInproc TransportKind = "inproc" // in-process channels, no cost model
	TransportTCP    TransportKind = "tcp"    // real loopback TCP sockets
)

// BarrierKind selects the barrier implementation.
type BarrierKind int

// Barrier flavours.
const (
	BarrierCentral BarrierKind = iota // central manager at kernel 0 (DSE default)
	BarrierTree                       // distributed combining tree (ablation)
)

func (b BarrierKind) String() string {
	if b == BarrierTree {
		return "tree"
	}
	return "central"
}

// Config assembles a DSE cluster.
type Config struct {
	// NumPE is the number of processor elements (DSE kernels).
	NumPE int
	// Platform selects the Table 1 environment; required for TransportSim.
	Platform *platform.Platform
	// Transport defaults to TransportSim.
	Transport TransportKind
	// Load selects the virtual-cluster co-location model.
	Load platform.LoadModel
	// Seed drives all simulator randomness.
	Seed uint64
	// GMBlockWords is the DSM block size in 64-bit words (0 = default 32).
	GMBlockWords int
	// Switched replaces the shared-bus Ethernet with a switched network
	// (ablation of the medium; simulated transport only).
	Switched bool
	// Legacy models the paper's *old* DSE organisation — DSE kernel and
	// DSE process as separate UNIX processes — by charging an IPC round
	// trip on every Parallel-API kernel interaction. The default (false)
	// is the paper's reorganised single-process design.
	Legacy bool
	// Barrier selects the barrier implementation.
	Barrier BarrierKind
	// RequestTimeout bounds every remote request; 0 waits forever.
	// Recommended for TransportTCP so node failures surface as errors.
	RequestTimeout sim.Duration
	// RequestRetries is how many times a timed-out request is retransmitted
	// before the timeout is surfaced (0 = no retries) — any request: a
	// scalar operation's, each per-home request of a block, gather or
	// scatter, a flush's, a control-plane call's. Retried mutating operations
	// are applied exactly once: the home kernel's dedup window absorbs
	// duplicates. Requires RequestTimeout > 0 to have any effect. The pause
	// before the first retransmission is RequestTimeout/4, doubling per
	// attempt up to 8x.
	RequestRetries int
	// PeerLossBudget enables peer-failure detection on the simulated
	// transport: after this many consecutive undelivered frames to one
	// kernel, that kernel is declared dead and requests against it fail
	// immediately with PeerDownError. 0 disables detection. (The TCP
	// transport detects failures from broken connections and needs no
	// budget.)
	PeerLossBudget int
	// LossProbability injects frame loss on the simulated medium (failure
	// injection; combine with RequestTimeout so lost requests surface as
	// errors instead of hanging the virtual cluster).
	LossProbability float64
	// Tracing enables request span tracing: every request round trip,
	// synchronisation wait and kernel service event is recorded into a
	// fixed-size per-context ring buffer and surfaced as Result.Spans,
	// exportable with trace.WriteChromeTrace. Enabled, it
	// also makes every PE time every round trip (DESIGN.md §8). The zero
	// value is disabled and costs one nil pointer check per request.
	Tracing trace.TracingConfig
	// LiveRTT, when non-nil, additionally receives every request
	// round-trip latency any PE observes; with it attached a PE times every
	// round trip, inproc's included (DESIGN.md §8). trace.Histogram is safe for
	// parallel Observe and concurrent reads, so a live exporter (e.g.
	// dsenode's /metrics endpoint) may aggregate it while kernels still
	// run — the one PEStats surface with that guarantee.
	LiveRTT *trace.Histogram
	// RecordHistory enables the operation-history recorder: every
	// global-memory operation, lock and barrier is logged with its
	// invocation/response interval and surfaced as Result.History for
	// check.Check to validate against the memory model. Off, it costs one
	// nil pointer check per operation (the Config.Tracing pattern).
	RecordHistory bool
	// DelayJitter adds a uniformly distributed extra delay in [0,
	// DelayJitter) to every frame received on the simulated transport —
	// fault-schedule injection for the stress harness (deterministic: drawn
	// from a per-node rng forked off the engine seed).
	DelayJitter sim.Duration
	// Kills schedules mid-run kernel deaths on the simulated transport
	// (fault-schedule injection; see simnet.Kill).
	Kills []simnet.Kill
	// Ckpt enables the coordinated checkpoint/restart subsystem: programs
	// may call pe.Checkpoint() to take cluster-wide snapshots into this
	// store (e.g. a ckpt.DirStore), and RunWithRecovery restarts a cluster
	// from the last complete snapshot generation after a PE death. Nil
	// disables checkpointing entirely (pe.Checkpoint becomes a no-op and the
	// hot path is untouched).
	Ckpt ckpt.Store
	// Fault is a TEST-ONLY protocol fault (NoFault, the zero value, outside
	// tests): it exists to prove the history checker can fail, so a run with
	// one set must produce violations.
	Fault Fault
	// KernelShards is how many requesters of one home may be served in
	// parallel on inproc, the one transport where a requester serves its own
	// request (the sender, Kernel.serveOnSender): each kernel's home-side
	// global-memory service is split into that many monitors, and requester i
	// is served under shard i mod KernelShards, with that shard's dedup window
	// (see kernelShard). 0 resolves to GOMAXPROCS;
	// values are clamped to [1, gmem.SegStripes]. On simnet and tcpnet the
	// serve loop serves one request at a time, so every kernel there builds
	// exactly one monitor whatever KernelShards says (servingModel). No
	// message names a shard, so homes with different counts interoperate.
	KernelShards int
	// DirectReads is the one switch for the paths in place: a PE reads,
	// writes, fetch-adds, CASes and moves ranges of a co-located home's words
	// straight in that home's segment, without a
	// request/reply message pair — reads under the segment's seqlock, stores
	// under the stripe lock that also orders the home's migrations (DESIGN.md
	// §12). 0 takes the transport's default (servingModel): on for inproc, off
	// for simnet, whose figures and digests model message costs; >0 turns the
	// paths on where the segments are co-located (inproc, simnet); <0 pins the
	// message path. Never on over TCP or with Legacy (the old organisation has
	// no shared address space).
	DirectReads int
	// Deprecated: this field has no effect; DirectReads alone switches the
	// paths in place, mutations included. It is kept only so configurations
	// that still set it compile.
	WriteRings int
	// LatentPEs starts the highest LatentPEs ranks outside the active
	// membership: their kernels home no global-memory blocks (the probe rule
	// skips latent members) and their PEs act as pure clients until they call
	// pe.Join(), which hands them their directory slice live — the elastic
	// membership extension. Latent PEs still run the program and participate
	// in barriers. Must leave at least one active rank.
	LatentPEs int
	// GMDefaultMode is the consistency tier of allocations that do not pick
	// one explicitly (pe.Alloc/AllocBlocks); pe.AllocMode selects a tier per
	// allocation. The zero value is gmem.ModeStrong — the paper's home-based
	// strong coherence — so existing programs are unaffected. See DESIGN.md
	// §14 for the mode lattice.
	GMDefaultMode gmem.Mode
	// LeaseDuration is the validity window granted with every lease-mode
	// block fetch (0 = 1ms). Longer leases skip more round trips to the home
	// and admit proportionally more staleness; the checker bounds each read by
	// its lease's grant-to-expiry window.
	LeaseDuration sim.Duration

	// Inspect, when non-nil, receives a post-shutdown residue report before
	// Run returns — the leak oracle scheduler tests assert on: a clean run
	// leaves no user mailboxes, namespace bindings, parked synchronisation
	// waiters or namespace blocks behind.
	Inspect func(Residue)

	// testInspect, when non-nil, is called with the cluster's kernels and
	// PEs after shutdown but before Run returns — a white-box hook for
	// package-internal tests (e.g. asserting the user-queue map drained).
	testInspect func([]*Kernel, []*PE)
	// pause is how long a PE waits before it chases a migrating home again
	// or asks again for a busy membership slot; resolved by servingModel.
	pause sim.Duration
	// recorder fans out per-PE history recorders; created by withDefaults
	// when RecordHistory is set.
	recorder *check.Recorder
	// restore carries the decoded snapshot a recovering cluster starts from;
	// set by RunWithRecovery between attempts.
	restore *restoreState
}

// Fault names a TEST-ONLY protocol fault (Config.Fault).
type Fault uint8

const (
	NoFault Fault = iota // every run outside tests
	// FaultDropWrites: home kernels acknowledge a write or vectored write
	// that arrives as a message without storing it, so later reads return
	// the old words — a run with message-path writes must produce stale-read
	// violations.
	FaultDropWrites
	// FaultSkipReleaseFlush: synchronisation edges discard the
	// write-combining buffer instead of flushing it, so release-mode writes
	// never reach their homes — a run with release-mode traffic must produce
	// release violations.
	FaultSkipReleaseFlush
	// FaultIgnoreLeaseExpiry: PEs keep serving reads from leases past their
	// expiry — a run with lease-mode traffic must produce lease-overstay
	// violations.
	FaultIgnoreLeaseExpiry
)

var faultNames = [...]string{"none", "drop-writes", "skip-release-flush", "ignore-lease-expiry"}

func (f Fault) String() string {
	if int(f) < len(faultNames) {
		return faultNames[f]
	}
	return fmt.Sprintf("Fault(%d)", uint8(f))
}

func (cfg *Config) withDefaults() (Config, error) {
	c := *cfg
	if c.NumPE <= 0 {
		return c, errors.New("core: NumPE must be positive")
	}
	if c.Transport == "" {
		c.Transport = TransportSim
	}
	if c.Transport == TransportSim && c.Platform == nil {
		return c, errors.New("core: simulated transport requires a Platform")
	}
	if c.GMBlockWords == 0 {
		c.GMBlockWords = 32
	}
	servingModel(&c)
	if c.Transport == TransportInproc && c.NumPE > transport.DefaultDepth/2 {
		// On inproc a PE serves its own requests, so it is the one that puts
		// the replies into its reply mailbox — all of a range transfer's
		// (one per home) before it takes the first. A mailbox that filled up
		// would block the only goroutine that could empty it.
		return c, fmt.Errorf("core: NumPE %d requests in flight would overrun a PE's reply mailbox (depth %d)",
			c.NumPE, transport.DefaultDepth)
	}
	if c.LatentPEs < 0 || c.LatentPEs >= c.NumPE {
		return c, errors.New("core: LatentPEs must leave at least one active PE")
	}
	if c.LeaseDuration == 0 {
		c.LeaseDuration = sim.Millisecond
	}
	if c.RecordHistory {
		c.recorder = check.NewRecorder(c.NumPE)
	}
	if c.recorder != nil && c.restore != nil {
		// Restored words have no writer event in this run's history; feed
		// them to the checker as the pre-history baseline.
		c.restore.feedBaseline(c.recorder, c.GMBlockWords)
	}
	return c, nil
}

// Result reports a cluster run.
type Result struct {
	// Elapsed is the end-to-end execution time: virtual time under
	// simulation, wall time on real transports.
	Elapsed sim.Duration
	// PerPE holds each PE's merged counters.
	PerPE []trace.PEStats
	// Total sums PerPE.
	Total trace.PEStats
	// Bus carries medium statistics (simulated transport only).
	Bus ethernet.Stats
	// Spans holds every recorded request/service span across all PEs,
	// sorted by start time (empty unless Config.Tracing.Enabled). Export
	// with trace.WriteChromeTrace.
	Spans []trace.Span
	// Errs holds each PE's program error (nil entries for success).
	Errs []error
	// History is the merged operation history (nil unless
	// Config.RecordHistory); validate it with check.Check.
	History *check.History
	// DeadPeers lists the PEs a majority of kernels declared dead during the
	// run, sorted ascending. The majority vote matters: a killed node's own
	// sends all fail, so it falsely accuses every survivor — only a peer a
	// quorum agrees on is genuinely gone. Unambiguous with NumPE >= 3.
	DeadPeers []int
}

// WriteChromeTrace exports the run's spans in Chrome trace_event format
// (openable in chrome://tracing or Perfetto). It fails when the run was not
// traced.
func (r *Result) WriteChromeTrace(w io.Writer) error {
	if len(r.Spans) == 0 {
		return errors.New("core: no spans recorded (enable Config.Tracing)")
	}
	return trace.WriteChromeTrace(w, r.Spans)
}

// FirstErr returns the lowest-PE error, or nil.
func (r *Result) FirstErr() error {
	for _, err := range r.Errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Program is an SPMD application body: it runs once per PE.
type Program func(pe *PE) error

// Run executes program on a freshly built cluster and returns its result.
// It blocks until every PE finishes.
func Run(cfg Config, program Program) (*Result, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	switch c.Transport {
	case TransportSim:
		return runSim(&c, program)
	case TransportInproc:
		net := inproc.New(c.NumPE)
		defer net.Stop()
		return runReal(&c, net, program)
	case TransportTCP:
		net, err := tcpnet.NewLocal(c.NumPE)
		if err != nil {
			return nil, err
		}
		defer net.Stop()
		return runReal(&c, net, program)
	default:
		return nil, fmt.Errorf("core: unknown transport %q", c.Transport)
	}
}

// servingModel resolves, from the transport, how each kernel serves the
// requesters of its home — the one place that decides it (DESIGN.md §12):
//
//	transport  monitors per kernel           who serves    in place by default          pause            round trips timed
//	inproc     KernelShards (0 = GOMAXPROCS) the sender    on                           100 ms (100 µs)  1 in inprocTimeEvery
//	simnet     1                             serve loop    off (on if DirectReads > 0)  1<<16 ns         every one
//	tcpnet     1                             serve loop    never                        1<<16 ns         every one
//
// Only where the sender serves can one home serve two requesters at once,
// so only inproc has more than one monitor. simnet keeps its figures and
// digests on modelled message costs unless asked; tcpnet's nodes stand for
// separate hosts even when a test runs them in one process. It leaves
// KernelShards at the monitor count every kernel builds and DirectReads at
// 1 where the paths in place are on, else -1. The pause is what a PE sleeps
// before it chases a migrating home again or asks again for a busy
// membership slot, RequestTimeout/4 whenever a timeout is set. inproc sleeps
// a thousandth of what it is asked (in brackets), and a chase there is two
// inline services, so a shorter pause is over before the handoff it waits
// for lands. The last column is timingMask's, which each PE reads as it is
// built.
func servingModel(c *Config) {
	monitors, inPlace := 1, c.DirectReads > 0
	c.pause = 1 << 16
	switch c.Transport {
	case TransportInproc:
		c.pause = 100 * sim.Millisecond
		monitors = c.KernelShards
		if monitors == 0 {
			monitors = runtime.GOMAXPROCS(0)
		}
		// No more monitors than the segment has stripes: a bound on what
		// each kernel builds, not a condition of correctness.
		monitors = min(max(monitors, 1), gmem.SegStripes)
		inPlace = c.DirectReads >= 0
	case TransportTCP:
		inPlace = false
	}
	c.KernelShards, c.DirectReads = monitors, -1
	if inPlace && !c.Legacy {
		c.DirectReads = 1
	}
	if c.RequestTimeout > 0 {
		c.pause = c.RequestTimeout / 4
	}
}

// inprocTimeEvery is how many round trips of one op kind an inproc PE makes
// per timed one (DESIGN.md §8). There three clock reads and two histogram
// updates were about a third of an inline-served round trip; 16 is the
// period measured (EXPERIMENTS.md, "What an inline round trip pays for its
// own measurement"). A power of two: the choice is a mask, not a division.
const inprocTimeEvery = 16

// timingMask is servingModel's last column as the mask PE.timing applies to
// an op kind's event count: inproc times one round trip in inprocTimeEvery,
// simnet (whose clock is virtual and printed by the latency golden) and
// tcpnet (where the clock is under 1 % of a round trip) time every one.
func timingMask(t TransportKind) uint64 {
	if t == TransportInproc {
		return inprocTimeEvery - 1
	}
	return 0
}

// newCluster builds one kernel and its PE on each node of a network. Where
// the serving model turned the paths in place on, it hands every kernel the
// co-located segments its PE may access in place (PE.inPlace). Run builds a
// cluster on every (re)start, so a recovered cluster's fresh segments are
// bound before any PE runs.
func newCluster(cfg *Config, node func(i int) transport.Node) ([]*Kernel, []*PE) {
	kernels, pes := make([]*Kernel, cfg.NumPE), make([]*PE, cfg.NumPE)
	for i := range kernels {
		kernels[i] = newKernel(i, node(i), cfg)
		pes[i] = newPE(kernels[i])
	}
	if cfg.DirectReads > 0 {
		for _, k := range kernels {
			for i, h := range kernels {
				if i != k.id {
					k.peers[i].seg, k.peers[i].ns = h.seg, h.ns
				}
			}
		}
	}
	return kernels, pes
}

// shutdownBarrierID is the reserved barrier RunOn nodes meet at before
// tearing down their kernels, so no kernel stops serving while peers still
// need it. Application code must not use this id.
const shutdownBarrierID int32 = -0x7fffffff

// RunOn drives one node of a multi-process cluster (every process calls
// RunOn with its own transport node, e.g. from tcpnet.Open). It blocks
// until the local program finishes and every peer has reached the final
// shutdown barrier. cfg.NumPE is taken from the node.
func RunOn(cfg Config, node transport.Node, program Program) (*Result, error) {
	cfg.NumPE = node.N()
	if cfg.Transport == "" || cfg.Transport == TransportSim {
		cfg.Transport = TransportTCP // cost-model-free semantics
	}
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	k := newKernel(node.ID(), node, &c)
	pe := newPE(k)
	done := make(chan struct{})
	go func() {
		defer close(done)
		k.serve()
	}()
	perr := runPE(pe, program)
	// Final rendezvous after runPE (which deregisters with kernel 0): every
	// kernel keeps serving until all peers are done with it.
	if err := pe.syncWait(verbBarrier, shutdownBarrierID, 0); err != nil && perr == nil {
		perr = fmt.Errorf("core: node %d: shutdown barrier: %w", node.ID(), err)
	}
	node.CloseRecv()
	<-done
	res := &Result{Elapsed: pe.app.Now(), Errs: []error{perr}}
	collectStats(res, []*Kernel{k}, []*PE{pe})
	if c.recorder != nil {
		res.History = c.recorder.History()
	}
	return res, nil
}

// runPE wraps one PE's program with registration, exit and panic recovery.
// Under tracing it records the PE's run span — the top-level interval every
// request/wait span nests inside, which is what lets a Chrome trace account
// for the whole measured wall time.
func runPE(pe *PE, program Program) (err error) {
	start := pe.app.Now()
	defer func() {
		if r := recover(); r != nil {
			if perr, ok := r.(error); ok {
				// Keep the error type (e.g. *PeerDownError) visible through
				// errors.As for callers that classify failures.
				err = fmt.Errorf("PE %d panicked: %w", pe.k.id, perr)
			} else {
				err = fmt.Errorf("PE %d panicked: %v", pe.k.id, r)
			}
		}
		if pe.spans != nil {
			pe.spans.Record(trace.Span{
				Kind: trace.SpanRun, PE: int32(pe.k.id),
				Start: start, End: pe.app.Now(),
			})
		}
	}()
	if err := pe.register(); err != nil {
		return fmt.Errorf("PE %d: register: %w", pe.k.id, err)
	}
	err = program(pe)
	code := int64(0)
	if err != nil {
		code = 1
	}
	// The program's own error is the one to report: an exit that fails
	// after it (kernel 0 gone) says less about what went wrong.
	if xerr := pe.exit(code); xerr != nil && err == nil {
		err = fmt.Errorf("PE %d: exit: %w", pe.k.id, xerr)
	}
	return err
}

// runSim drives the cluster on the simulated transport: one service process
// (the DSE kernel) and one application process (the DSE process) per node,
// all inside one deterministic engine.
func runSim(cfg *Config, program Program) (*Result, error) {
	net := simnet.New(simnet.Config{
		NumPE:       cfg.NumPE,
		Platform:    cfg.Platform,
		Load:        cfg.Load,
		Seed:        cfg.Seed,
		Switched:    cfg.Switched,
		LossBudget:  cfg.PeerLossBudget,
		DelayJitter: cfg.DelayJitter,
		Kills:       cfg.Kills,
	})
	if cfg.LossProbability > 0 {
		net.Medium().SetLossProbability(cfg.LossProbability)
	}
	eng := net.Engine()
	n := cfg.NumPE
	kernels, pes := newCluster(cfg, net.Node)
	errs := make([]error, n)
	var finish sim.Time
	remaining := n
	for i := 0; i < n; i++ {
		i := i
		nd := net.SimNode(i)
		eng.Spawn(fmt.Sprintf("dse-kernel-%d", i), func(p *sim.Proc) {
			nd.BindSvc(p)
			kernels[i].serve()
		})
	}
	for i := 0; i < n; i++ {
		i := i
		nd := net.SimNode(i)
		eng.Spawn(fmt.Sprintf("dse-process-%d", i), func(p *sim.Proc) {
			nd.BindApp(p)
			errs[i] = runPE(pes[i], program)
			if t := p.Now(); t > finish {
				finish = t
			}
			remaining--
			if remaining == 0 {
				net.Stop()
			}
		})
	}
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("core: simulation: %w", err)
	}
	return finishRun(cfg, &Result{Elapsed: finish, Errs: errs, Bus: net.Medium().Stats()}, kernels, pes), nil
}

// realNetwork is the common shape of the non-simulated transports.
type realNetwork interface {
	N() int
	Node(i int) transport.Node
	Stop()
}

// runReal drives the cluster on goroutines over a real transport.
func runReal(cfg *Config, net realNetwork, program Program) (*Result, error) {
	n := cfg.NumPE
	kernels, pes := newCluster(cfg, net.Node)
	errs := make([]error, n)
	var svcWG, appWG sync.WaitGroup
	var mu sync.Mutex
	var finish sim.Time
	for i := 0; i < n; i++ {
		i := i
		svcWG.Add(1)
		go func() {
			defer svcWG.Done()
			kernels[i].serve()
		}()
		appWG.Add(1)
		go func() {
			defer appWG.Done()
			errs[i] = runPE(pes[i], program)
			mu.Lock()
			if t := pes[i].app.Now(); t > finish {
				finish = t
			}
			mu.Unlock()
		}()
	}
	appWG.Wait()
	net.Stop()
	svcWG.Wait()
	return finishRun(cfg, &Result{Elapsed: finish, Errs: errs}, kernels, pes), nil
}

// finishRun completes the result of a whole-cluster run once every kernel
// and PE has quiesced: the merged statistics and the history, and then the
// residue census for Config.Inspect.
func finishRun(cfg *Config, res *Result, kernels []*Kernel, pes []*PE) *Result {
	collectStats(res, kernels, pes)
	if cfg.recorder != nil {
		res.History = cfg.recorder.History()
	}
	if cfg.Inspect != nil {
		cfg.Inspect(residueOf(kernels))
	}
	if cfg.testInspect != nil {
		cfg.testInspect(kernels, pes)
	}
	return res
}

// Residue is the post-shutdown state report delivered to Config.Inspect:
// whatever a clean run should have torn down. The scheduler's leak tests
// assert every field is zero after a full submit/run/teardown cycle.
type Residue struct {
	// UserQueues counts the user-message mailboxes still registered when the
	// serve loops exited, summed over all kernels.
	UserQueues int
	// NsBindings counts namespace bindings still installed, over all kernels.
	NsBindings int
	// BarrierPend counts arrivals parked in kernel 0's open barrier epochs.
	BarrierPend int
	// LockResidue counts held locks plus queued lock waiters at kernel 0.
	LockResidue int
	// BlocksIn reports how many blocks of the word region starting at base
	// and spanning nBlocks blocks are still materialised across all kernels'
	// segments — the GM-leak gauge for a freed job namespace.
	BlocksIn func(base uint64, nBlocks int) int
}

// residueOf collects the Residue report. Runs only after every kernel has
// quiesced (transports stopped), like collectStats.
func residueOf(kernels []*Kernel) Residue {
	r := Residue{}
	for _, k := range kernels {
		r.UserQueues += k.leftQueues
		r.NsBindings += k.ns.Len()
	}
	r.BarrierPend, r.LockResidue = kernels[0].sync.Residue()
	r.BlocksIn = func(base uint64, nBlocks int) int {
		total := 0
		for _, k := range kernels {
			total += k.seg.CountRange(k.space.BlockOf(base), uint64(nBlocks))
		}
		return total
	}
	return r
}

// collectStats merges per-kernel and per-PE counters into the result. It
// runs only after every kernel and PE has quiesced (transports stopped),
// which is what makes the PEStats.Add merges safe: the scalar counters are
// plain, and a per-op histogram's pointer is stored by its writer alone.
func collectStats(res *Result, kernels []*Kernel, pes []*PE) {
	res.PerPE = make([]trace.PEStats, len(kernels))
	for i := range kernels {
		// The hot path feeds only the per-op round-trip histograms; the
		// aggregate RTT is derived here, once the PE has quiesced.
		for _, h := range pes[i].extra.RTTByOp {
			if h != nil {
				pes[i].extra.RTT.Merge(h)
			}
		}
		s := &res.PerPE[i] // holds atomics and histogram pointers: summed in place, never copied
		s.Add(kernels[i].Stats())
		s.Add(&pes[i].extra)
		s.Add(&kernels[i].extra)
		for _, sh := range kernels[i].shards {
			sh.lock()
			s.Add(&sh.extra)
			if sh.spans != nil {
				res.Spans = append(res.Spans, sh.spans.Snapshot()...)
			}
			sh.unlock()
		}
		res.Total.Add(s)
		if pes[i].spans != nil {
			res.Spans = append(res.Spans, pes[i].spans.Snapshot()...)
		}
		if kernels[i].spans != nil {
			res.Spans = append(res.Spans, kernels[i].spans.Snapshot()...)
		}
	}
	sort.SliceStable(res.Spans, func(i, j int) bool {
		if res.Spans[i].Start != res.Spans[j].Start {
			return res.Spans[i].Start < res.Spans[j].Start
		}
		return res.Spans[i].PE < res.Spans[j].PE
	})
	// Majority vote over the kernels' dead-peer observations: see
	// Result.DeadPeers for why a single kernel's word is not enough.
	votes := make(map[int]int)
	for _, k := range kernels {
		for p := range k.peers {
			if k.peers[p].dead.Load() {
				votes[p]++
			}
		}
	}
	for p, v := range votes {
		if v > len(kernels)/2 {
			res.DeadPeers = append(res.DeadPeers, p)
		}
	}
	sort.Ints(res.DeadPeers)
}
