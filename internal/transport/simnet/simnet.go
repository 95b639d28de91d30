// Package simnet is the simulated transport: DSE kernels exchange encoded
// wire messages over the CSMA/CD Ethernet model, paying per-platform OS
// costs (system calls, protocol processing, interrupts, context switches)
// in virtual time. All paper experiments run on this transport.
package simnet

import (
	"fmt"
	"sync"

	"repro/internal/ethernet"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config assembles a simulated cluster.
type Config struct {
	NumPE    int
	Platform *platform.Platform
	Load     platform.LoadModel // virtual-cluster co-location model
	Seed     uint64
	Switched bool // switched Ethernet instead of the shared bus
	// LossBudget enables peer-failure detection on the shared bus: after
	// this many consecutive frames to one destination fail to reach a live
	// station (injected loss or a closed/killed station), that peer is
	// declared dead via the SetPeerDown callback. 0 disables detection.
	LossBudget int
	// DelayJitter adds a uniform [0, DelayJitter) receive-side delay per
	// frame, drawn from a per-node rng forked deterministically from the
	// engine seed. Shakes message orderings loose for the stress runner
	// without giving up replayability. 0 disables.
	DelayJitter sim.Duration
	// Kills schedules station failures: each entry closes one node's NIC at
	// the given virtual time, silently dropping all frames to and from it
	// from then on (peers discover the death via LossBudget).
	Kills []Kill
}

// Kill is one scheduled node failure in a fault schedule.
type Kill struct {
	Node int
	At   sim.Duration
}

// Net is a simulated cluster: engine + medium + one Node per DSE kernel.
type Net struct {
	eng    *sim.Engine
	medium ethernet.Medium
	pl     *platform.Platform
	layout platform.Layout
	nodes  []*Node
}

// New builds the cluster. The caller spawns kernel/app processes, binds
// them to the nodes, and then runs the engine.
func New(cfg Config) *Net {
	if cfg.NumPE <= 0 {
		panic("simnet: NumPE must be positive")
	}
	if cfg.Platform == nil {
		panic("simnet: Platform required")
	}
	eng := sim.NewEngine(cfg.Seed)
	ecfg := ethernet.ConfigForBandwidth(cfg.Platform.NetBandwidthBps)
	var medium ethernet.Medium
	if cfg.Switched {
		medium = ethernet.NewSwitch(eng, ecfg)
	} else {
		medium = ethernet.NewBus(eng, ecfg)
	}
	n := &Net{
		eng:    eng,
		medium: medium,
		pl:     cfg.Platform,
		layout: platform.NewLayout(platform.PhysicalMachines, cfg.NumPE, cfg.Load),
	}
	for i := 0; i < cfg.NumPE; i++ {
		nd := &Node{
			net:        n,
			id:         i,
			station:    medium.AttachNIC(),
			load:       n.layout.LoadFactor(i),
			lossBudget: cfg.LossBudget,
			lossRun:    make([]int, cfg.NumPE),
			jitter:     cfg.DelayJitter,
		}
		if nd.jitter > 0 {
			// Forked in node order at construction, so jitter draws are a
			// pure function of (seed, node, frame sequence) — replayable.
			nd.rng = eng.Rand().Fork()
		}
		n.nodes = append(n.nodes, nd)
	}
	for _, kl := range cfg.Kills {
		st := n.nodes[kl.Node].station
		victim := kl.Node
		eng.At(sim.Time(kl.At), func() {
			st.Close()
			// Report the death to every other node's failure detector
			// directly: a node that never sends to the victim would
			// otherwise not detect it through the loss budget, and the
			// notifier's replay-on-registration delivers the report even to
			// nodes that register their callback after the kill fired — so
			// recovery is not order-dependent.
			for _, nd := range n.nodes {
				if nd.id != victim {
					nd.pd.Report(victim)
					continue
				}
				// The victim's side of the partition: every peer is now
				// unreachable. Without this, a victim parked in a blocking
				// wait (sending nothing, so never tripping its loss budget)
				// would sit in the simulation forever.
				for _, peer := range n.nodes {
					if peer.id != victim {
						nd.pd.Report(peer.id)
					}
				}
			}
		})
	}
	medium.Start()
	return n
}

// Engine returns the virtual-time engine driving the cluster.
func (n *Net) Engine() *sim.Engine { return n.eng }

// Medium returns the simulated LAN (for statistics and fault injection).
func (n *Net) Medium() ethernet.Medium { return n.medium }

// N returns the number of nodes.
func (n *Net) N() int { return len(n.nodes) }

// Node returns node i.
func (n *Net) Node(i int) transport.Node { return n.nodes[i] }

// SimNode returns the concrete node for binding processes.
func (n *Net) SimNode(i int) *Node { return n.nodes[i] }

// Stop closes the medium and unblocks all receivers, ending the run cleanly.
func (n *Net) Stop() {
	n.medium.Stop()
	for _, nd := range n.nodes {
		nd.CloseRecv()
	}
}

// Node is one simulated DSE kernel endpoint.
type Node struct {
	net     *Net
	id      int
	station ethernet.NIC
	load    float64
	stats   trace.PEStats

	// lossRun[dst] counts consecutive frames to dst the medium reported
	// undelivered; reaching lossBudget declares dst dead. Only touched from
	// simulated-process context, so no locking is needed.
	lossBudget int
	lossRun    []int
	pd         transport.PeerDownNotifier

	// Receive-side delay jitter (fault schedule); rng is nil when disabled.
	jitter sim.Duration
	rng    *sim.Rand

	appProc *sim.Proc
	svcProc *sim.Proc
}

var _ transport.Node = (*Node)(nil)

// BindApp attaches the DSE-process context to p. Must precede App() use.
func (nd *Node) BindApp(p *sim.Proc) { nd.appProc = p }

// BindSvc attaches the DSE-kernel context to p. Must precede Svc()/Recv use.
func (nd *Node) BindSvc(p *sim.Proc) { nd.svcProc = p }

// ID implements transport.Node.
func (nd *Node) ID() int { return nd.id }

// N implements transport.Node.
func (nd *Node) N() int { return len(nd.net.nodes) }

// Hostname implements transport.Node.
func (nd *Node) Hostname() string { return nd.net.layout.Hostname(nd.id) }

// Stats implements transport.Node.
func (nd *Node) Stats() *trace.PEStats { return &nd.stats }

// App implements transport.Node.
func (nd *Node) App() transport.Port { return &port{nd: nd, procp: &nd.appProc} }

// Svc implements transport.Node.
func (nd *Node) Svc() transport.Port { return &port{nd: nd, procp: &nd.svcProc} }

// Recv implements transport.Node: it blocks the Svc context on the NIC,
// skips continuation fragments, charges receive overhead and decodes.
func (nd *Node) Recv() (*wire.Message, bool) {
	p := nd.svcProc
	if p == nil {
		panic("simnet: Recv before BindSvc")
	}
	for {
		f, ok := nd.station.Recv(p)
		if !ok {
			return nil, false
		}
		if f.Payload == nil {
			continue // MTU continuation fragment; timing already charged on the bus
		}
		fr := f.Payload.(*frame)
		enc := fr.b
		oh := nd.scale(nd.net.pl.RecvOverhead(len(enc)))
		p.Sleep(oh)
		nd.stats.RecvOverhead += oh
		if nd.rng != nil {
			p.Sleep(sim.Duration(nd.rng.Intn(int(nd.jitter))))
		}
		m := wire.GetMessage()
		if err := wire.DecodeInto(m, enc); err != nil {
			panic(fmt.Sprintf("simnet: corrupt message from station %d: %v", f.Src, err))
		}
		framePool.Put(fr) // DecodeInto copied the payload out
		nd.stats.MsgsRecv++
		nd.stats.BytesRecv += uint64(len(enc))
		m.RecvAt = p.Now()
		return m, true
	}
}

// CloseRecv implements transport.Node.
func (nd *Node) CloseRecv() { nd.station.Close() }

// SetPeerDown implements transport.Node.
func (nd *Node) SetPeerDown(fn func(peer int)) { nd.pd.Set(fn) }

// NewMailbox implements transport.Node.
func (nd *Node) NewMailbox(capacity int) transport.Mailbox {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &mailbox{nd: nd, ch: sim.NewChan[*wire.Message](nd.net.eng, capacity)}
}

// scale applies the virtual-cluster load factor to a CPU cost.
func (nd *Node) scale(d sim.Duration) sim.Duration {
	if nd.load == 1 {
		return d
	}
	return sim.Duration(float64(d) * nd.load)
}

// port binds Port operations to whichever sim process owns the context.
// procp is resolved at call time so ports may be handed out before Bind.
type port struct {
	nd    *Node
	procp **sim.Proc
}

func (pt *port) proc() *sim.Proc {
	p := *pt.procp
	if p == nil {
		panic("simnet: port used before its context was bound")
	}
	return p
}

// frame is one encoded message in flight on the simulated LAN. The Ethernet
// model carries it by pointer, so it rides an interface without boxing;
// the receiving node's Recv returns it to framePool once decoded. Every
// simnet message is unicast, so exactly one Recv holds it. A frame the
// medium drops (injected loss, a killed station) is never returned and is
// left to the garbage collector.
type frame struct{ b []byte }

// framePool is shared by every simulated cluster in the process, as
// wire's message pool is.
var framePool = sync.Pool{New: func() any { return new(frame) }}

// Send implements transport.Port.
func (pt *port) Send(dst int, m *wire.Message) {
	nd := pt.nd
	p := pt.proc()
	fr := framePool.Get().(*frame)
	fr.b = m.Append(fr.b[:0])
	enc := fr.b
	oh := nd.scale(nd.net.pl.SendOverhead(len(enc)))
	p.Sleep(oh)
	nd.stats.SendOverhead += oh
	if dst == nd.id {
		// Own-node message: the paper's message exchange module short-cuts
		// messages destined to the local kernel past the wire (Fig. 3,
		// "response to message to own node"). Protocol cost was charged
		// above; delivery is immediate.
		if !nd.station.Inject(ethernet.Frame{Src: nd.id, Dst: nd.id, Size: len(enc), Payload: fr}) {
			if nd.station.Closed() {
				// Own station killed mid-op (scheduled fault): the message
				// dies with the node rather than overflowing a queue.
				return
			}
			panic("simnet: local receive queue overflow")
		}
		nd.stats.MsgsSent++
		nd.stats.BytesSent += uint64(len(enc))
		nd.stats.CountSent(m.Op, len(enc))
		return
	}
	delivered := nd.station.Send(p, dst, len(enc), fr)
	nd.stats.MsgsSent++
	nd.stats.BytesSent += uint64(len(enc))
	nd.stats.CountSent(m.Op, len(enc))
	if nd.lossBudget > 0 && dst >= 0 && dst < len(nd.lossRun) {
		if delivered {
			nd.lossRun[dst] = 0
		} else {
			nd.lossRun[dst]++
			if nd.lossRun[dst] >= nd.lossBudget {
				nd.pd.Report(dst)
			}
		}
	}
}

// Compute implements transport.Port.
func (pt *port) Compute(ops float64) {
	nd := pt.nd
	d := nd.scale(nd.net.pl.ComputeTime(ops))
	if d <= 0 {
		return
	}
	pt.proc().Sleep(d)
	nd.stats.ComputeTime += d
}

// Sleep implements transport.Port.
func (pt *port) Sleep(d sim.Duration) { pt.proc().Sleep(d) }

// LocalAccess implements transport.Port.
func (pt *port) LocalAccess() { pt.proc().Sleep(pt.nd.scale(pt.nd.net.pl.LocalGMAccess)) }

// LegacyIPC implements transport.Port: two IPC boundary crossings (call
// and return between the separate kernel and application processes).
func (pt *port) LegacyIPC() { pt.proc().Sleep(pt.nd.scale(2 * pt.nd.net.pl.IPCCost)) }

// Now implements transport.Port.
func (pt *port) Now() sim.Time { return pt.nd.net.eng.Now() }

// mailbox is a sim-channel-backed reply queue.
type mailbox struct {
	nd *Node
	ch *sim.Chan[*wire.Message]
}

func (mb *mailbox) Put(m *wire.Message) {
	if !mb.ch.TrySend(m) {
		if mb.ch.Closed() {
			return // racing a shutdown: the taker is gone, drop quietly
		}
		panic("simnet: mailbox overflow")
	}
}

func (mb *mailbox) Take() (*wire.Message, bool) {
	p := mb.nd.appProc
	if p == nil {
		panic("simnet: mailbox Take before BindApp")
	}
	return mb.ch.Recv(p)
}

func (mb *mailbox) TakeTimeout(d sim.Duration) (*wire.Message, bool, bool) {
	p := mb.nd.appProc
	if p == nil {
		panic("simnet: mailbox Take before BindApp")
	}
	return mb.ch.RecvTimeout(p, d)
}

func (mb *mailbox) Close() { mb.ch.Close() }
