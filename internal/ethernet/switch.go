package ethernet

import (
	"fmt"

	"repro/internal/sim"
)

// NIC is the station-side interface shared by the bus and the switch, so
// the simulated transport can run over either medium.
type NIC interface {
	// ID is the station's address on the medium.
	ID() int
	// Send fragments and transmits, blocking until the last fragment has
	// left the station. It reports whether the medium accepted every
	// fragment for delivery; on the bus a false return means the frame was
	// lost (injected loss or a closed destination), which transports use
	// for consecutive-loss peer-failure detection. The switch decides loss
	// asynchronously at the egress port, so it reports only enqueue
	// failures.
	Send(p *sim.Proc, dst, size int, payload interface{}) bool
	// Recv blocks for the next frame; ok=false after Close.
	Recv(p *sim.Proc) (Frame, bool)
	// TryRecv polls without blocking.
	TryRecv() (Frame, bool)
	// Inject bypasses the medium (own-node delivery).
	Inject(f Frame) bool
	// Close wakes blocked receivers.
	Close()
	// Closed reports whether Close has been called (the station was shut
	// down or killed by a fault schedule).
	Closed() bool
}

// Medium is a network that stations attach to.
type Medium interface {
	AttachNIC() NIC
	Start()
	Stop()
	Stats() Stats
	SetLossProbability(p float64)
}

var (
	_ Medium = (*Bus)(nil)
	_ Medium = (*Switch)(nil)
)

// Switch is a store-and-forward switched Ethernet: every station has a
// private full-duplex link to a switch port, so there are no collisions
// and disjoint flows do not contend; only frames converging on the same
// output port queue. This is the "raw performance of high-speed networks"
// the paper's modular reorganisation aims to exploit; the ablation
// benchmarks compare it against the shared bus.
type Switch struct {
	eng      *sim.Engine
	cfg      Config
	rng      *sim.Rand
	ports    []*swPort
	stats    Stats
	started  bool
	lossProb float64
}

// swReq is one frame queued for an output port.
type swReq struct {
	frame Frame
}

// swPort is one switch port plus its attached station.
type swPort struct {
	sw     *Switch
	id     int
	rx     *sim.Chan[Frame]
	egress *sim.Chan[swReq]
}

// NewSwitch creates a switch on the engine with the given link parameters
// (BandwidthBps is the per-link rate; SlotTime/backoff fields are unused).
func NewSwitch(e *sim.Engine, cfg Config) *Switch {
	return &Switch{
		eng: e,
		cfg: cfg,
		rng: e.Rand().Fork(),
	}
}

// SetLossProbability implements Medium (failure injection).
func (sw *Switch) SetLossProbability(p float64) { sw.lossProb = p }

// Stats implements Medium.
func (sw *Switch) Stats() Stats { return sw.stats }

// AttachNIC implements Medium.
func (sw *Switch) AttachNIC() NIC {
	if sw.started {
		panic("ethernet: Attach after Start")
	}
	p := &swPort{
		sw:     sw,
		id:     len(sw.ports),
		rx:     sim.NewChan[Frame](sw.eng, sw.cfg.RxQueue),
		egress: sim.NewChan[swReq](sw.eng, 1<<16),
	}
	sw.ports = append(sw.ports, p)
	return p
}

// Start implements Medium: one egress process per port serialises the
// frames converging on that station.
func (sw *Switch) Start() {
	if sw.started {
		return
	}
	sw.started = true
	for _, p := range sw.ports {
		p := p
		sw.eng.Spawn(fmt.Sprintf("switch-egress-%d", p.id), func(proc *sim.Proc) {
			for {
				req, ok := p.egress.Recv(proc)
				if !ok {
					return
				}
				tx := sw.cfg.frameTime(req.frame.Size)
				proc.Sleep(tx)
				sw.stats.Frames++
				sw.stats.PayloadBytes += uint64(req.frame.Size)
				sw.stats.WireBytes += uint64(sw.cfg.wireBytes(req.frame.Size))
				sw.stats.BusyTime += tx
				if sw.lossProb > 0 && sw.rng.Float64() < sw.lossProb {
					sw.stats.Drops++
					continue
				}
				f := req.frame
				at := proc.Now() + sw.cfg.PropDelay
				sw.eng.At(at, func() {
					if !p.rx.TrySend(f) {
						sw.stats.Drops++
					}
				})
			}
		})
	}
}

// Stop implements Medium.
func (sw *Switch) Stop() {
	for _, p := range sw.ports {
		p.egress.Close()
	}
}

// ID implements NIC.
func (p *swPort) ID() int { return p.id }

// Send implements NIC: the sender pays serialisation on its private uplink
// per fragment, then the frame queues at the destination's egress port.
func (p *swPort) Send(proc *sim.Proc, dst, size int, payload interface{}) bool {
	if size < 0 {
		panic("ethernet: negative frame size")
	}
	sw := p.sw
	delivered := true
	remaining := size
	for {
		chunk := remaining
		if chunk > sw.cfg.MTU {
			chunk = sw.cfg.MTU
		}
		remaining -= chunk
		last := remaining == 0
		var pl interface{}
		if last {
			pl = payload
		}
		proc.Sleep(sw.cfg.frameTime(chunk)) // uplink serialisation, no contention
		f := Frame{Src: p.id, Dst: dst, Size: chunk, Payload: pl}
		if dst == Broadcast {
			for _, q := range sw.ports {
				if q.id != p.id {
					q.egress.TrySend(swReq{frame: f})
				}
			}
		} else {
			if dst < 0 || dst >= len(sw.ports) {
				panic(fmt.Sprintf("ethernet: frame to unknown port %d", dst))
			}
			if !sw.ports[dst].egress.TrySend(swReq{frame: f}) {
				sw.stats.Drops++
				delivered = false
			}
		}
		if last {
			return delivered
		}
	}
}

// Recv implements NIC.
func (p *swPort) Recv(proc *sim.Proc) (Frame, bool) { return p.rx.Recv(proc) }

// TryRecv implements NIC.
func (p *swPort) TryRecv() (Frame, bool) { return p.rx.TryRecv() }

// Inject implements NIC.
func (p *swPort) Inject(f Frame) bool { return p.rx.TrySend(f) }

// Close implements NIC.
func (p *swPort) Close() { p.rx.Close() }

// Closed implements NIC.
func (p *swPort) Closed() bool { return p.rx.Closed() }
