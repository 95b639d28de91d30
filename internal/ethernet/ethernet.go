// Package ethernet models the shared 10 Mbps bus Ethernet of the paper's
// testbed as a discrete-event system: a single broadcast medium with
// carrier sense, a contention (collision) window, binary exponential
// backoff, interframe gaps and MTU framing.
//
// The paper attributes the performance drop of communication-heavy runs
// ("bus type Ethernet where occurrence of packet collision increases when
// communication frequency between nodes increases") to exactly this medium,
// so the model keeps the properties that produce that effect: the bus
// serialises all frames, acquisition cost grows with the number of
// simultaneous contenders, and every frame pays preamble/header/IFG
// overhead that penalises small messages.
package ethernet

import (
	"fmt"

	"repro/internal/sim"
)

// Frame is one Ethernet frame on the wire. Payload is carried by reference;
// Size is the payload length in bytes used for timing and accounting.
type Frame struct {
	Src     int // sending station id
	Dst     int // receiving station id, or Broadcast
	Size    int // payload bytes
	Payload interface{}
}

// Broadcast as a Frame.Dst delivers the frame to every station except Src.
const Broadcast = -1

// Config describes the physical medium. The zero value is unusable; use
// DefaultConfig for classic 10BASE2-style parameters.
type Config struct {
	BandwidthBps  int64        // raw signalling rate, bits per second
	SlotTime      sim.Duration // collision/contention slot (512 bit times on 10 Mbps)
	InterframeGap sim.Duration // mandatory idle between frames (96 bit times)
	PropDelay     sim.Duration // one-way propagation delay
	MTU           int          // maximum payload per frame
	MinPayload    int          // frames are padded up to this payload size
	HeaderBytes   int          // per-frame header+trailer overhead (dst/src/type/FCS)
	PreambleBytes int          // preamble+SFD
	MaxBackoffExp int          // BEB exponent cap (10 for classic Ethernet)
	RxQueue       int          // per-station receive queue capacity (frames)
}

// DefaultConfig returns classic shared 10 Mbps Ethernet parameters.
func DefaultConfig() Config { return ConfigForBandwidth(10_000_000) }

// ConfigForBandwidth returns shared-Ethernet parameters for the given
// signalling rate: the slot time stays 512 bit times and the interframe
// gap 96 bit times, as in every classic Ethernet speed grade.
func ConfigForBandwidth(bps int64) Config {
	if bps <= 0 {
		panic("ethernet: non-positive bandwidth")
	}
	bit := float64(sim.Second) / float64(bps)
	return Config{
		BandwidthBps:  bps,
		SlotTime:      sim.Duration(512 * bit),
		InterframeGap: sim.Duration(96 * bit),
		PropDelay:     5 * sim.Microsecond,
		MTU:           1500,
		MinPayload:    46,
		HeaderBytes:   18,
		PreambleBytes: 8,
		MaxBackoffExp: 10,
		RxQueue:       4096,
	}
}

// wireBytes is a frame's length on the wire: padded payload plus framing.
func (c *Config) wireBytes(size int) int {
	return max(size, c.MinPayload) + c.HeaderBytes + c.PreambleBytes
}

// frameTime is one frame's serialisation time at the signalling rate.
func (c *Config) frameTime(size int) sim.Duration {
	return sim.Duration(int64(c.wireBytes(size)) * 8 * int64(sim.Second) / c.BandwidthBps)
}

// Stats aggregates bus counters over a run.
type Stats struct {
	Frames        uint64       // frames successfully transmitted
	PayloadBytes  uint64       // payload bytes carried
	WireBytes     uint64       // bytes on the wire incl. padding and headers
	Collisions    uint64       // collision events during contention resolution
	Contended     uint64       // acquisitions that saw >1 contender
	Drops         uint64       // frames dropped at a full receiver queue
	BusyTime      sim.Duration // time the medium carried bits
	ContentionLag sim.Duration // time lost to collision resolution
}

// Bus is the shared medium. Create one per simulated LAN, attach stations,
// then Start it before running the engine.
type Bus struct {
	eng      *sim.Engine
	cfg      Config
	rng      *sim.Rand
	stations []*Station
	stats    Stats
	started  bool
	stopped  bool
	lossProb float64 // failure injection: probability a frame is lost on the wire

	// The arbiter: the frame in hand while busy, the frames waiting behind
	// it, and its steps as method values made once (an event per wait, no
	// closure per frame).
	busy                                 bool
	cur                                  txReq
	reqs                                 sim.Queue[txReq]
	contendFn, gapFn, transmitFn, sentFn func()
	freeDone                             []*txDone

	// onWire holds the frames propagating to a receive queue. The medium is
	// serial and the propagation delay constant, so arrivals are scheduled
	// in arrival order: each arriveFn event takes the head.
	onWire   sim.Queue[arrival]
	arriveFn func()
}

type txReq struct {
	frame Frame
	done  *txDone
}

// txDone is where a sender waits for its frame to leave the station. ok
// reports whether the frame will be delivered (false: lost on the wire or
// addressed to a closed station), which is what lets a transport implement
// consecutive-loss peer-failure detection.
type txDone struct {
	p         *sim.Proc
	ready, ok bool
}

type arrival struct {
	to    *Station
	frame Frame
}

// NewBus creates a bus on the engine with the given medium parameters.
func NewBus(e *sim.Engine, cfg Config) *Bus {
	b := &Bus{eng: e, cfg: cfg, rng: e.Rand().Fork()}
	b.contendFn, b.gapFn, b.transmitFn, b.sentFn, b.arriveFn = b.contend, b.gap, b.transmit, b.sent, b.arrive
	return b
}

// SetLossProbability enables failure injection: each frame is independently
// dropped with probability p (0 disables). Intended for tests.
func (b *Bus) SetLossProbability(p float64) { b.lossProb = p }

// Stats returns a snapshot of the bus counters.
func (b *Bus) Stats() Stats { return b.stats }

// Attach adds a station to the bus and returns its handle. All stations
// must be attached before Start.
func (b *Bus) Attach() *Station {
	if b.started {
		panic("ethernet: Attach after Start")
	}
	s := &Station{
		bus: b,
		id:  len(b.stations),
		rx:  sim.NewChan[Frame](b.eng, b.cfg.RxQueue),
	}
	b.stations = append(b.stations, s)
	return s
}

// AttachNIC implements Medium.
func (b *Bus) AttachNIC() NIC { return b.Attach() }

// Start implements Medium. The arbiter is a chain of engine callbacks and
// needs no process; Start only ends the attach phase.
func (b *Bus) Start() { b.started = true }

// Stop refuses further frames; those already queued are still transmitted.
func (b *Bus) Stop() { b.stopped = true }

// send hands f to the arbiter — one event later if the medium is idle,
// behind the frames already waiting otherwise — and parks p until the frame
// has left the station. It reports whether the frame will be delivered.
func (b *Bus) send(p *sim.Proc, f Frame) bool {
	var done *txDone
	if n := len(b.freeDone); n > 0 {
		done, b.freeDone = b.freeDone[n-1], b.freeDone[:n-1]
	} else {
		done = new(txDone)
	}
	*done = txDone{p: p}
	if req := (txReq{f, done}); b.busy {
		b.reqs.Push(req)
	} else {
		b.busy, b.cur = true, req
		b.eng.After(0, b.contendFn)
	}
	for !done.ready {
		p.Park()
	}
	ok := done.ok
	b.freeDone = append(b.freeDone, done)
	return ok
}

// The arbiter serialises access to the medium, charging contention, framing
// and transmission time, then delivering frames to receiver queues. It runs
// in engine context, one callback per wait: contend, (backoff,) gap, transmit.
func (b *Bus) contend() {
	// Contenders: the frame in hand plus everything already queued
	// behind it. In CSMA/CD they would all have sensed the idle medium
	// and collided; resolve the contention with binary exponential
	// backoff before the winner transmits. The queue preserves FIFO so
	// the "winner" is the head; the backoff time is what matters.
	contenders := 1 + b.reqs.Len()
	if contenders > 1 {
		b.stats.Contended++
		lag := b.contentionDelay(contenders)
		b.stats.ContentionLag += lag
		b.eng.After(lag, b.gapFn)
		return
	}
	b.gap()
}

func (b *Bus) gap() { b.eng.After(b.cfg.InterframeGap, b.transmitFn) }

// contentionDelay simulates BEB rounds among k stations until a unique
// winner emerges, returning the total virtual time consumed.
func (b *Bus) contentionDelay(k int) sim.Duration {
	var total sim.Duration
	round := 0
	for k > 1 {
		round++
		b.stats.Collisions++
		exp := round
		if exp > b.cfg.MaxBackoffExp {
			exp = b.cfg.MaxBackoffExp
		}
		window := 1 << uint(exp)
		// Each contender draws a slot; the earliest unique draw wins.
		// Count how many share the minimum draw: they collide again.
		draws := make(map[int]int, k)
		min := window
		for i := 0; i < k; i++ {
			d := b.rng.Intn(window)
			draws[d]++
			if d < min {
				min = d
			}
		}
		total += sim.Duration(min+1) * b.cfg.SlotTime
		if draws[min] == 1 {
			return total
		}
		k = draws[min] // the tied minimum draws collide in the next round
	}
	return total
}

// transmit charges wire time for the frame in hand.
func (b *Bus) transmit() { b.eng.After(b.cfg.frameTime(b.cur.frame.Size), b.sentFn) }

// sent accounts for the transmitted frame, schedules its delivery and moves
// on to the next waiting frame.
func (b *Bus) sent() {
	req := b.cur
	f := req.frame
	wireBytes, txTime := b.cfg.wireBytes(f.Size), b.cfg.frameTime(f.Size)
	b.stats.Frames++
	b.stats.PayloadBytes += uint64(f.Size)
	b.stats.WireBytes += uint64(wireBytes)
	b.stats.BusyTime += txTime

	// Decide the frame's fate before unblocking the sender, so the sender
	// learns whether its frame made it onto a live receiver. The rng draw
	// stays one-per-frame (iff loss injection is on) to keep seeded runs
	// deterministic.
	lost := b.lossProb > 0 && b.rng.Float64() < b.lossProb
	if f.Dst != Broadcast {
		if f.Dst < 0 || f.Dst >= len(b.stations) {
			panic(fmt.Sprintf("ethernet: frame to unknown station %d", f.Dst))
		}
		if b.stations[f.Dst].Closed() {
			lost = true // dead station: the frame falls on the floor
		}
	}
	if lost {
		b.stats.Drops++
	}

	// Sender unblocks once its frame has left the NIC.
	req.done.ok, req.done.ready = !lost, true
	req.done.p.Unpark()

	deliverAt := b.eng.Now() + b.cfg.PropDelay
	switch {
	case lost:
	case f.Dst == Broadcast:
		for _, s := range b.stations {
			if s.id != f.Src {
				b.deliver(s, f, deliverAt)
			}
		}
	default:
		b.deliver(b.stations[f.Dst], f, deliverAt)
	}
	if b.reqs.Len() > 0 {
		b.cur = b.reqs.Pop()
		b.contend()
	} else {
		b.busy, b.cur = false, txReq{}
	}
}

func (b *Bus) deliver(s *Station, f Frame, at sim.Time) {
	b.onWire.Push(arrival{s, f})
	b.eng.At(at, b.arriveFn)
}

func (b *Bus) arrive() {
	if a := b.onWire.Pop(); !a.to.rx.TrySend(a.frame) {
		b.stats.Drops++
	}
}

// Station is one attached NIC.
type Station struct {
	bus *Bus
	id  int
	rx  *sim.Chan[Frame]
}

// ID returns the station's bus address (0-based attach order).
func (s *Station) ID() int { return s.id }

// Send fragments payload-sized data into MTU frames and transmits them,
// blocking the caller until the last frame has left the station. The
// payload value rides on the final frame only; earlier fragments carry nil.
// It reports whether every fragment was delivered: false means at least one
// fragment was lost on the wire or the destination station is closed.
func (s *Station) Send(p *sim.Proc, dst, size int, payload interface{}) bool {
	if size < 0 {
		panic("ethernet: negative frame size")
	}
	delivered := true
	remaining := size
	for {
		if s.bus.stopped {
			// The bus has been stopped (run teardown). A process still
			// draining queued work — e.g. a kernel releasing a barrier
			// while the last application process exits — loses the frame,
			// exactly as if the destination station had closed.
			return false
		}
		chunk := remaining
		if chunk > s.bus.cfg.MTU {
			chunk = s.bus.cfg.MTU
		}
		remaining -= chunk
		last := remaining == 0
		var pl interface{}
		if last {
			pl = payload
		}
		if !s.bus.send(p, Frame{Src: s.id, Dst: dst, Size: chunk, Payload: pl}) {
			delivered = false
		}
		if last {
			return delivered
		}
	}
}

// Inject places a frame directly into this station's receive queue without
// touching the medium (used for own-node message delivery, which the DSE
// message exchange module short-cuts past the wire). It reports whether the
// queue had room.
func (s *Station) Inject(f Frame) bool { return s.rx.TrySend(f) }

// Recv blocks until a frame addressed to this station arrives.
// ok is false if the bus was stopped.
func (s *Station) Recv(p *sim.Proc) (Frame, bool) {
	return s.rx.Recv(p)
}

// TryRecv returns a queued frame without blocking.
func (s *Station) TryRecv() (Frame, bool) { return s.rx.TryRecv() }

// Close wakes any blocked receiver on this station with ok=false.
func (s *Station) Close() { s.rx.Close() }

// Closed reports whether the station has been closed (its receive queue no
// longer accepts frames).
func (s *Station) Closed() bool { return s.rx.Closed() }
