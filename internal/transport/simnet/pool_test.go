package simnet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/wire"
)

// After warm-up a simulated message allocates nothing: its encoded frame
// comes from framePool and goes back on receipt, its decoded Message from
// wire's pool, and the engine and the bus reuse their queues. Two service
// processes bounce one message back and forth for ever; each measured run
// advances the clock by a fixed step, which covers several messages.
func TestPingPongAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse")
	}
	net := newNet(t, 2)
	for i := 0; i < 2; i++ {
		nd := net.SimNode(i)
		svc := nd.Svc()
		net.Engine().Spawn(fmt.Sprintf("svc%d", i), func(p *sim.Proc) {
			nd.BindSvc(p)
			for {
				m, ok := nd.Recv()
				if !ok {
					return
				}
				peer := 1 - nd.ID()
				m.Src, m.Dst = int32(nd.ID()), int32(peer)
				svc.Send(peer, m)
				wire.PutMessage(m)
			}
		})
	}
	net.Engine().Spawn("app0", func(p *sim.Proc) {
		nd0 := net.SimNode(0)
		nd0.BindApp(p)
		nd0.App().Send(1, &wire.Message{Op: wire.OpPing, Src: 0, Dst: 1, Data: make([]byte, 64)})
	})

	var limit sim.Time
	step := func() {
		limit += sim.Time(20 * sim.Millisecond)
		if err := net.Engine().RunUntil(limit); err != nil {
			t.Fatal(err)
		}
	}
	received := func() uint64 { return net.SimNode(0).Stats().MsgsRecv + net.SimNode(1).Stats().MsgsRecv }
	for i := 0; i < 10; i++ {
		step() // warm the pools and the queues
	}
	before := received()
	const runs = 200
	allocs := testing.AllocsPerRun(runs, step)
	msgs := received() - before
	t.Logf("%d messages over %d steps: %v allocs per step", msgs, runs+1, allocs)
	if msgs < 2*(runs+1) {
		t.Fatalf("only %d messages in %d steps: the ping-pong stalled", msgs, runs+1)
	}
	if allocs != 0 {
		t.Errorf("ping-pong allocates %v times per %d-message step, want 0", allocs, msgs/(runs+1))
	}
	net.Stop()
	if err := net.Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

// streamDigest runs three nodes that each stream messages to both others,
// every payload a pure function of (src, dst, seq), and returns a digest of
// every delivery: receiver, virtual time, header and payload. A receiver
// checks each payload, so a frame reused while still in flight fails here.
func streamDigest(t *testing.T, cfg Config, loss float64) [32]byte {
	t.Helper()
	const perPeer = 60
	cfg.NumPE, cfg.Platform = 3, platform.SparcSunOS
	net := New(cfg)
	net.Medium().SetLossProbability(loss)
	h := sha256.New()
	var rec [40]byte
	for i := 0; i < cfg.NumPE; i++ {
		nd := net.SimNode(i)
		net.Engine().Spawn(fmt.Sprintf("svc%d", i), func(p *sim.Proc) {
			nd.BindSvc(p)
			for {
				m, ok := nd.Recv()
				if !ok {
					return
				}
				if want := payload(int(m.Src), int(m.Dst), m.Seq); string(m.Data) != string(want) {
					t.Errorf("node %d: message %d from %d carries a wrong payload", nd.ID(), m.Seq, m.Src)
				}
				binary.LittleEndian.PutUint64(rec[0:], uint64(nd.ID()))
				binary.LittleEndian.PutUint64(rec[8:], uint64(p.Now()))
				binary.LittleEndian.PutUint64(rec[16:], uint64(m.Src))
				binary.LittleEndian.PutUint64(rec[24:], m.Seq)
				binary.LittleEndian.PutUint64(rec[32:], uint64(len(m.Data)))
				h.Write(rec[:])
				h.Write(m.Data)
				wire.PutMessage(m)
			}
		})
		net.Engine().Spawn(fmt.Sprintf("app%d", i), func(p *sim.Proc) {
			nd.BindApp(p)
			app := nd.App()
			for seq := uint64(0); seq < perPeer; seq++ {
				for dst := 0; dst < cfg.NumPE; dst++ {
					if dst == nd.ID() {
						continue
					}
					m := wire.GetMessage()
					m.Op, m.Src, m.Dst, m.Seq = wire.OpUserMsg, int32(nd.ID()), int32(dst), seq
					m.Data = payload(nd.ID(), dst, seq)
					app.Send(dst, m)
					m.Data = nil
					wire.PutMessage(m)
				}
				p.Sleep(300 * sim.Microsecond)
			}
		})
	}
	net.Engine().Spawn("stop", func(p *sim.Proc) {
		p.Sleep(2 * sim.Second)
		net.Stop()
	})
	if err := net.Engine().Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if net.Medium().Stats().Drops == 0 {
		t.Fatal("the medium dropped no frame")
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// payload is message seq's body from src to dst; its length varies so
// frames of several sizes, some spanning MTU fragments, share the pool.
func payload(src, dst int, seq uint64) []byte {
	b := make([]byte, 8+int(seq%7)*300)
	for i := range b {
		b[i] = byte(uint64(src*31+dst*7+i) + seq)
	}
	return b
}

// A lossy run and a run with a station killed mid-stream drop frames that
// never return to framePool; both must still replay bit for bit, with every
// delivered payload intact, when the second run reuses the frames the first
// returned.
func TestPooledFramesReplayUnderLossAndKill(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		loss float64
	}{
		{"loss", Config{Seed: 5, DelayJitter: 200 * sim.Microsecond}, 0.1},
		{"kill", Config{Seed: 9, LossBudget: 3, Kills: []Kill{{Node: 2, At: 10 * sim.Millisecond}}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, second := streamDigest(t, tc.cfg, tc.loss), streamDigest(t, tc.cfg, tc.loss)
			if first != second {
				t.Fatalf("replay diverged: %x vs %x", first, second)
			}
		})
	}
}
