package mp

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

func run(t *testing.T, n int, body core.Program) {
	t.Helper()
	res, err := core.Run(core.Config{NumPE: n, Transport: core.TransportInproc}, body)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	run(t, 2, func(pe *core.PE) error {
		c := New(pe)
		if c.Rank() == 0 {
			c.SendF(1, 5, []float64{1.5, -2.5})
			src, vals := c.RecvF(6)
			if src != 1 || vals[0] != 99 {
				return fmt.Errorf("got %v from %d", vals, src)
			}
			return nil
		}
		src, vals := c.RecvF(5)
		if src != 0 || len(vals) != 2 || vals[1] != -2.5 {
			return fmt.Errorf("got %v from %d", vals, src)
		}
		c.SendF(0, 6, []float64{99})
		return nil
	})
}

func TestBcastFromEveryRoot(t *testing.T) {
	const n = 6
	for root := 0; root < n; root++ {
		root := root
		t.Run(fmt.Sprintf("root%d", root), func(t *testing.T) {
			run(t, n, func(pe *core.PE) error {
				c := New(pe)
				var data []byte
				if c.Rank() == root {
					data = []byte{1, 2, 3, byte(root)}
				}
				got := c.Bcast(root, data)
				if len(got) != 4 || got[3] != byte(root) {
					return fmt.Errorf("rank %d got %v", c.Rank(), got)
				}
				return nil
			})
		})
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			run(t, n, func(pe *core.PE) error {
				c := New(pe)
				got := c.Reduce(0, float64(c.Rank()+1), func(a, b float64) float64 { return a + b })
				want := float64(n * (n + 1) / 2)
				if c.Rank() == 0 && got != want {
					return fmt.Errorf("sum = %v, want %v", got, want)
				}
				return nil
			})
		})
	}
}

func TestAllReduceEveryoneAgrees(t *testing.T) {
	run(t, 5, func(pe *core.PE) error {
		c := New(pe)
		got := c.AllReduce(float64(c.Rank()), func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		})
		if got != 4 {
			return fmt.Errorf("rank %d: max = %v, want 4", c.Rank(), got)
		}
		return nil
	})
}

func TestCollectiveSequenceTagsDoNotCollide(t *testing.T) {
	run(t, 3, func(pe *core.PE) error {
		c := New(pe)
		for i := 0; i < 10; i++ {
			root := i % c.Size()
			var data []byte
			if c.Rank() == root {
				data = []byte{byte(i)}
			}
			if got := c.Bcast(root, data); len(got) != 1 || got[0] != byte(i) {
				return fmt.Errorf("iteration %d: bcast %v", i, got)
			}
			s := c.AllReduce(1, func(a, b float64) float64 { return a + b })
			if s != 3 {
				return fmt.Errorf("iteration %d: sum %v", i, s)
			}
		}
		return nil
	})
}

func TestUserTagCollisionPanics(t *testing.T) {
	run(t, 1, func(pe *core.PE) error {
		defer func() {
			if recover() == nil {
				panic("expected panic for reserved tag")
			}
		}()
		New(pe).Send(0, tagBase+1, nil)
		return nil
	})
}

func TestMPWorksOnSimulatedTransport(t *testing.T) {
	res, err := core.Run(core.Config{NumPE: 4, Platform: platform.RS6000AIX, Seed: 2},
		func(pe *core.PE) error {
			c := New(pe)
			sum := c.AllReduce(float64(c.Rank()+1), func(a, b float64) float64 { return a + b })
			if sum != 10 {
				return fmt.Errorf("sum = %v", sum)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if res.Total.MsgsSent == 0 {
		t.Fatal("no messages recorded")
	}
}
