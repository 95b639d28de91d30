package sim

import "testing"

// BenchmarkEventDispatch measures the raw event-loop rate.
func BenchmarkEventDispatch(b *testing.B) {
	e := NewEngine(1)
	var fire func()
	n := 0
	fire = func() {
		n++
		if n < b.N {
			e.After(1, fire)
		}
	}
	e.After(1, fire)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSleepSwitch measures Sleep in a lone process: every wake-up
// is the next event, so it fires in place and nothing is switched.
func BenchmarkProcSleepSwitch(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSwitchTwo measures a full process context switch (schedule,
// switch out, pop, switch in): two processes sleep in lockstep, so each
// one's wake-up always has the other's queued before it.
func BenchmarkProcSwitchTwo(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < 2; i++ {
		e.Spawn("p", func(p *Proc) {
			for i := 0; i < b.N; i += 2 {
				p.Sleep(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChanHandoff measures a rendezvous send/recv pair.
func BenchmarkChanHandoff(b *testing.B) {
	e := NewEngine(1)
	c := NewChan[int](e, 0)
	e.Spawn("send", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Send(p, i)
		}
	})
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Recv(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRand measures the PRNG.
func BenchmarkRand(b *testing.B) {
	r := NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}
