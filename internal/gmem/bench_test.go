package gmem

import (
	"math/rand"
	"testing"
)

func BenchmarkSegmentWordOps(b *testing.B) {
	b.Run("write-read", func(b *testing.B) {
		s := NewSpace(1, 32)
		g := NewSegment(s, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Write(uint64(i%32), []int64{int64(i)})
			g.Read(uint64(i%32), 1)
		}
	})
	// The unpinned window read, and the ops through pins, at the shape of
	// benchmark/'s gm_onesided workload: 64 written blocks of 64 words homed at
	// kernel 1 of 2, accessed at seeded addresses, so neither the block lookup
	// nor the pin is one hot, predicted entry.
	b.Run("direct-read/spread", func(b *testing.B) {
		g, addrs := spread()
		var sum int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, ok := g.DirectReadOwned(addrs[i%len(addrs)])
			if !ok {
				b.Fatal("a word homed here read as disowned")
			}
			sum += v
		}
		sink = sum
	})
	b.Run("pin-read/spread", func(b *testing.B) {
		g, addrs := spread()
		pins, offs := pinAll(b, g, addrs)
		var sum int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, ok := pins[i%len(pins)].Read(offs[i%len(offs)])
			if !ok {
				b.Fatal("a pin went stale with nothing published")
			}
			sum += v
		}
		sink = sum
	})
	b.Run("pin-store/spread", func(b *testing.B) {
		g, addrs := spread()
		pins, offs := pinAll(b, g, addrs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !pins[i%len(pins)].Store(offs[i%len(offs)], int64(i)) {
				b.Fatal("a pin went stale with nothing published")
			}
		}
	})
	b.Run("pin-fetch-add/spread", func(b *testing.B) {
		g, addrs := spread()
		pins, offs := pinAll(b, g, addrs)
		var sum int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			old, ok := pins[i%len(pins)].FetchAdd(offs[i%len(offs)], 1)
			if !ok {
				b.Fatal("a pin went stale with nothing published")
			}
			sum += old
		}
		sink = sum
	})
	b.Run("write-run/64", func(b *testing.B) {
		g := NewSegment(NewSpace(1, 64), 0)
		words := make([]int64, 64)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			words[i%64] = int64(i)
			g.WriteRun(uint64(i%8), 0, words)
		}
	})
}

// spread returns kernel 1's segment of a 2-kernel space of 64-word blocks on
// a live directory, with 64 of its blocks written, and 4 096 seeded addresses
// in them.
func spread() (*Segment, []uint64) {
	const blocks, words = 64, 64
	g := NewSegment(NewSpace(2, words), 1)
	g.SetDirectory(NewDirectory(2, 0))
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64((2*rng.Intn(blocks)+1)*words + rng.Intn(words))
		g.WriteWord(addrs[i], int64(i))
	}
	return g, addrs
}

// pinAll pins the block of every address, returning the pins and each
// address's offset in its block.
func pinAll(b *testing.B, g *Segment, addrs []uint64) ([]Pin, []int) {
	pins, offs := make([]Pin, len(addrs)), make([]int, len(addrs))
	for i, a := range addrs {
		l := g.space.Locate(a)
		p, ok := g.PinAt(l, false)
		if !ok || !p.Held() {
			b.Fatalf("address %d: pinned %v, held %v", a, ok, p.Held())
		}
		pins[i], offs[i] = p, l.Off
	}
	return pins, offs
}

// sink keeps the compiler from dropping a benchmark's reads.
var sink int64

func BenchmarkSegmentFetchAdd(b *testing.B) {
	s := NewSpace(1, 32)
	g := NewSegment(s, 0)
	for i := 0; i < b.N; i++ {
		g.FetchAdd(3, 1)
	}
}

func BenchmarkCacheLookup(b *testing.B) {
	s := NewSpace(4, 32)
	c := NewCache(s)
	blk := make([]int64, 32)
	c.Insert(0, blk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i % 32))
	}
}
