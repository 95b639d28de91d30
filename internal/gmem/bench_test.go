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
	// The window read at the shape of benchmark/'s gm_onesided workload: 64
	// written blocks of 64 words homed at kernel 1 of 2, read at seeded
	// addresses, so the block lookup is not one hot, predicted entry.
	b.Run("direct-read/spread", func(b *testing.B) {
		const blocks, words = 64, 64
		g := NewSegment(NewSpace(2, words), 1)
		g.SetDirectory(NewDirectory(2, 0))
		rng := rand.New(rand.NewSource(1))
		addrs := make([]uint64, 4096)
		for i := range addrs {
			addrs[i] = uint64((2*rng.Intn(blocks)+1)*words + rng.Intn(words))
			g.WriteWord(addrs[i], int64(i))
		}
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

func BenchmarkHomeRuns(b *testing.B) {
	s := NewSpace(6, 32)
	for i := 0; i < b.N; i++ {
		s.HomeRuns(7, 900, func(home int, start uint64, count int) {})
	}
}
