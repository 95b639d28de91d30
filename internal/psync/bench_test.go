package psync

import "testing"

func BenchmarkBarrierEpoch(b *testing.B) {
	bm := NewBarrierManager(8)
	for i := 0; i < b.N; i++ {
		for k := 0; k < 8; k++ {
			bm.Arrive(k, 1)
		}
	}
}

func BenchmarkLockAcquireRelease(b *testing.B) {
	lm := NewLockManager()
	for i := 0; i < b.N; i++ {
		lm.Acquire(0, 1)
		lm.Release(0, 1)
	}
}

func BenchmarkTreeBarrierArrive(b *testing.B) {
	tb := NewTreeBarrier(0, 16, 2)
	for i := 0; i < b.N; i++ {
		for src := 0; src <= 2; src++ { // own PE, then children 1 and 2
			tb.Arrive(src, 1)
		}
	}
}
