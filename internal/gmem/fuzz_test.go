package gmem

import (
	"encoding/binary"
	"testing"
)

// FuzzSubmitRing drives a small ring through an arbitrary single-threaded
// push/drain/release schedule, starting at a fuzzer-chosen position (so state
// words wrap uint64 mid-run), and checks every observable against a model
// FIFO queue: pushes succeed exactly while the queue has room, drains return
// the queued writes payload-intact in order, Pending tracks the queue length,
// and Consumed flips only at Release. The encoding under test is the slot
// state discipline — free/published/consumed as modular offsets from the
// claiming position.
func FuzzSubmitRing(f *testing.F) {
	seed := func(start uint64, ops ...byte) []byte {
		data := make([]byte, 9, 9+len(ops))
		data[0] = 2 // 8 slots
		binary.LittleEndian.PutUint64(data[1:], start)
		return append(data, ops...)
	}
	f.Add(seed(0, 0, 0, 0, 1, 0, 2, 1))
	// Positions wrap mid-schedule: the modular-comparison regression corpus.
	f.Add(seed(^uint64(0)-3, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 2, 2))
	// Overfill: more pushes than slots, rejections expected.
	f.Add(seed(^uint64(0)-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1))
	f.Add(seed(1<<63, 2, 2, 0, 2, 0, 2, 1, 2))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 || len(data) > 4096 {
			return
		}
		size := 1 << (int(data[0])%4 + 1) // 2, 4, 8 or 16 slots
		start := binary.LittleEndian.Uint64(data[1:9])
		r := newSubmitRingAt(size, start)
		buf := make([]RingWrite, size)
		type entry struct {
			w   RingWrite
			pos uint64
		}
		var model []entry // queued (pushed, not yet released), FIFO
		var tok uint64
		for i, b := range data[9:] {
			if p := r.Pending(); p != len(model) {
				t.Fatalf("op %d: Pending = %d, model holds %d", i, p, len(model))
			}
			switch b % 3 {
			case 0: // push
				tok++
				w := RingWrite{Addr: tok, Val: int64(tok ^ 0xabc), Seq: tok, Src: int32(b)}
				pos, ok := r.Push(w)
				if wantOK := len(model) < size; ok != wantOK {
					t.Fatalf("op %d: Push ok=%v with %d/%d queued", i, ok, len(model), size)
				}
				if ok {
					if r.Consumed(pos) {
						t.Fatalf("op %d: position %d consumed right after push", i, pos)
					}
					model = append(model, entry{w, pos})
				}
			case 1: // drain everything, release everything
				n := r.Drain(buf)
				if n != len(model) {
					t.Fatalf("op %d: Drain = %d, model holds %d", i, n, len(model))
				}
				for j := 0; j < n; j++ {
					if buf[j] != model[j].w {
						t.Fatalf("op %d: drained[%d] = %+v, want %+v", i, j, buf[j], model[j].w)
					}
				}
				r.Release(n)
				for j := 0; j < n; j++ {
					if !r.Consumed(model[j].pos) {
						t.Fatalf("op %d: position %d not consumed after Release", i, model[j].pos)
					}
				}
				model = model[:0]
			case 2: // drain and release just the head
				n := r.Drain(buf[:1])
				if want := min(1, len(model)); n != want {
					t.Fatalf("op %d: Drain(1) = %d, want %d", i, n, want)
				}
				if n == 1 {
					if buf[0] != model[0].w {
						t.Fatalf("op %d: head = %+v, want %+v", i, buf[0], model[0].w)
					}
					r.Release(1)
					if !r.Consumed(model[0].pos) {
						t.Fatalf("op %d: head position %d not consumed", i, model[0].pos)
					}
					model = model[1:]
				}
			}
		}
	})
}

// FuzzSegmentBlocks plays an arbitrary script of writes, extracts, range
// drops, adoptions and imports on 64 blocks against the segment's map model
// (segModel, which checks every block the segment hands back), then checks
// the whole segment against the model. Single-threaded: the concurrent
// readers are TestSegmentBlockTableModel's.
func FuzzSegmentBlocks(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 1, 20, 0, 7, 0, 1, 0, 2, 0, 0, 27, 0, 1, 0, 0, 31, 0, 0, 0, 5, 0, 0, 28, 0, 4, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		m := newSegModel(t, 64)
		m.run(data)
		m.verify()
	})
}
