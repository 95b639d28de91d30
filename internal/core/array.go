package core

import (
	"unsafe"

	"repro/internal/check"
	"repro/internal/gmem"
)

// Array is a typed handle on an allocation of global memory, the way a
// program reaches the DSM. Element i is word i of the allocation; an index
// outside [0, Len) is an *IndexError, raised before the access pipeline runs
// (nothing is sent or recorded), so it never lands in the neighbouring
// allocation. Otherwise an access takes exactly the path, messages and
// history events of the raw-address error forms and returns their errors.
// A float64 element is stored as its IEEE-754 bits. The handle is a value:
// copying it copies the view, not the memory.
type Array[T int64 | float64] struct {
	pe   *PE
	addr uint64
	n    int
}

// Counter is an int64 Array that adds the atomic FetchAdd: the primitive
// behind job pools and shared tallies.
type Counter struct{ Array[int64] }

// AllocArray reserves n elements from a block boundary (PE.AllocBlocks) in the
// cluster's default consistency mode; every PE of the SPMD program gets the
// same array.
func AllocArray[T int64 | float64](pe *PE, n int) Array[T] {
	return Array[T]{pe, pe.AllocBlocks(n), n}
}

// AllocArrayMode is AllocArray in consistency mode m (DESIGN.md §14).
func AllocArrayMode[T int64 | float64](pe *PE, n int, m gmem.Mode) Array[T] {
	a := Array[T]{pe, pe.alloc.AllocBlocks(n), n}
	pe.modes.Set(a.addr, n, m)
	return a
}

// AllocCounter reserves n counters like AllocArray.
func AllocCounter(pe *PE, n int) Counter { return Counter{AllocArray[int64](pe, n)} }

// Len is the number of elements.
func (a Array[T]) Len() int { return a.n }

// Addr is the global address of element 0, for the calls that name memory by
// address: HomeOf, MigrateRange and the namespace verbs.
func (a Array[T]) Addr() uint64 { return a.addr }

// Load reads element i, as GMReadErr reads a word.
func (a Array[T]) Load(i int) (T, error) {
	var w int64
	err := a.bounds("load", i, 1)
	if err == nil {
		w, _, err = a.pe.wordOp(check.KindRead, a.addr+uint64(i), 0, 0)
	}
	return *(*T)(unsafe.Pointer(&w)), err
}

// Store writes v to element i, as GMWriteErr writes a word.
func (a Array[T]) Store(i int, v T) error {
	if err := a.bounds("store", i, 1); err != nil {
		return err
	}
	_, _, err := a.pe.wordOp(check.KindWrite, a.addr+uint64(i), *(*int64)(unsafe.Pointer(&v)), 0)
	return err
}

// LoadRange fills dst from element i on, one block read (GMReadBlockErr).
// After an error dst's contents are unspecified.
func (a Array[T]) LoadRange(i int, dst []T) error {
	if err := a.bounds("load-range", i, len(dst)); err != nil {
		return err
	}
	return a.pe.rangeOp("read-block", check.KindRead, a.addr+uint64(i), nil, words(dst))
}

// StoreRange writes src from element i on, one block write (GMWriteBlockErr).
func (a Array[T]) StoreRange(i int, src []T) error {
	if err := a.bounds("store-range", i, len(src)); err != nil {
		return err
	}
	return a.pe.rangeOp("write-block", check.KindWrite, a.addr+uint64(i), nil, words(src))
}

// FetchAdd atomically adds delta to counter i and returns its previous value,
// exactly once under retransmission (FetchAddErr).
func (c Counter) FetchAdd(i int, delta int64) (int64, error) {
	if err := c.bounds("fetch-add", i, 1); err != nil {
		return 0, err
	}
	old, _, err := c.pe.wordOp(check.KindFetchAdd, c.addr+uint64(i), delta, 0)
	return old, err
}

func (a Array[T]) bounds(op string, i, n int) error {
	if i < 0 || n > a.n-i {
		return &IndexError{PE: a.pe.k.id, Op: op, Index: i, Count: n, Len: a.n}
	}
	return nil
}

// words views s as the words that hold it, without a copy: an int64 is its
// own word and a float64 its IEEE-754 bits, the same eight bytes.
func words[T int64 | float64](s []T) []int64 {
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}
