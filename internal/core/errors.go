package core

import "fmt"

// The reliability layer surfaces request failures as typed errors: an
// Array's accesses (array.go) and the raw-address forms (GMReadErr,
// GMWriteErr, FetchAddErr, CASErr, the block and vectored forms, PingErr)
// return them, so a failure reaches the program classifiable with errors.As
// and with its original "timed out" / "is down" / "shut down" text.

// TimeoutError reports that a request exhausted its timeout (and, when
// retries are configured, every retry attempt).
type TimeoutError struct {
	PE       int // requesting PE
	Dst      int // home kernel the request was addressed to
	Op       string
	Attempts int // total send attempts (1 = no retries configured)
}

func (e *TimeoutError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("core: PE %d: %s request to kernel %d timed out after %d attempts", e.PE, e.Op, e.Dst, e.Attempts)
	}
	return fmt.Sprintf("core: PE %d: %s request to kernel %d timed out", e.PE, e.Op, e.Dst)
}

// PeerDownError reports that the transport declared the home kernel dead
// while a request was outstanding (or before it was sent). It arrives well
// before the request timeout would expire: peer-failure detection is what
// makes it fast.
type PeerDownError struct {
	PE   int // requesting PE
	Peer int // dead kernel
	Op   string
}

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("core: PE %d: %s request failed: peer %d is down", e.PE, e.Op, e.Peer)
}

// ShutdownError reports that the cluster shut down while a request was
// outstanding.
type ShutdownError struct {
	PE int
	Op string
}

func (e *ShutdownError) Error() string {
	return fmt.Sprintf("core: PE %d: cluster shut down during %s request", e.PE, e.Op)
}

// NamespaceError reports that a global-memory access touched memory outside
// the PE's bound namespace (dsesched per-job isolation, DESIGN.md §15). It
// is raised PE-side when the violation is detectable before leaving the PE,
// and mapped from the kernel's OpNsNack rejection otherwise — either way
// the foreign memory is never read or written.
type NamespaceError struct {
	PE    int    // requesting PE
	Op    string // the refused operation
	Addr  uint64 // offending address
	Base  uint64 // bound namespace [Base, Limit)
	Limit uint64
}

func (e *NamespaceError) Error() string {
	return fmt.Sprintf("core: PE %d: %s at address %d outside namespace [%d,%d)",
		e.PE, e.Op, e.Addr, e.Base, e.Limit)
}

// IndexError reports an Array access outside the array: Count elements from
// Index do not fit in its Len. It is raised before the access pipeline runs,
// so nothing is sent, recorded or changed.
type IndexError struct {
	PE    int    // requesting PE
	Op    string // the refused operation
	Index int
	Count int
	Len   int
}

func (e *IndexError) Error() string {
	return fmt.Sprintf("core: PE %d: %s of %d elements at index %d outside an array of %d",
		e.PE, e.Op, e.Count, e.Index, e.Len)
}
