// Package procmgmt implements the DSE parallel process management module:
// a cluster-global process table with single-system-image semantics. Every
// DSE process receives a global PID regardless of which kernel and machine
// hosts it, and any kernel can enumerate the whole table — the user sees
// one machine (the SSI goal of the paper), not a collection of nodes.
//
// The table itself lives at kernel 0; other kernels interact with it
// through OpProcRegister/OpProcExit/OpProcList messages. This package holds
// the table data structure and its wire encoding; the message plumbing is
// in internal/core.
package procmgmt

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/sim"
)

// State is a process's lifecycle state.
type State uint8

// Process states.
const (
	StateRunning State = iota + 1
	StateExited
)

func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateExited:
		return "exited"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Entry is one row of the global process table.
type Entry struct {
	GPID     int64  // cluster-global process id
	Kernel   int32  // hosting DSE kernel
	Host     string // hosting physical machine
	State    State
	Start    sim.Time
	End      sim.Time
	ExitCode int64
}

// Table is the global process table. Safe for concurrent use.
type Table struct {
	mu      sync.Mutex
	entries map[int64]*Entry
	next    int64
}

// NewTable returns an empty table; GPIDs start at 1.
func NewTable() *Table {
	return &Table{entries: make(map[int64]*Entry)}
}

// Register adds a running process hosted by kernel on host and returns its
// new global PID.
func (t *Table) Register(kernel int32, host string, now sim.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	gpid := t.next
	t.entries[gpid] = &Entry{
		GPID: gpid, Kernel: kernel, Host: host,
		State: StateRunning, Start: now,
	}
	return gpid
}

// Exit marks gpid exited with the given code.
func (t *Table) Exit(gpid, code int64, now sim.Time) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[gpid]
	if !ok {
		return fmt.Errorf("procmgmt: unknown gpid %d", gpid)
	}
	if e.State == StateExited {
		return fmt.Errorf("procmgmt: gpid %d already exited", gpid)
	}
	e.State = StateExited
	e.End = now
	e.ExitCode = code
	return nil
}

// Snapshot returns all entries ordered by GPID.
func (t *Table) Snapshot() []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].GPID < out[j].GPID })
	return out
}

// EncodeSnapshot serialises entries for an OpProcListResp payload.
func EncodeSnapshot(entries []Entry) []byte {
	var buf []byte
	var b8 [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b8[:], v)
		buf = append(buf, b8[:]...)
	}
	put(uint64(len(entries)))
	for _, e := range entries {
		put(uint64(e.GPID))
		put(uint64(int64(e.Kernel)))
		put(uint64(e.State))
		put(uint64(e.Start))
		put(uint64(e.End))
		put(uint64(e.ExitCode))
		put(uint64(len(e.Host)))
		buf = append(buf, e.Host...)
	}
	return buf
}

// DecodeSnapshot parses an EncodeSnapshot payload.
func DecodeSnapshot(buf []byte) ([]Entry, error) {
	off := 0
	get := func() (uint64, error) {
		if off+8 > len(buf) {
			return 0, fmt.Errorf("procmgmt: truncated snapshot at byte %d", off)
		}
		v := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		return v, nil
	}
	n, err := get()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(buf)) { // cheap sanity bound: each entry is >= 56 bytes
		return nil, fmt.Errorf("procmgmt: implausible entry count %d", n)
	}
	out := make([]Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		var e Entry
		var v uint64
		if v, err = get(); err != nil {
			return nil, err
		}
		e.GPID = int64(v)
		if v, err = get(); err != nil {
			return nil, err
		}
		e.Kernel = int32(int64(v))
		if v, err = get(); err != nil {
			return nil, err
		}
		e.State = State(v)
		if v, err = get(); err != nil {
			return nil, err
		}
		e.Start = sim.Time(v)
		if v, err = get(); err != nil {
			return nil, err
		}
		e.End = sim.Time(v)
		if v, err = get(); err != nil {
			return nil, err
		}
		e.ExitCode = int64(v)
		if v, err = get(); err != nil {
			return nil, err
		}
		if off+int(v) > len(buf) {
			return nil, fmt.Errorf("procmgmt: truncated hostname")
		}
		e.Host = string(buf[off : off+int(v)])
		off += int(v)
		out = append(out, e)
	}
	return out, nil
}
