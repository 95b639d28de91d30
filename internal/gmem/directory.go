package gmem

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// MemberState is one kernel's standing in the elastic membership protocol.
type MemberState uint8

// Member states. Latent kernels are provisioned (transport attached, kernel
// serving) but own no global memory until they Join; Left kernels departed
// gracefully and handed their blocks off first; Dead kernels were declared
// down by the failure detector with no handoff.
const (
	MemberActive MemberState = iota
	MemberLatent
	MemberLeft
	MemberDead
)

func (s MemberState) String() string {
	switch s {
	case MemberActive:
		return "active"
	case MemberLatent:
		return "latent"
	case MemberLeft:
		return "left"
	case MemberDead:
		return "dead"
	}
	return fmt.Sprintf("MemberState(%d)", uint8(s))
}

// Member is one kernel's membership record.
type Member struct {
	State MemberState
	// Gen is the membership generation of the member's last transition
	// (last-writer-wins: a transition only applies if its generation is
	// newer than the one recorded here).
	Gen uint64
}

// dirState is one immutable generation of a Directory: readers load the
// pointer once and see a consistent members + overrides view; writers clone
// and swap under the Directory mutex.
type dirState struct {
	members   []Member
	overrides map[uint64]int // block index -> explicit home (from MigrateRange)
	epoch     uint64         // highest membership generation observed
}

// Directory maps global memory blocks to their current home under elastic
// membership. The default placement is the probe rule: block b is homed at
// the first Active member scanning forward (wrapping) from b % N — the
// block-cyclic layout of a static cluster degenerates to exactly HomeOf when
// every member is active, and a join or leave re-homes an unbounded address
// space by flipping one member's state instead of enumerating blocks.
// Explicit per-block overrides (installed by range migration, or learned
// from a NACK hint) take precedence over the probe rule.
//
// Every kernel (and its PEs) holds its own Directory; views converge through
// the OpEpochUpdate broadcast and lazily through NACK hints. A fully static
// directory (all members active, no overrides) publishes a flag, and
// HomeOfBlock — which every other lookup goes through — answers b % N on that
// one predictable branch; otherwise a lookup is one atomic pointer load, the
// override map and the probe rule.
type Directory struct {
	n      int
	state  atomic.Pointer[dirState]
	static atomic.Bool
	mu     sync.Mutex // serialises writers
}

// NewDirectory creates a directory over n members. The trailing latent
// members start as MemberLatent (provisioned but owning nothing); the rest
// are Active. latent must leave member 0 active — kernel 0 hosts the
// synchronisation managers and the membership grant service.
func NewDirectory(n, latent int) *Directory {
	if n <= 0 {
		panic("gmem: directory needs at least one member")
	}
	if latent < 0 || latent >= n {
		panic(fmt.Sprintf("gmem: %d latent members of %d leaves no active member", latent, n))
	}
	d := &Directory{n: n}
	st := &dirState{members: make([]Member, n)}
	for i := n - latent; i < n; i++ {
		st.members[i].State = MemberLatent
	}
	d.state.Store(st)
	d.static.Store(latent == 0)
	return d
}

// Static reports whether the directory is degenerate — every member active,
// no overrides — so callers may use the pure block-cyclic Space.HomeOf.
func (d *Directory) Static() bool { return d.static.Load() }

// Epoch returns the highest membership generation observed.
func (d *Directory) Epoch() uint64 { return d.state.Load().epoch }

// N returns the member count (the Space's kernel count).
func (d *Directory) N() int { return d.n }

// Members returns a copy of the membership table.
func (d *Directory) Members() []Member {
	st := d.state.Load()
	out := make([]Member, len(st.members))
	copy(out, st.members)
	return out
}

// Member returns one member's record.
func (d *Directory) Member(id int) Member { return d.state.Load().members[id] }

// HomeOfBlock returns block b's current home. The flag and the state are two
// atomics, the flag stored last: a lookup racing the first transition may still
// answer from the static layout, which is the answer it would have had an
// instant earlier.
func (d *Directory) HomeOfBlock(b uint64) int {
	if d.static.Load() {
		return int(b % uint64(d.n))
	}
	return d.liveHome(b)
}

// HomeAt is HomeOfBlock for a located block: the static layout's answer is
// the remainder Locate already took.
func (d *Directory) HomeAt(l Loc) int {
	if d.static.Load() {
		return l.Home
	}
	return d.liveHome(l.Block)
}

// liveHome is HomeOfBlock past the static flag.
func (d *Directory) liveHome(b uint64) int { return d.state.Load().home(d.n, b) }

// home is block b's home in st: its override, else the probe rule.
func (st *dirState) home(n int, b uint64) int {
	if h, ok := st.overrides[b]; ok {
		return h
	}
	return probeHome(st.members, n, b)
}

// probeHome applies the probe rule: first Active member scanning forward
// (wrapping) from b % n. With no active member at all it falls back to the
// static home so lookups stay total.
func probeHome(members []Member, n int, b uint64) int {
	h := int(b % uint64(n))
	for i := 0; i < n; i++ {
		if m := (h + i) % n; members[m].State == MemberActive {
			return m
		}
	}
	return h
}

// HomeOf returns the home of word address addr under space's block layout.
func (d *Directory) HomeOf(space Space, addr uint64) int {
	return d.HomeOfBlock(space.BlockOf(addr))
}

// Owns reports whether kernel self currently homes block b.
func (d *Directory) Owns(self int, b uint64) bool { return d.HomeOfBlock(b) == self }

// mutate clones the current state, applies fn, recomputes the fast-path
// flag and publishes the new generation.
func (d *Directory) mutate(fn func(st *dirState)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.state.Load()
	st := &dirState{
		members:   append([]Member(nil), old.members...),
		epoch:     old.epoch,
		overrides: make(map[uint64]int, len(old.overrides)),
	}
	for b, h := range old.overrides {
		st.overrides[b] = h
	}
	fn(st)
	static := len(st.overrides) == 0
	for i := range st.members {
		if st.members[i].State != MemberActive {
			static = false
			break
		}
	}
	d.state.Store(st)
	d.static.Store(static)
}

// SetOverride pins block b's home to home, superseding the probe rule.
// Requesters also use it to cache a NACK's new-home hint.
func (d *Directory) SetOverride(b uint64, home int) { d.SetOverrideRange(b, 1, home) }

// CacheHint is SetOverride for a requester caching a NACK's new-home hint in
// the directory of its own kernel self, which is also that kernel's word on
// what it homes: a hint naming self, or one for a block self homes by now, is
// left out. The check is made under the lock the kernel's own flips take, so
// a hint that was stale when it arrived cannot disown a block the kernel has
// adopted since — which would leave it and the old home each naming the other.
func (d *Directory) CacheHint(b uint64, home, self int) {
	d.mutate(func(st *dirState) {
		if home != self && st.home(d.n, b) != self {
			st.overrides[b] = home
		}
	})
}

// SetOverrideRange pins n consecutive blocks starting at block b to home.
func (d *Directory) SetOverrideRange(b uint64, n int, home int) {
	d.mutate(func(st *dirState) {
		for i := 0; i < n; i++ {
			st.overrides[b+uint64(i)] = home
		}
	})
}

// RewriteOverrides repoints every override targeting from at to — a leaving
// member redirects its explicitly-migrated blocks to its successor.
func (d *Directory) RewriteOverrides(from, to int) {
	d.mutate(func(st *dirState) {
		for b, h := range st.overrides {
			if h == from {
				st.overrides[b] = to
			}
		}
	})
}

// Overrides returns a copy of the override table (for snapshots).
func (d *Directory) Overrides() map[uint64]int {
	st := d.state.Load()
	if len(st.overrides) == 0 {
		return nil
	}
	out := make(map[uint64]int, len(st.overrides))
	for b, h := range st.overrides {
		out[b] = h
	}
	return out
}

// SetMember applies a membership transition if gen is newer than the
// member's recorded generation (last-writer-wins, so concurrent or replayed
// OpEpochUpdate broadcasts converge in any delivery order). It reports
// whether the transition applied.
func (d *Directory) SetMember(id int, state MemberState, gen uint64) bool {
	if id < 0 || id >= d.n {
		return false
	}
	applied := false
	d.mutate(func(st *dirState) {
		if gen <= st.members[id].Gen {
			return
		}
		st.members[id] = Member{State: state, Gen: gen}
		if gen > st.epoch {
			st.epoch = gen
		}
		applied = true
	})
	return applied
}

// Successor returns the first Active member after id (wrapping), excluding
// id itself — the handoff target of a leave and the prior holder of a
// joiner's blocks. ok is false when no other active member exists.
func (d *Directory) Successor(id int) (succ int, ok bool) {
	st := d.state.Load()
	for i := 1; i < d.n; i++ {
		m := (id + i) % d.n
		if st.members[m].State == MemberActive {
			return m, true
		}
	}
	return id, false
}
