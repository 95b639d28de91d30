// Package ckpt implements the coordinated checkpoint/restart subsystem: the
// snapshot encoding and the pluggable store the DSE runtime writes snapshot
// generations through.
//
// A checkpoint generation is one coordinated snapshot of the whole cluster,
// taken at a quiesce barrier: one slice per PE, each slice carrying the PE's
// application progress (epoch counter plus a user-supplied state blob) and
// its kernel's slice of global memory with the coherence directory. Slices
// are written first, then the generation is committed atomically; a
// generation without a committed manifest never existed as far as recovery
// is concerned, which is what makes a crash during checkpointing harmless.
//
// The concrete store, DirStore, is a local directory:
//
//	objects/<sha256>   content-addressed, CRC-framed slice payloads
//	staging/g<G>-p<P>  uncommitted slice pointers (hash per PE)
//	manifests/g<G>     committed generations (written via rename)
//
// Every object is verified twice on read — frame CRC32 and the content
// address itself — so a corrupted snapshot fails recovery loudly instead of
// restoring garbage.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"crypto/sha256"
	"encoding/hex"

	"repro/internal/gmem"
	"repro/internal/sim"
)

// Slice is one PE's contribution to a checkpoint generation.
type Slice struct {
	Epoch    uint64   // checkpoint epoch (== generation number)
	MarkTime sim.Time // kernel clock when the mark was served
	App      []byte   // user state blob from pe.RegisterCheckpoint's save
	Kernel   []byte   // EncodeKernelState: GM blocks + coherence directory
}

// Store is the pluggable snapshot backend. WriteSlice stages one PE's slice
// for a generation; Commit makes the generation durable and visible to
// Latest only once every PE's slice is staged. Implementations must make
// Commit atomic: a generation is either complete or absent.
type Store interface {
	WriteSlice(gen uint64, pe int, data []byte) error
	ReadSlice(gen uint64, pe int) ([]byte, error)
	Commit(gen uint64, numPE int) error
	// Latest reports the newest committed generation (ok=false when none).
	Latest() (gen uint64, numPE int, ok bool, err error)
	// GC drops all but the newest keep committed generations and any
	// objects only they referenced.
	GC(keep int) error
}

// --- Slice encoding ---

var (
	sliceMagic  = [8]byte{'D', 'S', 'E', 'C', 'K', 'P', 'T', '1'}
	objectMagic = [8]byte{'D', 'S', 'E', 'O', 'B', 'J', '1', 0}
)

// EncodeSlice serialises a slice for the store.
func EncodeSlice(s Slice) []byte {
	buf := make([]byte, 0, 8+8+8+8+len(s.App)+8+len(s.Kernel))
	buf = append(buf, sliceMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, s.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.MarkTime))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.App)))
	buf = append(buf, s.App...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.Kernel)))
	buf = append(buf, s.Kernel...)
	return buf
}

// DecodeSlice parses an EncodeSlice payload.
func DecodeSlice(data []byte) (Slice, error) {
	var s Slice
	if len(data) < 8+8+8+8 || string(data[:8]) != string(sliceMagic[:]) {
		return s, errors.New("ckpt: not a checkpoint slice (bad magic)")
	}
	off := 8
	get := func() (uint64, error) {
		if off+8 > len(data) {
			return 0, fmt.Errorf("ckpt: truncated slice at byte %d", off)
		}
		v := binary.LittleEndian.Uint64(data[off:])
		off += 8
		return v, nil
	}
	var v uint64
	var err error
	if v, err = get(); err != nil {
		return s, err
	}
	s.Epoch = v
	if v, err = get(); err != nil {
		return s, err
	}
	s.MarkTime = sim.Time(v)
	if v, err = get(); err != nil {
		return s, err
	}
	if v > uint64(len(data)-off) {
		return s, errors.New("ckpt: truncated app blob")
	}
	if v > 0 {
		s.App = append([]byte(nil), data[off:off+int(v)]...)
	}
	off += int(v)
	if v, err = get(); err != nil {
		return s, err
	}
	if v > uint64(len(data)-off) {
		return s, errors.New("ckpt: truncated kernel state")
	}
	if v > 0 {
		s.Kernel = append([]byte(nil), data[off:off+int(v)]...)
	}
	return s, nil
}

// EncodeKernelState serialises a kernel's GM slice (gmem.Segment.Export) for
// a Slice's Kernel field.
func EncodeKernelState(blockWords int, blocks []gmem.BlockSnapshot) []byte {
	n := 16
	for _, b := range blocks {
		n += 16 + 8*len(b.Words) + 8*len(b.Copyset)
	}
	buf := make([]byte, 0, n)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(blockWords))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(blocks)))
	for _, b := range blocks {
		buf = binary.LittleEndian.AppendUint64(buf, b.Index)
		for _, w := range b.Words {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(b.Copyset)))
		for _, k := range b.Copyset {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
		}
	}
	return buf
}

// DecodeKernelState parses an EncodeKernelState payload, ignoring any V2
// membership trailer (see DecodeKernelStateDir).
func DecodeKernelState(data []byte) (blockWords int, blocks []gmem.BlockSnapshot, err error) {
	blockWords, blocks, _, err = decodeKernelBlocks(data)
	return blockWords, blocks, err
}

// decodeKernelBlocks parses the V1 block list and returns the offset one
// past it, where a V2 trailer (if any) begins.
func decodeKernelBlocks(data []byte) (blockWords int, blocks []gmem.BlockSnapshot, end int, err error) {
	off := 0
	get := func() (uint64, error) {
		if off+8 > len(data) {
			return 0, fmt.Errorf("ckpt: truncated kernel state at byte %d", off)
		}
		v := binary.LittleEndian.Uint64(data[off:])
		off += 8
		return v, nil
	}
	bw, err := get()
	if err != nil {
		return 0, nil, 0, err
	}
	nb, err := get()
	if err != nil {
		return 0, nil, 0, err
	}
	if bw == 0 || bw > 1<<20 || nb > uint64(len(data)) {
		return 0, nil, 0, fmt.Errorf("ckpt: implausible kernel state (blockWords=%d, blocks=%d)", bw, nb)
	}
	blocks = make([]gmem.BlockSnapshot, 0, nb)
	seen := make(map[uint64]bool)
	for i := uint64(0); i < nb; i++ {
		var b gmem.BlockSnapshot
		if b.Index, err = get(); err != nil {
			return 0, nil, 0, err
		}
		if seen[b.Index] {
			return 0, nil, 0, fmt.Errorf("ckpt: kernel state lists block %d twice", b.Index)
		}
		seen[b.Index] = true
		b.Words = make([]int64, bw)
		for w := range b.Words {
			var v uint64
			if v, err = get(); err != nil {
				return 0, nil, 0, err
			}
			b.Words[w] = int64(v)
		}
		var nc uint64
		if nc, err = get(); err != nil {
			return 0, nil, 0, err
		}
		if nc > uint64(len(data)) {
			return 0, nil, 0, fmt.Errorf("ckpt: implausible copyset size %d", nc)
		}
		for c := uint64(0); c < nc; c++ {
			var v uint64
			if v, err = get(); err != nil {
				return 0, nil, 0, err
			}
			b.Copyset = append(b.Copyset, int(v))
		}
		blocks = append(blocks, b)
	}
	return int(bw), blocks, off, nil
}

// --- Directory (elastic membership) snapshot: kernel-state V2 trailer ---

// dirMagic introduces the optional V2 trailer appended after the block list
// by EncodeKernelStateDir. A V1 payload ends exactly at the last block, so
// presence of the trailer is unambiguous.
var dirMagic = [8]byte{'D', 'S', 'E', 'D', 'I', 'R', '2', 0}

// MemberSnapshot is one member's state in a directory snapshot.
type MemberSnapshot struct {
	State uint64 // gmem.MemberState
	Gen   uint64 // membership generation of the last transition
}

// EscrowSnapshot is a block the kernel had extracted for a migration whose
// commit had not yet arrived at mark time: the data plus its destination,
// so a restored cluster can re-offer it instead of losing the handoff.
type EscrowSnapshot struct {
	Dst   int
	Block gmem.BlockSnapshot
}

// DirectorySnapshot captures a kernel's membership directory for the
// manifest: epoch, per-member states, explicit overrides and in-flight
// escrow. Nil means the snapshot predates elastic membership (V1).
type DirectorySnapshot struct {
	Epoch     uint64
	Members   []MemberSnapshot
	Overrides [][2]uint64 // (block index, home)
	Escrow    []EscrowSnapshot
}

// EncodeKernelStateDir is EncodeKernelState plus the V2 membership trailer.
// A nil dir encodes the V1 payload unchanged.
func EncodeKernelStateDir(blockWords int, blocks []gmem.BlockSnapshot, dir *DirectorySnapshot) []byte {
	buf := EncodeKernelState(blockWords, blocks)
	if dir == nil {
		return buf
	}
	buf = append(buf, dirMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, dir.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(dir.Members)))
	for _, m := range dir.Members {
		buf = binary.LittleEndian.AppendUint64(buf, m.State)
		buf = binary.LittleEndian.AppendUint64(buf, m.Gen)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(dir.Overrides)))
	for _, ov := range dir.Overrides {
		buf = binary.LittleEndian.AppendUint64(buf, ov[0])
		buf = binary.LittleEndian.AppendUint64(buf, ov[1])
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(dir.Escrow)))
	for _, e := range dir.Escrow {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Dst))
		buf = binary.LittleEndian.AppendUint64(buf, e.Block.Index)
		for _, w := range e.Block.Words {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(e.Block.Copyset)))
		for _, k := range e.Block.Copyset {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
		}
	}
	return buf
}

// DecodeKernelStateDir parses an EncodeKernelStateDir payload. dir is nil
// for a V1 payload (no trailer).
func DecodeKernelStateDir(data []byte) (blockWords int, blocks []gmem.BlockSnapshot, dir *DirectorySnapshot, err error) {
	blockWords, blocks, off, err := decodeKernelBlocks(data)
	if err != nil {
		return 0, nil, nil, err
	}
	if off == len(data) {
		return blockWords, blocks, nil, nil // V1
	}
	if off+8 > len(data) || string(data[off:off+8]) != string(dirMagic[:]) {
		return 0, nil, nil, errors.New("ckpt: kernel state has trailing bytes that are not a directory trailer")
	}
	off += 8
	get := func() (uint64, error) {
		if off+8 > len(data) {
			return 0, fmt.Errorf("ckpt: truncated directory trailer at byte %d", off)
		}
		v := binary.LittleEndian.Uint64(data[off:])
		off += 8
		return v, nil
	}
	d := &DirectorySnapshot{}
	if d.Epoch, err = get(); err != nil {
		return 0, nil, nil, err
	}
	nm, err := get()
	if err != nil {
		return 0, nil, nil, err
	}
	if nm > uint64(len(data)) {
		return 0, nil, nil, fmt.Errorf("ckpt: implausible member count %d", nm)
	}
	for i := uint64(0); i < nm; i++ {
		var m MemberSnapshot
		if m.State, err = get(); err != nil {
			return 0, nil, nil, err
		}
		if m.Gen, err = get(); err != nil {
			return 0, nil, nil, err
		}
		d.Members = append(d.Members, m)
	}
	nov, err := get()
	if err != nil {
		return 0, nil, nil, err
	}
	if nov > uint64(len(data)) {
		return 0, nil, nil, fmt.Errorf("ckpt: implausible override count %d", nov)
	}
	for i := uint64(0); i < nov; i++ {
		var b, h uint64
		if b, err = get(); err != nil {
			return 0, nil, nil, err
		}
		if h, err = get(); err != nil {
			return 0, nil, nil, err
		}
		d.Overrides = append(d.Overrides, [2]uint64{b, h})
	}
	ne, err := get()
	if err != nil {
		return 0, nil, nil, err
	}
	if ne > uint64(len(data)) {
		return 0, nil, nil, fmt.Errorf("ckpt: implausible escrow count %d", ne)
	}
	for i := uint64(0); i < ne; i++ {
		var e EscrowSnapshot
		var v uint64
		if v, err = get(); err != nil {
			return 0, nil, nil, err
		}
		e.Dst = int(v)
		if e.Block.Index, err = get(); err != nil {
			return 0, nil, nil, err
		}
		e.Block.Words = make([]int64, blockWords)
		for w := range e.Block.Words {
			if v, err = get(); err != nil {
				return 0, nil, nil, err
			}
			e.Block.Words[w] = int64(v)
		}
		var nc uint64
		if nc, err = get(); err != nil {
			return 0, nil, nil, err
		}
		if nc > uint64(len(data)) {
			return 0, nil, nil, fmt.Errorf("ckpt: implausible escrow copyset size %d", nc)
		}
		for c := uint64(0); c < nc; c++ {
			if v, err = get(); err != nil {
				return 0, nil, nil, err
			}
			e.Block.Copyset = append(e.Block.Copyset, int(v))
		}
		d.Escrow = append(d.Escrow, e)
	}
	return blockWords, blocks, d, nil
}

// --- DirStore ---

// DirStore is the local-directory Store: content-addressed objects with a
// CRC-framed payload, per-generation manifests committed by atomic rename.
// Safe for use by every PE of an in-process cluster and by multiple OS
// processes sharing the directory (each write lands under a unique temp name
// before its rename).
type DirStore struct {
	root string
}

// OpenDir opens (creating if needed) a snapshot directory.
func OpenDir(root string) (*DirStore, error) {
	for _, d := range []string{root, filepath.Join(root, "objects"), filepath.Join(root, "staging"), filepath.Join(root, "manifests")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
	}
	return &DirStore{root: root}, nil
}

// Root returns the store's directory.
func (d *DirStore) Root() string { return d.root }

// frame wraps payload as an object file: magic, length, CRC32, payload.
func frame(payload []byte) []byte {
	buf := make([]byte, 0, len(objectMagic)+8+4+len(payload))
	buf = append(buf, objectMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// unframe validates and strips an object frame.
func unframe(buf []byte) ([]byte, error) {
	hdr := len(objectMagic) + 8 + 4
	if len(buf) < hdr || string(buf[:8]) != string(objectMagic[:]) {
		return nil, errors.New("ckpt: corrupt snapshot object (bad magic)")
	}
	n := binary.LittleEndian.Uint64(buf[8:])
	crc := binary.LittleEndian.Uint32(buf[16:])
	if n != uint64(len(buf)-hdr) {
		return nil, errors.New("ckpt: corrupt snapshot object (length mismatch)")
	}
	payload := buf[hdr:]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, errors.New("ckpt: corrupt snapshot object (CRC mismatch)")
	}
	return payload, nil
}

func (d *DirStore) objectPath(hash string) string {
	return filepath.Join(d.root, "objects", hash)
}

func (d *DirStore) stagingPath(gen uint64, pe int) string {
	return filepath.Join(d.root, "staging", fmt.Sprintf("g%d-p%d", gen, pe))
}

func (d *DirStore) manifestPath(gen uint64) string {
	return filepath.Join(d.root, "manifests", fmt.Sprintf("g%d", gen))
}

// writeAtomic writes data to path via a unique temp file + rename, so a
// crash mid-write can never leave a half-written file under the final name.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// WriteSlice stores one PE's slice payload as a content-addressed object and
// stages its hash for Commit.
func (d *DirStore) WriteSlice(gen uint64, pe int, data []byte) error {
	sum := sha256.Sum256(data)
	hash := hex.EncodeToString(sum[:])
	obj := d.objectPath(hash)
	if _, err := os.Stat(obj); err != nil {
		if err := writeAtomic(obj, frame(data)); err != nil {
			return fmt.Errorf("ckpt: writing object: %w", err)
		}
	}
	if err := writeAtomic(d.stagingPath(gen, pe), []byte(hash+"\n")); err != nil {
		return fmt.Errorf("ckpt: staging slice: %w", err)
	}
	return nil
}

// ReadSlice loads and verifies one PE's slice of a committed generation.
func (d *DirStore) ReadSlice(gen uint64, pe int) ([]byte, error) {
	hashes, _, err := d.readManifest(gen)
	if err != nil {
		return nil, err
	}
	if pe < 0 || pe >= len(hashes) {
		return nil, fmt.Errorf("ckpt: generation %d has no PE %d", gen, pe)
	}
	return d.readObject(hashes[pe])
}

func (d *DirStore) readObject(hash string) ([]byte, error) {
	buf, err := os.ReadFile(d.objectPath(hash))
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	payload, err := unframe(buf)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != hash {
		return nil, errors.New("ckpt: corrupt snapshot object (content hash mismatch)")
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, nil
}

// Commit publishes generation gen: every staged slice 0..numPE-1 must be
// present. The manifest is written via rename, so Latest either sees the
// whole generation or none of it; the staging entries are consumed.
func (d *DirStore) Commit(gen uint64, numPE int) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ckpt-manifest v1\ngen %d\nnumpe %d\n", gen, numPE)
	for pe := 0; pe < numPE; pe++ {
		raw, err := os.ReadFile(d.stagingPath(gen, pe))
		if err != nil {
			return fmt.Errorf("ckpt: commit of generation %d: slice for PE %d not staged: %w", gen, pe, err)
		}
		hash := strings.TrimSpace(string(raw))
		if len(hash) != sha256.Size*2 {
			return fmt.Errorf("ckpt: commit of generation %d: malformed staging entry for PE %d", gen, pe)
		}
		fmt.Fprintf(&sb, "pe %d %s\n", pe, hash)
	}
	if err := writeAtomic(d.manifestPath(gen), []byte(sb.String())); err != nil {
		return fmt.Errorf("ckpt: committing manifest: %w", err)
	}
	for pe := 0; pe < numPE; pe++ {
		os.Remove(d.stagingPath(gen, pe))
	}
	return nil
}

// readManifest parses a committed generation's manifest into per-PE hashes.
func (d *DirStore) readManifest(gen uint64) (hashes []string, numPE int, err error) {
	raw, err := os.ReadFile(d.manifestPath(gen))
	if err != nil {
		return nil, 0, fmt.Errorf("ckpt: generation %d not committed: %w", gen, err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 3 || lines[0] != "ckpt-manifest v1" {
		return nil, 0, fmt.Errorf("ckpt: generation %d: malformed manifest", gen)
	}
	var g uint64
	if _, err := fmt.Sscanf(lines[1], "gen %d", &g); err != nil || g != gen {
		return nil, 0, fmt.Errorf("ckpt: generation %d: manifest names generation %d", gen, g)
	}
	if _, err := fmt.Sscanf(lines[2], "numpe %d", &numPE); err != nil || numPE <= 0 {
		return nil, 0, fmt.Errorf("ckpt: generation %d: malformed numpe line", gen)
	}
	hashes = make([]string, numPE)
	for _, ln := range lines[3:] {
		var pe int
		var hash string
		if _, err := fmt.Sscanf(ln, "pe %d %s", &pe, &hash); err != nil || pe < 0 || pe >= numPE {
			return nil, 0, fmt.Errorf("ckpt: generation %d: malformed manifest line %q", gen, ln)
		}
		hashes[pe] = hash
	}
	for pe, h := range hashes {
		if h == "" {
			return nil, 0, fmt.Errorf("ckpt: generation %d: manifest missing PE %d", gen, pe)
		}
	}
	return hashes, numPE, nil
}

// generations lists committed generation numbers, ascending. Temp files and
// anything unparseable are ignored: an interrupted commit left them, and
// they were never visible.
func (d *DirStore) generations() ([]uint64, error) {
	ents, err := os.ReadDir(filepath.Join(d.root, "manifests"))
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var gens []uint64
	for _, e := range ents {
		var g uint64
		if _, err := fmt.Sscanf(e.Name(), "g%d", &g); err == nil && fmt.Sprintf("g%d", g) == e.Name() {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Latest reports the newest committed generation.
func (d *DirStore) Latest() (gen uint64, numPE int, ok bool, err error) {
	gens, err := d.generations()
	if err != nil || len(gens) == 0 {
		return 0, 0, false, err
	}
	gen = gens[len(gens)-1]
	_, numPE, err = d.readManifest(gen)
	if err != nil {
		return 0, 0, false, err
	}
	return gen, numPE, true, nil
}

// GC keeps the newest keep committed generations, deleting older manifests,
// their staging leftovers, and every object no kept generation references.
func (d *DirStore) GC(keep int) error {
	if keep < 1 {
		keep = 1
	}
	gens, err := d.generations()
	if err != nil {
		return err
	}
	if len(gens) <= keep {
		return nil
	}
	dead, live := gens[:len(gens)-keep], gens[len(gens)-keep:]
	referenced := make(map[string]bool)
	for _, g := range live {
		hashes, _, err := d.readManifest(g)
		if err != nil {
			return err
		}
		for _, h := range hashes {
			referenced[h] = true
		}
	}
	for _, g := range dead {
		if err := os.Remove(d.manifestPath(g)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("ckpt: gc: %w", err)
		}
	}
	// Drop unreferenced objects and stale staging entries for dead gens.
	objs, err := os.ReadDir(filepath.Join(d.root, "objects"))
	if err != nil {
		return fmt.Errorf("ckpt: gc: %w", err)
	}
	for _, e := range objs {
		if !referenced[e.Name()] && !strings.HasPrefix(e.Name(), ".tmp-") {
			os.Remove(d.objectPath(e.Name()))
		}
	}
	for _, g := range dead {
		stag, err := filepath.Glob(filepath.Join(d.root, "staging", fmt.Sprintf("g%d-p*", g)))
		if err == nil {
			for _, p := range stag {
				os.Remove(p)
			}
		}
	}
	return nil
}
