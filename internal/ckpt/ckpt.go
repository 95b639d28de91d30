// Package ckpt implements the coordinated checkpoint/restart subsystem: the
// snapshot encoding and the pluggable store the DSE runtime writes snapshot
// generations through.
//
// A checkpoint generation is one coordinated snapshot of the whole cluster,
// taken at a quiesce barrier: one slice per PE, each slice carrying the PE's
// application progress (epoch counter plus a user-supplied state blob) and
// its kernel's slice of global memory with its membership directory. Slices
// are written first, then the generation is committed atomically; a
// generation without its commit marker never existed as far as recovery is
// concerned, which is what makes a crash during checkpointing harmless.
//
// The concrete store, DirStore, is a local directory:
//
//	g<G>/p<P>        PE P's slice of generation G, framed
//	g<G>/committed   the commit marker (written via rename)
//
// A slice file's frame names its generation and PE and carries the
// payload's length, CRC32 and SHA-256, all verified on read, so a corrupted
// snapshot, or a slice file copied under another name, fails recovery loudly
// instead of restoring garbage.
package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/gmem"
	"repro/internal/sim"
)

// Slice is one PE's contribution to a checkpoint generation.
type Slice struct {
	Epoch    uint64   // checkpoint epoch (== generation number)
	MarkTime sim.Time // kernel clock when the mark was served
	App      []byte   // user state blob from pe.RegisterCheckpoint's save
	Kernel   []byte   // EncodeKernelState(Dir): GM blocks + membership directory
}

// Store is the pluggable snapshot backend. WriteSlice writes one PE's slice
// for a generation; Commit makes the generation durable and visible to
// Latest only once every PE's slice is written, and may drop older
// generations. Implementations must make Commit atomic: a generation is
// either complete or absent.
type Store interface {
	WriteSlice(gen uint64, pe int, data []byte) error
	ReadSlice(gen uint64, pe int) ([]byte, error)
	Commit(gen uint64, numPE int) error
	// Latest reports the newest committed generation (ok=false when none).
	Latest() (gen uint64, numPE int, ok bool, err error)
}

// --- Slice encoding ---

var (
	sliceMagic = [8]byte{'D', 'S', 'E', 'C', 'K', 'P', 'T', '1'}
	fileMagic  = [8]byte{'D', 'S', 'E', 'S', 'L', 'C', '1', 0}
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
	if len(data) < len(sliceMagic) || string(data[:len(sliceMagic)]) != string(sliceMagic[:]) {
		return Slice{}, errors.New("ckpt: not a checkpoint slice (bad magic)")
	}
	d := &decoder{data: data, off: len(sliceMagic), section: "slice"}
	var s Slice
	s.Epoch = d.u64()
	s.MarkTime = sim.Time(d.u64())
	s.App = d.blob("app blob")
	s.Kernel = d.blob("kernel state")
	if d.off != len(data) {
		d.fail("slice has trailing bytes after its kernel state")
	}
	if d.err != nil {
		return Slice{}, d.err
	}
	return s, nil
}

// EncodeKernelState serialises a kernel's GM slice (gmem.Segment.Export) for
// a Slice's Kernel field: block size, block count, then one appendBlock
// entry per block.
func EncodeKernelState(blockWords int, blocks []gmem.BlockSnapshot) []byte {
	n := 16
	for _, b := range blocks {
		n += 8 + 8*len(b.Words)
	}
	buf := make([]byte, 0, n)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(blockWords))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(blocks)))
	for _, b := range blocks {
		buf = appendBlock(buf, b)
	}
	return buf
}

// appendBlock encodes one block: index, then words. The block list and every
// escrow entry of the V2 trailer use it.
func appendBlock(buf []byte, b gmem.BlockSnapshot) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, b.Index)
	for _, w := range b.Words {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
	}
	return buf
}

// decoder reads a little-endian uint64 stream. The first failure sticks in
// err and every later read returns zero, so a caller checks err once, at the
// end. section names the part being read in truncation errors.
type decoder struct {
	data    []byte
	off     int
	section string
	err     error
}

// fail records the first failure.
func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.data) {
		d.fail("truncated %s at byte %d", d.section, d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

// blob reads a length-prefixed byte string, nil when empty.
func (d *decoder) blob(what string) []byte {
	n := d.u64()
	if n > uint64(len(d.data)-d.off) {
		d.fail("truncated %s", what)
		return nil
	}
	if n == 0 {
		return nil
	}
	d.off += int(n)
	return bytes.Clone(d.data[d.off-int(n) : d.off])
}

// count reads a list length, refusing one the payload cannot hold.
func (d *decoder) count(what string) uint64 {
	n := d.u64()
	if n > uint64(len(d.data)) {
		d.fail("implausible %s %d", what, n)
		return 0
	}
	return n
}

// id reads a kernel id, refusing one no int of a 32-bit build holds, which
// would otherwise wrap there to another kernel's id.
func (d *decoder) id(what string) int {
	v := d.u64()
	if v > math.MaxInt32 {
		d.fail("implausible %s %d", what, v)
		return 0
	}
	return int(v)
}

// block decodes one appendBlock entry of bw words.
func (d *decoder) block(bw int) (b gmem.BlockSnapshot) {
	b.Index = d.u64()
	if uint64(len(d.data)-d.off)/8 < uint64(bw) {
		d.fail("truncated %s at byte %d", d.section, d.off)
		return b
	}
	b.Words = make([]int64, bw)
	for w := range b.Words {
		b.Words[w] = int64(d.u64())
	}
	return b
}

// blocks parses the V1 block list, leaving d one past it, where a V2
// trailer (if any) begins.
func (d *decoder) blocks() (blockWords int, blocks []gmem.BlockSnapshot) {
	bw, nb := d.u64(), d.u64()
	if d.err == nil && (bw == 0 || bw > 1<<20 || nb > uint64(len(d.data))) {
		d.fail("implausible kernel state (blockWords=%d, blocks=%d)", bw, nb)
	}
	if d.err != nil {
		return 0, nil
	}
	blocks = make([]gmem.BlockSnapshot, 0, nb)
	seen := make(map[uint64]bool)
	for i := uint64(0); i < nb && d.err == nil; i++ {
		b := d.block(int(bw))
		if seen[b.Index] {
			d.fail("kernel state lists block %d twice", b.Index)
		}
		seen[b.Index] = true
		blocks = append(blocks, b)
	}
	return int(bw), blocks
}

// --- Directory (elastic membership) snapshot: kernel-state V2 trailer ---

// dirMagic introduces the optional V2 trailer appended after the block list
// by EncodeKernelStateDir. A V1 payload ends exactly at the last block, so
// presence of the trailer is unambiguous.
var dirMagic = [8]byte{'D', 'S', 'E', 'D', 'I', 'R', '2', 0}

// MemberSnapshot is one member's state in a directory snapshot.
type MemberSnapshot struct {
	State uint64 // gmem.MemberState; the decoder refuses any other value
	Gen   uint64 // membership generation of the last transition
}

// EscrowSnapshot is a block the kernel had extracted for a migration whose
// commit had not yet arrived at mark time: the data plus its destination,
// so a restored cluster can re-offer it instead of losing the handoff.
type EscrowSnapshot struct {
	Dst   int
	Block gmem.BlockSnapshot
}

// DirectorySnapshot captures a kernel's membership directory for a
// checkpoint or a join/leave handoff: epoch, per-member states, explicit
// overrides and in-flight escrow. Nil means the snapshot predates elastic
// membership (V1).
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
		buf = appendBlock(buf, e.Block)
	}
	return buf
}

// DecodeKernelStateDir parses an EncodeKernelStateDir payload. dir is nil
// for a V1 payload (no trailer).
func DecodeKernelStateDir(data []byte) (blockWords int, blocks []gmem.BlockSnapshot, dir *DirectorySnapshot, err error) {
	d := &decoder{data: data, section: "kernel state"}
	blockWords, blocks = d.blocks()
	if d.err != nil {
		return 0, nil, nil, d.err
	}
	if d.off == len(data) {
		return blockWords, blocks, nil, nil // V1
	}
	if d.off+8 > len(data) || string(data[d.off:d.off+8]) != string(dirMagic[:]) {
		return 0, nil, nil, errors.New("ckpt: kernel state has trailing bytes that are not a directory trailer")
	}
	d.off += 8
	d.section = "directory trailer"
	dir = &DirectorySnapshot{Epoch: d.u64()}
	for i, n := uint64(0), d.count("member count"); i < n && d.err == nil; i++ {
		m := MemberSnapshot{State: d.u64(), Gen: d.u64()}
		if m.State > uint64(gmem.MemberDead) {
			d.fail("implausible member state %d", m.State)
		}
		dir.Members = append(dir.Members, m)
	}
	for i, n := uint64(0), d.count("override count"); i < n && d.err == nil; i++ {
		dir.Overrides = append(dir.Overrides, [2]uint64{d.u64(), d.u64()})
	}
	for i, n := uint64(0), d.count("escrow count"); i < n && d.err == nil; i++ {
		dst := d.id("escrow destination")
		dir.Escrow = append(dir.Escrow, EscrowSnapshot{Dst: dst, Block: d.block(blockWords)})
	}
	if d.off != len(data) {
		d.fail("kernel state has trailing bytes after its directory trailer")
	}
	if d.err != nil {
		return 0, nil, nil, d.err
	}
	return blockWords, blocks, dir, nil
}

// --- DirStore ---

// keepGenerations is how many committed generations a Commit leaves behind.
const keepGenerations = 2

// committedName is the marker whose rename into a generation's directory
// commits it; it records the generation's PE count.
const committedName = "committed"

// DirStore is the local-directory Store: generation G is the directory g<G>,
// holding one framed slice file p<P> per PE and, once committed, the
// committed marker. Every file lands under a unique temp name before its
// rename, so the store is safe for every PE of an in-process cluster and for
// OS processes sharing the directory.
type DirStore struct {
	root string
}

// OpenDir opens (creating if needed) a snapshot directory.
func OpenDir(root string) (*DirStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &DirStore{root: root}, nil
}

func (d *DirStore) genDir(gen uint64) string {
	return filepath.Join(d.root, fmt.Sprintf("g%d", gen))
}

func (d *DirStore) slicePath(gen uint64, pe int) string {
	return filepath.Join(d.genDir(gen), fmt.Sprintf("p%d", pe))
}

// frameHeader is a slice file's header: magic, generation, PE, payload
// length, CRC32 and SHA-256 of the payload.
const frameHeader = len(fileMagic) + 8 + 8 + 8 + 4 + sha256.Size

// frame wraps PE pe's slice payload of generation gen as its slice file.
func frame(gen uint64, pe int, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	buf := make([]byte, 0, frameHeader+len(payload))
	buf = append(buf, fileMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(pe))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	buf = append(buf, sum[:]...)
	return append(buf, payload...)
}

// unframe verifies a slice file read as PE pe's of generation gen and strips
// its frame. A file copied under another PE's or generation's name fails the
// header's own names; a damaged one fails the length, the CRC32 or the
// SHA-256.
func unframe(buf []byte, gen uint64, pe int) ([]byte, error) {
	if len(buf) < frameHeader || string(buf[:len(fileMagic)]) != string(fileMagic[:]) {
		return nil, errors.New("ckpt: corrupt slice file (bad magic)")
	}
	le := binary.LittleEndian
	payload := buf[frameHeader:]
	switch g, p := le.Uint64(buf[8:]), le.Uint64(buf[16:]); {
	case g != gen || p != uint64(pe):
		return nil, fmt.Errorf("ckpt: corrupt slice file (read as generation %d, PE %d; it holds generation %d, PE %d)", gen, pe, g, p)
	case le.Uint64(buf[24:]) != uint64(len(payload)):
		return nil, errors.New("ckpt: corrupt slice file (length mismatch)")
	case le.Uint32(buf[32:]) != crc32.ChecksumIEEE(payload):
		return nil, errors.New("ckpt: corrupt slice file (CRC mismatch)")
	case [sha256.Size]byte(buf[36:frameHeader]) != sha256.Sum256(payload):
		return nil, errors.New("ckpt: corrupt slice file (SHA-256 mismatch)")
	}
	return payload, nil
}

// writeAtomic writes data to path via a unique temp file + rename, so a
// crash mid-write can never leave a half-written file under the final name.
// The temp file is removed on every failure.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// WriteSlice writes PE pe's framed slice into generation gen's directory.
func (d *DirStore) WriteSlice(gen uint64, pe int, data []byte) error {
	if err := os.MkdirAll(d.genDir(gen), 0o755); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := writeAtomic(d.slicePath(gen, pe), frame(gen, pe, data)); err != nil {
		return fmt.Errorf("ckpt: writing slice: %w", err)
	}
	return nil
}

// ReadSlice loads and verifies one PE's slice of a committed generation.
func (d *DirStore) ReadSlice(gen uint64, pe int) ([]byte, error) {
	numPE, err := d.numPE(gen)
	if err != nil {
		return nil, err
	}
	if pe < 0 || pe >= numPE {
		return nil, fmt.Errorf("ckpt: generation %d has no PE %d", gen, pe)
	}
	buf, err := os.ReadFile(d.slicePath(gen, pe))
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return unframe(buf, gen, pe)
}

// Commit publishes generation gen once the slices of PEs 0..numPE-1 are all
// in its directory. The committed marker lands by rename, so Latest sees the
// whole generation or none of it. Every generation older than the newest
// keepGenerations committed ones is then removed, committed or not.
func (d *DirStore) Commit(gen uint64, numPE int) error {
	for pe := 0; pe < numPE; pe++ {
		if _, err := os.Stat(d.slicePath(gen, pe)); err != nil {
			return fmt.Errorf("ckpt: commit of generation %d: slice for PE %d not written: %w", gen, pe, err)
		}
	}
	marker := filepath.Join(d.genDir(gen), committedName)
	if err := writeAtomic(marker, []byte(fmt.Sprintf("numpe %d\n", numPE))); err != nil {
		return fmt.Errorf("ckpt: committing generation %d: %w", gen, err)
	}
	all, committed, err := d.generations()
	if err != nil || len(committed) <= keepGenerations {
		return err
	}
	oldest := committed[len(committed)-keepGenerations]
	for _, g := range all {
		if g >= oldest {
			break
		}
		if err := os.RemoveAll(d.genDir(g)); err != nil {
			return fmt.Errorf("ckpt: %w", err)
		}
	}
	return nil
}

// numPE reads a committed generation's marker.
func (d *DirStore) numPE(gen uint64) (int, error) {
	raw, err := os.ReadFile(filepath.Join(d.genDir(gen), committedName))
	if err != nil {
		return 0, fmt.Errorf("ckpt: generation %d not committed: %w", gen, err)
	}
	var n int
	if _, err := fmt.Sscanf(string(raw), "numpe %d\n", &n); err != nil || n <= 0 {
		return 0, fmt.Errorf("ckpt: generation %d: malformed commit marker", gen)
	}
	return n, nil
}

// generations lists the generation directories, ascending, and the committed
// ones among them. Anything else in the root is ignored.
func (d *DirStore) generations() (all, committed []uint64, err error) {
	ents, err := os.ReadDir(d.root)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: %w", err)
	}
	for _, e := range ents {
		var g uint64
		if _, err := fmt.Sscanf(e.Name(), "g%d", &g); err != nil || !e.IsDir() || fmt.Sprintf("g%d", g) != e.Name() {
			continue
		}
		all = append(all, g)
		if _, err := os.Stat(filepath.Join(d.root, e.Name(), committedName)); err == nil {
			committed = append(committed, g)
		}
	}
	slices.Sort(all)
	slices.Sort(committed)
	return all, committed, nil
}

// Latest reports the newest committed generation.
func (d *DirStore) Latest() (gen uint64, numPE int, ok bool, err error) {
	_, committed, err := d.generations()
	if err != nil || len(committed) == 0 {
		return 0, 0, false, err
	}
	gen = committed[len(committed)-1]
	if numPE, err = d.numPE(gen); err != nil {
		return 0, 0, false, err
	}
	return gen, numPE, true, nil
}
