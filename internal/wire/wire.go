// Package wire defines the DSE message exchange format: the request and
// response messages that the global memory management module, the parallel
// process management module and the synchronisation primitives exchange
// between DSE kernels (paper Fig. 3, "message exchange mechanism").
//
// Messages use a fixed 48-byte little-endian header followed by an optional
// payload. The encoding is transport-independent — the same bytes travel
// over the simulated Ethernet, the in-process loopback and real TCP — which
// is the modularity/portability property the paper's reorganisation is
// after ("eliminates dependency on a specific communication protocol").
//
// # Message and buffer ownership
//
// The hot path is allocation-free: messages come from a sync.Pool
// (GetMessage/PutMessage) and own a private scratch buffer that the payload
// helpers (PutWords, PutWord, ReserveRuns, AppendRange, AppendWriteRun,
// DecodeInto) reuse across recycles. The rules:
//
//  1. A message obtained from GetMessage is owned by the caller until it is
//     passed to PutMessage; after that neither the message nor any slice
//     derived from its Data may be touched.
//  2. Transports serialise a message completely before Send returns and
//     keep nothing of it, so a message may be recycled immediately after
//     Send, or kept by its sender and emptied with Reset for the next one
//     (the request engine's own requests, a kernel shard's replies).
//  3. DecodeInto copies the payload into the message's own scratch, so the
//     source frame buffer may be recycled immediately and the decoded
//     message stays valid until its own PutMessage.
//  4. A message whose Data has been handed to application code (user
//     messages) must never be recycled — let the GC have it.
//
// Decode (without Into) retains the historical aliasing behaviour — its
// payload points into the caller's buffer — and is kept for tests and for
// callers that own the buffer outright.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/sim"
)

// Op identifies a message type.
type Op uint8

// Message operations. Request/response pairs share a Seq number.
const (
	OpInvalid Op = iota

	// Global memory management.
	OpRead         // read Count (Arg1) words at Addr
	OpReadResp     // Data = the words
	OpWrite        // write Data words at Addr
	OpWriteAck     //
	OpFetchAdd     // atomically add Arg1 to word at Addr
	OpFetchAddResp // Arg1 = previous value
	OpCAS          // compare-and-swap word at Addr: Arg1 old, Arg2 new
	OpCASResp      // Arg1 = previous value, Arg2 = 1 if swapped

	// Synchronisation.
	OpBarrierArrive  // Tag = barrier id, Arg1 = arrival count carried upward
	OpBarrierRelease // Tag = barrier id
	OpLockAcquire    // Tag = lock id
	OpLockGrant      // Tag = lock id
	OpLockRelease    // Tag = lock id

	// Parallel process management / SSI.
	OpProcRegister // Arg1 = kernel-local pid; registers with the global table
	OpProcRegResp  // Arg1 = assigned global pid
	OpProcExit     // Arg1 = global pid, Arg2 = exit status
	OpProcExitAck  //
	OpProcList     // request the global process table
	OpProcListResp // Data = encoded table

	// Application-level messages (PE to PE through the API library).
	OpUserMsg // Tag = user tag, Data = payload

	// Liveness.
	OpHello // Arg1 = protocol version
	OpPing  //
	OpPong  //

	// Vectored (scatter/gather) global memory: many (addr, count) ranges
	// homed at one kernel travel in a single message, so a block transfer
	// or a gather costs one request per home instead of one per run.
	OpReadV     // Data = ranges (AppendRange); Arg1 = total word count
	OpReadVResp // Data = the words of every range, concatenated in order
	OpWriteV    // Data = runs (AppendWriteRun); Arg1 = run count; acked by OpWriteAck

	// OpPeerDown is a kernel-internal notification: the transport declared
	// kernel Src dead. It never travels the wire; the local kernel puts one
	// where its PE waits when a peer-down event arrives, and the PE's request
	// engine fails what it has in flight to that kernel.
	OpPeerDown // Src = dead kernel

	// Coordinated checkpoint (Chandy-Lamport-style marker round, taken at a
	// quiesce barrier): a PE asks its own kernel to export its slice of
	// global memory plus its membership directory for the snapshot store.
	OpCkptMark     // Tag = checkpoint epoch
	OpCkptMarkResp // Data = encoded kernel state, Arg1 = mark virtual time

	// Elastic membership and online GM re-homing. Migrations move a block's
	// (or a member's whole) home while requests are in flight; requests that
	// reach a kernel that no longer owns the address are answered with
	// OpMigrateNack carrying a new-home hint, and the requester retries the
	// SAME Seq at the hinted home so the dedup window keeps every mutation
	// exactly-once across the handoff.
	OpMigrateStart     // Arg1 = mode (block/join/leave), Arg2 = member or dst, Addr = block addr or membership gen
	OpMigrateStartResp // Data = extracted blocks (ckpt kernel-state encoding)
	OpMigrateInstall   // Arg1 = mode, Arg2 = member, Data = blocks to adopt
	OpMigrateInstallResp
	OpMigrateCommit // Addr = first block addr, Arg1 = block count, Arg2 = new home (lazy hint + escrow release)
	OpMigrateCommitResp
	OpMigrateNack // response: request reached a non-owner; Arg1 = new-home hint
	OpJoin        // Src asks kernel 0 to open a membership transition; Arg1 = 1 granted / 0 busy (resp reuses op pair)
	OpJoinResp    // Arg1 = granted membership generation (0 = busy, retry)
	OpLeave       // graceful leave of Src; same grant protocol as OpJoin
	OpLeaveResp   // Arg1 = granted membership generation (0 = busy, retry)
	OpEpochUpdate // broadcast: member Arg1 transitioned to state Arg2 at gen Addr
	OpEpochUpdateResp

	// Tunable consistency tiers. OpFlushV publishes a release-consistency
	// write-combining buffer: same payload encoding as OpWriteV (runs via
	// AppendWriteRun), acked by OpWriteAck, but kept a distinct op so traces
	// and per-op counters can watch buffered writes trade against eager ones.
	// OpReadLease fetches the whole block containing Addr; the response
	// carries the block words plus the granted lease term, bounding how long
	// the requester may serve reads from it.
	OpFlushV        // Data = runs (AppendWriteRun); Arg1 = run count; acked by OpWriteAck
	OpReadLease     // Addr = any word of the wanted block
	OpReadLeaseResp // Data = the block's words, Arg2 = lease duration (ns of the home's clock)

	// Scheduler jobs (dsesched, DESIGN.md §15). A job's global-memory
	// namespace is a word region [base, limit); the scheduler opens a job
	// with one OpJobOpen per kernel, which binds every member to the region,
	// and a bound requester's GM traffic outside its region is rejected with
	// the typed OpNsNack instead of being served — kernel-side enforcement,
	// not convention. One OpJobClose per kernel tears the job down.
	OpJobOpen     // bind every member (Data: little-endian uint32 ids) to namespace [Addr, Arg2)
	OpJobOpenAck  //
	OpJobClose    // OpJobOpen's fields plus Tag = the job's tag base: unbind, drop the region's blocks, purge the tag window
	OpJobCloseAck // Arg1 = blocks dropped at this kernel
	OpNsNack      // response: request touched memory outside the requester's namespace; Arg1 = bound base, Arg2 = bound limit

	numOps // sentinel: one past the highest op
)

// Message flags (header byte 1).
const (
	// FlagRetry marks a retransmission of an earlier request with the same
	// Seq; home kernels use it together with their dedup window so retried
	// mutating operations apply exactly once.
	FlagRetry uint8 = 1 << 0
)

// NumOps is the number of defined operations; per-op counters are sized by
// it.
const NumOps = int(numOps)

// opNames is a dense name table: Op.String sits on hot trace/debug paths,
// where the previous map lookup cost a hash per call.
var opNames = [...]string{
	OpInvalid:            "invalid",
	OpRead:               "read",
	OpReadResp:           "read-resp",
	OpWrite:              "write",
	OpWriteAck:           "write-ack",
	OpFetchAdd:           "fetch-add",
	OpFetchAddResp:       "fetch-add-resp",
	OpCAS:                "cas",
	OpCASResp:            "cas-resp",
	OpBarrierArrive:      "barrier-arrive",
	OpBarrierRelease:     "barrier-release",
	OpLockAcquire:        "lock-acquire",
	OpLockGrant:          "lock-grant",
	OpLockRelease:        "lock-release",
	OpProcRegister:       "proc-register",
	OpProcRegResp:        "proc-reg-resp",
	OpProcExit:           "proc-exit",
	OpProcExitAck:        "proc-exit-ack",
	OpProcList:           "proc-list",
	OpProcListResp:       "proc-list-resp",
	OpUserMsg:            "user-msg",
	OpHello:              "hello",
	OpPing:               "ping",
	OpPong:               "pong",
	OpReadV:              "read-v",
	OpReadVResp:          "read-v-resp",
	OpWriteV:             "write-v",
	OpPeerDown:           "peer-down",
	OpCkptMark:           "ckpt-mark",
	OpCkptMarkResp:       "ckpt-mark-resp",
	OpMigrateStart:       "migrate-start",
	OpMigrateStartResp:   "migrate-start-resp",
	OpMigrateInstall:     "migrate-install",
	OpMigrateInstallResp: "migrate-install-resp",
	OpMigrateCommit:      "migrate-commit",
	OpMigrateCommitResp:  "migrate-commit-resp",
	OpMigrateNack:        "migrate-nack",
	OpJoin:               "join",
	OpJoinResp:           "join-resp",
	OpLeave:              "leave",
	OpLeaveResp:          "leave-resp",
	OpEpochUpdate:        "epoch-update",
	OpEpochUpdateResp:    "epoch-update-resp",
	OpFlushV:             "flush-v",
	OpReadLease:          "read-lease",
	OpReadLeaseResp:      "read-lease-resp",
	OpJobOpen:            "job-open",
	OpJobOpenAck:         "job-open-ack",
	OpJobClose:           "job-close",
	OpJobCloseAck:        "job-close-ack",
	OpNsNack:             "ns-nack",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// HeaderSize is the fixed encoded header length in bytes.
const HeaderSize = 48

// MaxDataLen bounds the payload so a corrupted length cannot drive huge
// allocations when decoding from an untrusted stream.
const MaxDataLen = 1 << 24

// Message is one DSE protocol message.
type Message struct {
	Op    Op
	Flags uint8  // Flag* bits (retry marking)
	Src   int32  // sending kernel id
	Dst   int32  // destination kernel id
	Tag   int32  // barrier/lock id, or user message tag
	Seq   uint64 // request id; responses echo the request's Seq
	Addr  uint64 // global memory word address
	Arg1  int64
	Arg2  int64
	Data  []byte

	// RecvAt is the receive timestamp a service time is measured from:
	// stamped (with the node's clock) by the transport's Recv as it hands
	// the decoded message to the serve loop. On the sink path it is the
	// sender's SentAt where the transport can hand that on (inproc, whose
	// nodes read one clock) and zero otherwise; a sink that serves a message
	// with no stamp reads the clock itself. It never travels the wire and is
	// cleared by Reset.
	RecvAt sim.Time

	// SentAt is the sender's clock reading as the message goes out, when the
	// sender has one anyway (the request engine's start of a single request's
	// round trip); zero otherwise. A transport whose nodes share one clock
	// hands it on as the delivered copy's RecvAt, which spares the receiving
	// side a clock read. It never travels the wire and is cleared by Reset.
	SentAt sim.Time

	// buf is the message-owned scratch that Data points into when the
	// payload was produced by a payload helper. Its capacity survives
	// PutMessage/GetMessage recycles, which is what makes the hot path
	// allocation-free in steady state.
	buf []byte
}

// msgPool recycles Messages together with their scratch buffers.
var msgPool = sync.Pool{New: func() interface{} { return new(Message) }}

// GetMessage returns an empty pooled Message. The caller owns it until
// PutMessage.
func GetMessage() *Message {
	return msgPool.Get().(*Message)
}

// PutMessage resets m — retaining its scratch capacity — and returns it to
// the pool. The caller must not touch m, or any slice derived from its
// Data, afterwards. Recycling a message whose Data escaped to application
// code is a use-after-free bug; leak those to the GC instead.
func PutMessage(m *Message) {
	if m == nil {
		return
	}
	m.Reset()
	msgPool.Put(m)
}

// Reset empties m for reuse by its owner — every field, stamps included,
// but the scratch capacity. It is what an owner that keeps a message calls
// instead of PutMessage once Send has returned: the transport keeps nothing
// of m, and the payload helpers refill the scratch in place.
func (m *Message) Reset() {
	buf := m.buf
	*m = Message{buf: buf[:0]}
}

func (m *Message) String() string {
	return fmt.Sprintf("%s %d->%d seq=%d tag=%d addr=%d a1=%d a2=%d len=%d",
		m.Op, m.Src, m.Dst, m.Seq, m.Tag, m.Addr, m.Arg1, m.Arg2, len(m.Data))
}

// WireSize is the encoded size in bytes.
func (m *Message) WireSize() int { return HeaderSize + len(m.Data) }

// Append encodes m onto buf and returns the extended slice.
func (m *Message) Append(buf []byte) []byte {
	var hdr [HeaderSize]byte
	hdr[0] = byte(m.Op)
	hdr[1] = m.Flags
	// Bytes 2 and 3 are reserved: encoded as zero, ignored on decode. No
	// node-local state (how a home shards its service, a membership view)
	// travels in a header.
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.Src))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(m.Dst))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(m.Tag))
	binary.LittleEndian.PutUint64(hdr[16:], m.Seq)
	binary.LittleEndian.PutUint64(hdr[24:], m.Addr)
	binary.LittleEndian.PutUint64(hdr[32:], uint64(m.Arg1))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(m.Arg2))
	// Data length is carried by the transport framing for streams; for
	// self-delimiting uses we rely on len(Data) = total-HeaderSize.
	buf = append(buf, hdr[:]...)
	return append(buf, m.Data...)
}

// Encode returns m as a fresh byte slice.
func (m *Message) Encode() []byte {
	return m.Append(make([]byte, 0, m.WireSize()))
}

// ErrShortMessage reports a buffer smaller than a header.
var ErrShortMessage = errors.New("wire: message shorter than header")

// decodeHeader fills m's header fields from buf (validated by the caller).
func decodeHeader(m *Message, buf []byte) {
	m.Op = Op(buf[0])
	m.Flags = buf[1]
	m.Src = int32(binary.LittleEndian.Uint32(buf[4:]))
	m.Dst = int32(binary.LittleEndian.Uint32(buf[8:]))
	m.Tag = int32(binary.LittleEndian.Uint32(buf[12:]))
	m.Seq = binary.LittleEndian.Uint64(buf[16:])
	m.Addr = binary.LittleEndian.Uint64(buf[24:])
	m.Arg1 = int64(binary.LittleEndian.Uint64(buf[32:]))
	m.Arg2 = int64(binary.LittleEndian.Uint64(buf[40:]))
}

// Decode parses a message from buf (header + trailing payload). The payload
// slice aliases buf; use DecodeInto when buf is recycled after the call.
func Decode(buf []byte) (*Message, error) {
	if len(buf) < HeaderSize {
		return nil, ErrShortMessage
	}
	if len(buf)-HeaderSize > MaxDataLen {
		return nil, fmt.Errorf("wire: payload %d exceeds limit", len(buf)-HeaderSize)
	}
	m := &Message{}
	decodeHeader(m, buf)
	if len(buf) > HeaderSize {
		m.Data = buf[HeaderSize:]
	}
	return m, nil
}

// DecodeInto parses buf into m, copying the payload into m's own scratch
// buffer: the caller may recycle buf immediately, and m.Data stays valid
// until m itself is recycled with PutMessage.
func DecodeInto(m *Message, buf []byte) error {
	if len(buf) < HeaderSize {
		return ErrShortMessage
	}
	if len(buf)-HeaderSize > MaxDataLen {
		return fmt.Errorf("wire: payload %d exceeds limit", len(buf)-HeaderSize)
	}
	decodeHeader(m, buf)
	m.Data = nil
	if len(buf) > HeaderSize {
		m.buf = append(m.buf[:0], buf[HeaderSize:]...)
		m.Data = m.buf
	}
	return nil
}

// Words copies the payload as 64-bit little-endian words.
func (m *Message) Words() []int64 {
	return m.WordsInto(nil)
}

// WordsInto decodes the whole payload into dst, reusing its capacity, and
// returns the resized slice.
func (m *Message) WordsInto(dst []int64) []int64 {
	if len(m.Data)%8 != 0 {
		panic(fmt.Sprintf("wire: %d-byte payload is not whole words", len(m.Data)))
	}
	n := len(m.Data) / 8
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	DecodeWords(dst, m.Data)
	return dst
}

// DecodeWords decodes len(dst) words in wire order from the front of p, which
// must hold at least that many: how a reply's words land straight in the
// buffer they were asked for.
func DecodeWords(dst []int64, p []byte) {
	p = p[:8*len(dst)]
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
}

// Word returns payload word i without decoding the rest of the payload.
func (m *Message) Word(i int) int64 {
	return int64(binary.LittleEndian.Uint64(m.Data[i*8:]))
}

// PayloadWords reports how many whole words the payload holds.
func (m *Message) PayloadWords() int { return len(m.Data) / 8 }

// PutWords encodes ws as the payload, reusing the message's scratch buffer.
func (m *Message) PutWords(ws []int64) {
	m.buf = AppendWords(m.buf[:0], ws)
	m.Data = m.buf
}

// PutWord encodes a single word as the payload without a slice argument.
func (m *Message) PutWord(w int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(w))
	m.buf = append(m.buf[:0], b[:]...)
	m.Data = m.buf
}

// AppendWords appends ws to buf in wire order, growing it at most once.
func AppendWords(buf []byte, ws []int64) []byte {
	buf = slices.Grow(buf, 8*len(ws))
	for _, w := range ws {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
	}
	return buf
}

// --- Vectored (scatter/gather) payloads ---

// rangeBytes is the encoded size of one (addr, count) range descriptor.
const rangeBytes = 16

// ReserveRuns empties the payload and makes room for one of runs run headers
// and words words, so that AppendRange or AppendWriteRun build it in place
// without growing the scratch again.
func (m *Message) ReserveRuns(runs, words int) {
	m.buf = slices.Grow(m.buf[:0], runs*rangeBytes+8*words)
	m.Data = nil
}

// appendRangeHeader appends one (addr, count) descriptor to the scratch.
func (m *Message) appendRangeHeader(addr uint64, count int) {
	m.buf = binary.LittleEndian.AppendUint64(m.buf, addr)
	m.buf = binary.LittleEndian.AppendUint64(m.buf, uint64(count))
}

// AppendRange appends one (addr, count) range descriptor to an OpReadV
// payload, reusing scratch, and accumulates the total word count in Arg1.
func (m *Message) AppendRange(addr uint64, count int) {
	m.appendRangeHeader(addr, count)
	m.Data = m.buf
	m.Arg1 += int64(count)
}

// TakeRange splits the first range descriptor off p, the rest of an OpReadV
// payload: a served request is decoded in one loop, `for p := m.Data;
// len(p) > 0; p = rest`. ok is false when p is shorter than a descriptor. The
// count is as untrusted as the rest of the payload and returned unconverted.
func TakeRange(p []byte) (addr, count uint64, rest []byte, ok bool) {
	if len(p) < rangeBytes {
		return 0, 0, nil, false
	}
	return binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:]), p[rangeBytes:], true
}

// AppendWriteRun appends one (addr, words) run to an OpWriteV payload,
// reusing scratch, and counts the run in Arg1.
func (m *Message) AppendWriteRun(addr uint64, words []int64) {
	m.appendRangeHeader(addr, len(words))
	m.buf = AppendWords(m.buf, words)
	m.Data = m.buf
	m.Arg1++
}

// TakeWriteRun splits the first run off p, the rest of an OpWriteV or OpFlushV
// payload, like TakeRange: words are the run's still encoded words (DecodeWords
// reads them). ok is false when the header is truncated or claims more words
// than p holds — compared without computing count*8, which overflows for huge
// counts.
func TakeWriteRun(p []byte) (addr uint64, words, rest []byte, ok bool) {
	if len(p) < rangeBytes {
		return 0, nil, nil, false
	}
	addr, count := binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:])
	p = p[rangeBytes:]
	if count > uint64(len(p))/8 {
		return 0, nil, nil, false
	}
	n := 8 * int(count)
	return addr, p[:n], p[n:], true
}
