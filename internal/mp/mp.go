// Package mp is a small PVM/MPI-flavoured message-passing library layered
// on the DSE runtime's PE-to-PE messages. The paper positions PVM and MPI
// as the portable message-passing alternatives to DSE's shared-memory
// model; this package is that baseline, used by the shared-memory versus
// message-passing ablation benchmarks. It deliberately uses no global
// memory: every collective is built from point-to-point sends.
package mp

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
)

// tagBase keeps mp's internal tags out of the application tag space.
const tagBase int32 = 1 << 24

// Comm is a communicator over all PEs of the cluster.
type Comm struct {
	pe  core.Proc
	gen int32 // distinguishes collective epochs within a tag
}

// New wraps a PE in a communicator.
func New(pe core.Proc) *Comm { return &Comm{pe: pe} }

// Rank returns this process's rank (the PE id).
func (c *Comm) Rank() int { return c.pe.ID() }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.pe.N() }

// Send delivers data to rank dst under a user tag (tags must be < 2^24).
func (c *Comm) Send(dst int, tag int32, data []byte) {
	if tag >= tagBase {
		panic(fmt.Sprintf("mp: user tag %d collides with internal tag space", tag))
	}
	c.pe.SendMsg(dst, tag, data)
}

// Recv blocks for a message with the user tag.
func (c *Comm) Recv(tag int32) (src int, data []byte) {
	if tag >= tagBase {
		panic(fmt.Sprintf("mp: user tag %d collides with internal tag space", tag))
	}
	return c.pe.RecvMsg(tag)
}

// SendF and RecvF exchange float64 slices.
func (c *Comm) SendF(dst int, tag int32, vals []float64) {
	c.Send(dst, tag, encodeF(vals))
}

// RecvF receives a float64 slice sent with SendF.
func (c *Comm) RecvF(tag int32) (src int, vals []float64) {
	src, data := c.Recv(tag)
	return src, decodeF(data)
}

func encodeF(vals []float64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return buf
}

func decodeF(data []byte) []float64 {
	if len(data)%8 != 0 {
		panic("mp: float payload not a multiple of 8 bytes")
	}
	vals := make([]float64, len(data)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return vals
}

// nextTag reserves a fresh block of 64 internal tags for one collective
// operation (some collectives need a distinct tag per round). All ranks
// call collectives in the same order, so the sequences agree.
func (c *Comm) nextTag() int32 {
	c.gen++
	return tagBase + c.gen*64
}

// Bcast distributes root's data to every rank and returns it (binomial
// tree, log2 n rounds).
func (c *Comm) Bcast(root int, data []byte) []byte {
	tag := c.nextTag()
	n := c.Size()
	if n == 1 {
		return data
	}
	// Rotate ranks so the root is virtual rank 0.
	vrank := (c.Rank() - root + n) % n
	if vrank != 0 {
		_, data = c.pe.RecvMsg(tag)
	}
	// After receiving, forward down the binomial tree: virtual rank r
	// covers r+2^k for every 2^k greater than r's highest set bit.
	for mask := 1; mask < n; mask *= 2 {
		if vrank < mask {
			child := vrank + mask
			if child < n {
				c.pe.SendMsg((child+root)%n, tag, data)
			}
		}
	}
	return data
}

// Reduce combines one float64 per rank with op; the result lands on root
// (other ranks receive 0). Combination follows a binomial tree for
// determinism: op must be associative and commutative.
func (c *Comm) Reduce(root int, x float64, op func(a, b float64) float64) float64 {
	tag := c.nextTag()
	n := c.Size()
	vrank := (c.Rank() - root + n) % n
	acc := x
	for mask := 1; mask < n; mask *= 2 {
		if vrank&mask != 0 {
			c.sendInternal((vrank-mask+root)%n, tag, []float64{acc})
			return 0
		}
		peer := vrank + mask
		if peer < n {
			_, vals := c.recvInternal(tag)
			acc = op(acc, vals[0])
		}
	}
	return acc
}

// AllReduce is Reduce followed by Bcast of the result.
func (c *Comm) AllReduce(x float64, op func(a, b float64) float64) float64 {
	acc := c.Reduce(0, x, op)
	out := c.Bcast(0, encodeF([]float64{acc}))
	return decodeF(out)[0]
}

// sendInternal and recvInternal bypass the user-tag check for
// collective-internal float traffic.
func (c *Comm) sendInternal(dst int, tag int32, vals []float64) {
	c.pe.SendMsg(dst, tag, encodeF(vals))
}

func (c *Comm) recvInternal(tag int32) (int, []float64) {
	src, data := c.pe.RecvMsg(tag)
	return src, decodeF(data)
}
