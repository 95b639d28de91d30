// Package dct implements the paper's second workload: two-dimensional
// Discrete Cosine Transform (DCT-II) image compression. The source image is
// divided into independent B×B pixel blocks; each block is transformed and
// quantised at a given compression rate — "every pixel block of N×N can be
// processed in parallel".
//
// The parallel version keeps the image and the coefficient plane in global
// memory in block-major layout. Work is distributed one pixel block per
// job, claimed from a global counter, so the block size is the granularity
// knob exactly as in the paper: small blocks mean many jobs, frequent
// communication and little computation per job; large blocks the reverse.
// Pixels travel packed eight to a word; only the coefficients surviving
// quantisation are written back (int16, four to a word) — the compressed
// representation.
package dct

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
)

// Params describes one experiment instance.
type Params struct {
	ImageN int     // square image edge in pixels (paper: 256)
	Block  int     // block edge B (paper: 4, 8, 16, 32)
	Rate   float64 // compression rate: fraction of coefficients zeroed (paper: 0.5)
	Seed   uint64  // image generator seed

	// ChunkBlocks makes each job claim this many consecutive blocks from
	// the pool (0/1 = one block per job, the paper's setting). Chunked
	// self-scheduling is the classic fix for fine-grain pools: it divides
	// the job-counter traffic by the chunk size. Used by the ablation
	// benchmarks.
	ChunkBlocks int
}

func (p Params) validate() error {
	if p.ImageN <= 0 || p.Block <= 0 {
		return fmt.Errorf("dct: non-positive dimensions %d/%d", p.ImageN, p.Block)
	}
	if p.ImageN%p.Block != 0 {
		return fmt.Errorf("dct: image %d not divisible by block %d", p.ImageN, p.Block)
	}
	if (p.Block*p.Block)%8 != 0 {
		return fmt.Errorf("dct: block %d has %d pixels, not a multiple of the packing factor 8", p.Block, p.Block*p.Block)
	}
	if p.Rate < 0 || p.Rate >= 1 {
		return fmt.Errorf("dct: rate %v outside [0,1)", p.Rate)
	}
	if p.ChunkBlocks < 0 {
		return fmt.Errorf("dct: negative chunk size %d", p.ChunkBlocks)
	}
	return nil
}

// chunk returns the effective blocks-per-job.
func (p Params) chunk() int {
	if p.ChunkBlocks <= 1 {
		return 1
	}
	return p.ChunkBlocks
}

// Result reports a compression run.
type Result struct {
	Coeffs  []int16      // quantised coefficient plane (ImageN×ImageN, row-major)
	Blocks  int          // blocks processed
	Jobs    int          // block-row jobs processed (per PE for Parallel)
	Ops     float64      // counted floating-point operations
	Elapsed sim.Duration // timed region (parallel runs; excludes image load)
}

// BuildImage deterministically synthesises a grayscale test image in
// [0,255]: smooth gradients plus texture, so coefficients are non-trivial.
func BuildImage(p Params) []float64 {
	n := p.ImageN
	img := make([]float64, n*n)
	rng := p.Seed | 1
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			noise := float64(rng >> 58) // 0..63
			v := 96 +
				64*math.Sin(2*math.Pi*float64(x)/float64(n)) +
				48*math.Cos(2*math.Pi*3*float64(y)/float64(n)) +
				noise/2
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			img[y*n+x] = math.Floor(v)
		}
	}
	return img
}

// --- packing ---

// PackPixels packs 8-bit pixel values eight per global-memory word.
// len(img) must be a multiple of 8; values must lie in [0,255].
func PackPixels(img []float64) []int64 {
	if len(img)%8 != 0 {
		panic("dct: pixel count not a multiple of 8")
	}
	words := make([]int64, len(img)/8)
	for i, v := range img {
		b := uint64(v)
		if v < 0 || v > 255 || v != math.Trunc(v) {
			panic(fmt.Sprintf("dct: pixel %v not an 8-bit value", v))
		}
		words[i/8] |= int64(b << uint(8*(i%8)))
	}
	return words
}

// UnpackPixels inverts PackPixels.
func UnpackPixels(words []int64) []float64 {
	img := make([]float64, len(words)*8)
	for i := range img {
		img[i] = float64(uint64(words[i/8]) >> uint(8*(i%8)) & 0xff)
	}
	return img
}

// coeffScale fixes the int16 quantisation step at 1/4.
const coeffScale = 4

// QuantCoeff quantises a DCT coefficient to int16 (step 1/4, clamped).
func QuantCoeff(c float64) int16 {
	q := math.Round(c * coeffScale)
	if q > math.MaxInt16 {
		q = math.MaxInt16
	}
	if q < math.MinInt16 {
		q = math.MinInt16
	}
	return int16(q)
}

// DequantCoeff inverts QuantCoeff up to the quantisation step.
func DequantCoeff(q int16) float64 { return float64(q) / coeffScale }

// PackCoeffs packs int16 coefficients four per word.
func PackCoeffs(cs []int16) []int64 {
	if len(cs)%4 != 0 {
		panic("dct: coefficient count not a multiple of 4")
	}
	words := make([]int64, len(cs)/4)
	for i, c := range cs {
		words[i/4] |= int64(uint64(uint16(c)) << uint(16*(i%4)))
	}
	return words
}

// UnpackCoeffs inverts PackCoeffs.
func UnpackCoeffs(words []int64) []int16 {
	cs := make([]int16, len(words)*4)
	for i := range cs {
		cs[i] = int16(uint16(uint64(words[i/4]) >> uint(16*(i%4))))
	}
	return cs
}

// --- transform ---

// Basis returns the B×B orthonormal DCT-II basis matrix M, with
// M[k][x] = c(k)·cos((2x+1)kπ/2B).
func Basis(b int) [][]float64 {
	m := make([][]float64, b)
	for k := 0; k < b; k++ {
		m[k] = make([]float64, b)
		c := math.Sqrt(2 / float64(b))
		if k == 0 {
			c = math.Sqrt(1 / float64(b))
		}
		for x := 0; x < b; x++ {
			m[k][x] = c * math.Cos((2*float64(x)+1)*float64(k)*math.Pi/(2*float64(b)))
		}
	}
	return m
}

// ForwardBlock computes the 2-D DCT of block (row-major, B×B) by the
// direct definition, C[u][v] = Σy Σx M[u][y]·M[v][x]·X[y][x] — the O(B⁴)
// formulation a straightforward period implementation uses (and the cost
// the experiments charge).
func ForwardBlock(m [][]float64, block []float64) []float64 {
	b := len(m)
	out := make([]float64, b*b)
	for u := 0; u < b; u++ {
		for v := 0; v < b; v++ {
			s := 0.0
			for y := 0; y < b; y++ {
				mu := m[u][y]
				row := block[y*b : (y+1)*b]
				for x := 0; x < b; x++ {
					s += mu * m[v][x] * row[x]
				}
			}
			out[u*b+v] = s
		}
	}
	return out
}

// InverseBlock inverts ForwardBlock: X = Mᵀ·C·M.
func InverseBlock(m [][]float64, coeffs []float64) []float64 {
	b := len(m)
	tmp := make([]float64, b*b)
	out := make([]float64, b*b)
	for y := 0; y < b; y++ { // tmp = C·M
		for x := 0; x < b; x++ {
			s := 0.0
			for k := 0; k < b; k++ {
				s += coeffs[y*b+k] * m[k][x]
			}
			tmp[y*b+x] = s
		}
	}
	for x := 0; x < b; x++ { // out = Mᵀ·tmp
		for j := 0; j < b; j++ {
			s := 0.0
			for k := 0; k < b; k++ {
				s += m[k][x] * tmp[k*b+j]
			}
			out[x*b+j] = s
		}
	}
	return out
}

// ZigZag returns the zig-zag traversal order of a B×B block: the standard
// low-to-high-frequency ordering used to decide which coefficients survive
// quantisation.
func ZigZag(b int) []int {
	order := make([]int, 0, b*b)
	for s := 0; s <= 2*(b-1); s++ {
		if s%2 == 0 { // up-right diagonals
			for y := min(s, b-1); y >= 0 && s-y < b; y-- {
				order = append(order, y*b+(s-y))
			}
		} else {
			for x := min(s, b-1); x >= 0 && s-x < b; x-- {
				order = append(order, (s-x)*b+x)
			}
		}
	}
	return order
}

// blockOps counts the floating-point work of one block under the direct
// O(B⁴) formulation: two multiply-adds per basis product.
func blockOps(b int) float64 {
	b4 := float64(b) * float64(b) * float64(b) * float64(b)
	return 3 * b4
}

// keepCount converts a compression rate into surviving coefficients.
func keepCount(p Params) int {
	keep := int(math.Round((1 - p.Rate) * float64(p.Block*p.Block)))
	if keep < 1 {
		keep = 1
	}
	return keep
}

// BlockMajor reorders a row-major image into block-major layout: the B×B
// pixels of each block contiguous (row-major inside the block), blocks in
// row-major block order. This is how the parallel version stores the image
// in global memory, so one job's pixels are one contiguous transfer.
func BlockMajor(img []float64, n, b int) []float64 {
	out := make([]float64, len(img))
	i := 0
	for by := 0; by < n/b; by++ {
		for bx := 0; bx < n/b; bx++ {
			for y := 0; y < b; y++ {
				copy(out[i:i+b], img[(by*b+y)*n+bx*b:(by*b+y)*n+bx*b+b])
				i += b
			}
		}
	}
	return out
}

// compressBlock transforms one B×B pixel block and returns the surviving
// coefficients in zig-zag order, padded to a multiple of four for packing.
func compressBlock(m [][]float64, order []int, keep int, block []float64) []int16 {
	coeffs := ForwardBlock(m, block)
	kept := make([]int16, (keep+3)/4*4)
	for i := 0; i < keep; i++ {
		kept[i] = QuantCoeff(coeffs[order[i]])
	}
	return kept
}

// expandKept writes one block's kept coefficients into the full plane.
func expandKept(plane []int16, kept []int16, order []int, keep, n, b, blockIdx int) {
	by, bx := blockIdx/(n/b), blockIdx%(n/b)
	for i := 0; i < keep; i++ {
		u, v := order[i]/b, order[i]%b
		plane[(by*b+u)*n+bx*b+v] = kept[i]
	}
}

// Sequential compresses the image on one processor, producing the full
// quantised coefficient plane.
func Sequential(p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n, b := p.ImageN, p.Block
	blocked := BlockMajor(BuildImage(p), n, b)
	m := Basis(b)
	order := ZigZag(b)
	keep := keepCount(p)
	totalBlocks := (n / b) * (n / b)
	res := &Result{Coeffs: make([]int16, n*n)}
	for j := 0; j < totalBlocks; j++ {
		kept := compressBlock(m, order, keep, blocked[j*b*b:(j+1)*b*b])
		expandKept(res.Coeffs, kept, order, keep, n, b, j)
		res.Blocks++
		res.Ops += blockOps(b)
	}
	res.Jobs = totalBlocks
	return res, nil
}

// Parallel compresses the image as an SPMD program: the packed block-major
// image and the compressed coefficient stream live in global memory; PEs
// claim one block per job from a global counter, fetch the block's packed
// pixels, transform and quantise, and write back only the surviving
// coefficients — so communication frequency scales with the number of
// blocks, the paper's granularity effect. PE 0 returns the full coefficient
// plane; other PEs return counters only.
func Parallel(pe *core.PE, p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n, b := p.ImageN, p.Block
	keep := keepCount(p)
	pixWords := b * b / 8
	keptWords := (keep + 3) / 4
	totalBlocks := (n / b) * (n / b)
	img := core.AllocArray[int64](pe, totalBlocks*pixWords)
	out := core.AllocArray[int64](pe, totalBlocks*keptWords)
	counter := core.AllocCounter(pe, 1)

	// Setup (untimed in the harness): PE 0 loads the packed image into GM.
	if pe.ID() == 0 {
		if err := img.StoreRange(0, PackPixels(BlockMajor(BuildImage(p), n, b))); err != nil {
			return nil, err
		}
	}
	pe.Barrier()
	start := pe.Now()

	m := Basis(b)
	order := ZigZag(b)
	res := &Result{}
	chunk := p.chunk()
	words := make([]int64, min(chunk, totalBlocks)*pixWords)
	for {
		first, err := counter.FetchAdd(0, int64(chunk))
		if err != nil {
			return nil, err
		}
		if first >= int64(totalBlocks) {
			break
		}
		last := first + int64(chunk)
		if last > int64(totalBlocks) {
			last = int64(totalBlocks)
		}
		// One contiguous pixel fetch and coefficient write-back per chunk.
		// Chunks spanning several GM blocks ride the vectored path: all runs
		// homed at one kernel travel in a single OpReadV/OpWriteV message.
		words = words[:int(last-first)*pixWords]
		if err := img.LoadRange(int(first)*pixWords, words); err != nil {
			return nil, err
		}
		pixels := UnpackPixels(words)
		outWords := make([]int64, 0, int(last-first)*keptWords)
		for j := first; j < last; j++ {
			off := int(j-first) * b * b
			kept := compressBlock(m, order, keep, pixels[off:off+b*b])
			outWords = append(outWords, PackCoeffs(kept)...)
			res.Blocks++
			res.Ops += blockOps(b)
		}
		pe.Compute(float64(last-first) * blockOps(b))
		if err := out.StoreRange(int(first)*keptWords, outWords); err != nil {
			return nil, err
		}
		res.Jobs++
	}
	pe.Barrier()
	res.Elapsed = pe.Now() - start
	if pe.ID() == 0 {
		packed := make([]int64, totalBlocks*keptWords)
		if err := out.LoadRange(0, packed); err != nil {
			return nil, err
		}
		res.Coeffs = make([]int16, n*n)
		stream := UnpackCoeffs(packed)
		for j := 0; j < totalBlocks; j++ {
			expandKept(res.Coeffs, stream[j*keptWords*4:], order, keep, n, b, j)
		}
	}
	pe.Barrier()
	return res, nil
}

// Reconstruct inverts a quantised coefficient plane back to an image.
func Reconstruct(p Params, coeffs []int16) []float64 {
	n, b := p.ImageN, p.Block
	m := Basis(b)
	out := make([]float64, n*n)
	blocksPerSide := n / b
	cblock := make([]float64, b*b)
	for by := 0; by < blocksPerSide; by++ {
		for bx := 0; bx < blocksPerSide; bx++ {
			for y := 0; y < b; y++ {
				for x := 0; x < b; x++ {
					cblock[y*b+x] = DequantCoeff(coeffs[(by*b+y)*n+bx*b+x])
				}
			}
			pix := InverseBlock(m, cblock)
			for y := 0; y < b; y++ {
				copy(out[(by*b+y)*n+bx*b:], pix[y*b:(y+1)*b])
			}
		}
	}
	return out
}

// PSNR computes the peak signal-to-noise ratio between two images in dB
// (peak 255). Identical images return +Inf.
func PSNR(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("dct: PSNR over different-sized images")
	}
	mse := 0.0
	for i := range a {
		d := a[i] - b[i]
		mse += d * d
	}
	mse /= float64(len(a))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}
