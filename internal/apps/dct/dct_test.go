package dct

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/platform"
)

func TestBasisOrthonormal(t *testing.T) {
	for _, b := range []int{4, 8, 16} {
		m := Basis(b)
		for i := 0; i < b; i++ {
			for j := 0; j < b; j++ {
				dot := 0.0
				for x := 0; x < b; x++ {
					dot += m[i][x] * m[j][x]
				}
				want := 0.0
				if i == j {
					want = 1.0
				}
				if math.Abs(dot-want) > 1e-12 {
					t.Fatalf("B=%d: <m%d,m%d> = %v", b, i, j, dot)
				}
			}
		}
	}
}

func TestForwardInverseIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		const b = 8
		m := Basis(b)
		rng := seed | 1
		block := make([]float64, b*b)
		for i := range block {
			rng = rng*6364136223846793005 + 1442695040888963407
			block[i] = float64(rng >> 56)
		}
		back := InverseBlock(m, ForwardBlock(m, block))
		for i := range block {
			if math.Abs(back[i]-block[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPixelPackingRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		n := len(raw) - len(raw)%8
		img := make([]float64, n)
		for i := 0; i < n; i++ {
			img[i] = float64(raw[i])
		}
		got := UnpackPixels(PackPixels(img))
		for i := range img {
			if got[i] != img[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoeffPackingRoundTrip(t *testing.T) {
	f := func(cs []int16) bool {
		n := len(cs) - len(cs)%4
		got := UnpackCoeffs(PackCoeffs(cs[:n]))
		for i := 0; i < n; i++ {
			if got[i] != cs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantisationError(t *testing.T) {
	for _, c := range []float64{0, 0.1, -3.7, 8000, -8000, 0.124, -0.124} {
		if got := DequantCoeff(QuantCoeff(c)); math.Abs(got-c) > 0.125+1e-12 {
			t.Fatalf("quantisation error for %v: got %v", c, got)
		}
	}
	if QuantCoeff(1e9) != math.MaxInt16 || QuantCoeff(-1e9) != math.MinInt16 {
		t.Fatal("clamping broken")
	}
}

func TestZigZagIsPermutation(t *testing.T) {
	for _, b := range []int{1, 2, 4, 8, 16, 32} {
		order := ZigZag(b)
		if len(order) != b*b {
			t.Fatalf("B=%d: length %d", b, len(order))
		}
		seen := make([]bool, b*b)
		for _, idx := range order {
			if idx < 0 || idx >= b*b || seen[idx] {
				t.Fatalf("B=%d: bad order %v", b, order)
			}
			seen[idx] = true
		}
	}
}

func TestZigZag4x4KnownPrefix(t *testing.T) {
	order := ZigZag(4)
	want := []int{0, 1, 4, 8, 5, 2, 3, 6}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("zigzag(4) = %v, want prefix %v", order[:8], want)
		}
	}
}

func TestSequentialReconstructionQuality(t *testing.T) {
	p := Params{ImageN: 64, Block: 8, Rate: 0.5, Seed: 1}
	img := BuildImage(p)
	res, err := Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 64 {
		t.Fatalf("blocks = %d, want 64", res.Blocks)
	}
	recon := Reconstruct(p, res.Coeffs)
	if snr := PSNR(img, recon); snr < 20 {
		t.Fatalf("PSNR %v dB too low for 50%% compression", snr)
	}
	// No zig-zag truncation: only the int16 quantisation step remains.
	p0 := p
	p0.Rate = 0
	res0, err := Sequential(p0)
	if err != nil {
		t.Fatal(err)
	}
	if snr := PSNR(img, Reconstruct(p0, res0.Coeffs)); snr < 55 {
		t.Fatalf("near-lossless PSNR %v dB", snr)
	}
}

func TestLowerRateGivesBetterPSNR(t *testing.T) {
	base := Params{ImageN: 64, Block: 8, Seed: 1}
	img := BuildImage(base)
	snrAt := func(rate float64) float64 {
		p := base
		p.Rate = rate
		res, err := Sequential(p)
		if err != nil {
			t.Fatal(err)
		}
		return PSNR(img, Reconstruct(p, res.Coeffs))
	}
	if snrAt(0.25) <= snrAt(0.9) {
		t.Fatal("keeping more coefficients should not reduce quality")
	}
}

func TestParallelMatchesSequentialExactly(t *testing.T) {
	p := Params{ImageN: 32, Block: 8, Rate: 0.5, Seed: 2}
	seq, err := Sequential(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, npe := range []int{1, 3, 4} {
		npe := npe
		t.Run(fmt.Sprintf("p%d", npe), func(t *testing.T) {
			var par *Result
			res, err := core.Run(core.Config{NumPE: npe, Transport: core.TransportInproc},
				func(pe *core.PE) error {
					r, err := Parallel(pe, p)
					if err != nil {
						return err
					}
					if pe.ID() == 0 {
						par = r
					}
					return nil
				})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := res.FirstErr(); err != nil {
				t.Fatal(err)
			}
			if len(par.Coeffs) != len(seq.Coeffs) {
				t.Fatalf("coeff plane size %d vs %d", len(par.Coeffs), len(seq.Coeffs))
			}
			for i := range seq.Coeffs {
				if par.Coeffs[i] != seq.Coeffs[i] {
					t.Fatalf("coeff %d: %v vs %v", i, par.Coeffs[i], seq.Coeffs[i])
				}
			}
		})
	}
}

func TestParallelSharesAllBlocks(t *testing.T) {
	p := Params{ImageN: 32, Block: 4, Rate: 0.5, Seed: 1}
	perPE := make([]int, 4)
	res, err := core.Run(core.Config{NumPE: 4, Transport: core.TransportInproc},
		func(pe *core.PE) error {
			r, err := Parallel(pe, p)
			if err != nil {
				return err
			}
			perPE[pe.ID()] = r.Blocks
			return nil
		})
	if err != nil || res.FirstErr() != nil {
		t.Fatalf("%v %v", err, res.FirstErr())
	}
	total := 0
	for _, b := range perPE {
		total += b
	}
	if total != 64 {
		t.Fatalf("blocks processed %d, want 64", total)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{ImageN: 10, Block: 4, Rate: 0.5},
		{ImageN: 0, Block: 4},
		{ImageN: 16, Block: 4, Rate: 1.0},
		{ImageN: 16, Block: 4, Rate: -0.1},
		{ImageN: 12, Block: 3, Rate: 0.5}, // not divisible by packing factor
	}
	for _, p := range bad {
		if _, err := Sequential(p); err == nil {
			t.Fatalf("params %+v accepted", p)
		}
	}
}

func TestParallelOnSimulatedCluster(t *testing.T) {
	p := Params{ImageN: 32, Block: 8, Rate: 0.5, Seed: 1}
	res, err := core.Run(core.Config{NumPE: 3, Platform: platform.SparcSunOS, Seed: 1},
		func(pe *core.PE) error {
			_, err := Parallel(pe, p)
			return err
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 || res.Total.RemoteGM == 0 {
		t.Fatalf("simulation did not exercise the DSM: %+v", &res.Total)
	}
}
