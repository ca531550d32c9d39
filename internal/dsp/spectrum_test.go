package dsp

import (
	"math"
	"math/rand/v2"
	"testing"
)

// crossCorrelateOld, nccOld and maxNCCOld are the slice-taking path as
// it stood before the Spectrum kernel — both operands re-transformed on
// every call — kept as the bit-exactness reference (DESIGN.md §15).
func crossCorrelateOld(x, y []float64) []float64 {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	outLen := len(x) + len(y) - 1
	n := NextPow2(outLen)
	fx := make([]complex128, n)
	fy := make([]complex128, n)
	for i, v := range x {
		fx[i] = complex(v, 0)
	}
	for i, v := range y {
		fy[i] = complex(v, 0)
	}
	FFT(fx)
	FFT(fy)
	for i := range fx {
		fx[i] *= complex(real(fy[i]), -imag(fy[i]))
	}
	IFFT(fx)
	out := make([]float64, outLen)
	for k := 0; k < outLen; k++ {
		idx := k - (len(y) - 1)
		if idx < 0 {
			idx += n
		}
		out[k] = real(fx[idx])
	}
	return out
}

func nccOld(x, y []float64) []float64 {
	cc := crossCorrelateOld(x, y)
	norm := math.Sqrt(Energy(x) * Energy(y))
	if norm == 0 || math.IsNaN(norm) {
		for i := range cc {
			cc[i] = 0
		}
		return cc
	}
	for i := range cc {
		cc[i] /= norm
	}
	return cc
}

func maxNCCOld(x, y []float64) (float64, int) {
	cc := nccOld(x, y)
	if len(cc) == 0 {
		return 0, 0
	}
	best, bestIdx := cc[0], 0
	for i, v := range cc {
		if v > best {
			best, bestIdx = v, i
		}
	}
	return best, bestIdx - (len(y) - 1)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// correlationCases covers equal and unequal lengths, a length-1
// operand, zero-norm operands on either side, and a plateau whose
// first maximum must win.
func correlationCases() [][2][]float64 {
	rng := rand.New(rand.NewPCG(8, 15))
	random := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return x
	}
	cases := [][2][]float64{
		{make([]float64, 8), random(8)},
		{random(8), make([]float64, 5)},
		{make([]float64, 3), make([]float64, 3)},
		{{1, 1, 1, 1}, {1, 1}},
		{{-1, -2, -3}, {1, 2, 3}},
		{{2}, {3}},
	}
	for _, p := range [][2]int{{1, 9}, {9, 1}, {4, 4}, {5, 3}, {3, 5}, {17, 31}, {100, 7}, {96, 96}, {672, 672}} {
		cases = append(cases, [2][]float64{random(p[0]), random(p[1])})
	}
	return cases
}

func TestSpectrumKernelBitIdentical(t *testing.T) {
	for _, c := range correlationCases() {
		x, y := c[0], c[1]
		if got, want := CrossCorrelate(x, y), crossCorrelateOld(x, y); !sameBits(got, want) {
			t.Errorf("CrossCorrelate(%d,%d) differs from the re-transforming path", len(x), len(y))
		}
		if got, want := NCC(x, y), nccOld(x, y); !sameBits(got, want) {
			t.Errorf("NCC(%d,%d) differs from the re-transforming path", len(x), len(y))
		}
		wantV, wantShift := maxNCCOld(x, y)
		if v, shift := MaxNCC(x, y); math.Float64bits(v) != math.Float64bits(wantV) || shift != wantShift {
			t.Errorf("MaxNCC(%d,%d) = (%v, %d), re-transforming path (%v, %d)", len(x), len(y), v, shift, wantV, wantShift)
		}
		// Cached spectra, dirty scratch, reused across both orders.
		n := CorrLen(len(x), len(y))
		sx, sy := NewSpectrum(x, n), NewSpectrum(y, n)
		scratch := make([]complex128, n)
		for i := range scratch {
			scratch[i] = complex(math.NaN(), math.Inf(1))
		}
		if v, shift := MaxNCCSpec(&sx, &sy, scratch); math.Float64bits(v) != math.Float64bits(wantV) || shift != wantShift {
			t.Errorf("MaxNCCSpec(%d,%d) = (%v, %d), re-transforming path (%v, %d)", len(x), len(y), v, shift, wantV, wantShift)
		}
		wantV, wantShift = maxNCCOld(y, x)
		if v, shift := MaxNCCSpec(&sy, &sx, scratch); math.Float64bits(v) != math.Float64bits(wantV) || shift != wantShift {
			t.Errorf("MaxNCCSpec(%d,%d) reversed = (%v, %d), re-transforming path (%v, %d)", len(y), len(x), v, shift, wantV, wantShift)
		}
	}
	if v, shift := MaxNCC(nil, []float64{1}); v != 0 || shift != 0 {
		t.Errorf("MaxNCC with an empty operand = (%v, %d), want (0, 0)", v, shift)
	}
}

// TestSpectrumSetRetargets: a reused Spectrum must forget the longer
// signal it held before.
func TestSpectrumSetRetargets(t *testing.T) {
	long := []float64{1, 2, 3, 4, 5, 6, 7}
	short := []float64{-1, 4}
	s := NewSpectrum(long, 16)
	s.Set(short)
	fresh := NewSpectrum(short, 16)
	if s.n != fresh.n || s.energy != fresh.energy {
		t.Errorf("Set: len %d energy %v, fresh %d %v", s.n, s.energy, fresh.n, fresh.energy)
	}
	for i := range s.f {
		if s.f[i] != fresh.f[i] {
			t.Fatalf("Set left stale samples in the transform at %d", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Set with a signal longer than the spectrum: want panic")
		}
	}()
	s.Set(make([]float64, 17))
}

func TestKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 6))
	x, y := make([]float64, 96), make([]float64, 96)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	n := CorrLen(len(x), len(y))
	sx, sy := NewSpectrum(x, n), NewSpectrum(y, n)
	scratch := make([]complex128, n)
	if a := testing.AllocsPerRun(20, func() { MaxNCCSpec(&sx, &sy, scratch) }); a != 0 {
		t.Errorf("MaxNCCSpec allocates %v times per call on warm scratch", a)
	}
	if a := testing.AllocsPerRun(20, func() { FFT(scratch) }); a != 0 {
		t.Errorf("FFT allocates %v times per call", a)
	}
	if a := testing.AllocsPerRun(20, func() { sx.Set(x) }); a != 0 {
		t.Errorf("Spectrum.Set allocates %v times per call", a)
	}
}
