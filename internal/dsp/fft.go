// Package dsp provides the signal-processing primitives used by the
// time-series analysis pipeline: a radix-2 fast Fourier transform,
// circular and linear cross-correlation, convolution and padding
// helpers.
//
// The package exists because the shape-based distance (SBD) at the heart
// of k-Shape clustering requires the full normalized cross-correlation
// sequence between pairs of series. Computing it naively costs O(n²);
// via the FFT it costs O(n log n). Both implementations are provided —
// the naive one doubles as the test oracle and as the ablation baseline
// for BenchmarkSBDFFTvsNaive.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// NextPow2 returns the smallest power of two >= n. It panics if n is
// negative or if the result would overflow an int.
func NextPow2(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("dsp: NextPow2 of negative length %d", n))
	}
	if n <= 1 {
		return 1
	}
	p := 1 << bits.Len(uint(n-1))
	if p < n {
		panic(fmt.Sprintf("dsp: NextPow2 overflow for %d", n))
	}
	return p
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. len(x) must be a power of two; use Pad to extend a
// signal first. The transform follows the engineering convention
// X[k] = Σ x[n]·exp(-2πi·kn/N).
func FFT(x []complex128) {
	fftInternal(x, false)
}

// IFFT computes the in-place inverse FFT of x, including the 1/N
// normalization, so that IFFT(FFT(x)) == x up to rounding.
func IFFT(x []complex128) {
	fftInternal(x, true)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

// fftInternal is the radix-2 butterfly network behind FFT and IFFT. Its
// arithmetic is pinned (DESIGN.md §15): the twiddle factor advances by
// repeated multiplication within each block, and every butterfly runs
// even where zero padding makes its inputs zero.
//
//repro:hotpath
func fftInternal(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if !IsPow2(n) {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		// Twiddle factor advance per butterfly within a block.
		wd := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wd
			}
		}
	}
}

// FFTReal transforms a real signal, returning a freshly allocated
// complex spectrum of length NextPow2(len(x)) (zero padded).
func FFTReal(x []float64) []complex128 {
	n := NextPow2(len(x))
	c := make([]complex128, n)
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	FFT(c)
	return c
}

// DFT is the naive O(n²) discrete Fourier transform. It accepts any
// length and serves as the correctness oracle for FFT in tests.
func DFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

// Pad returns x zero-extended to length n. If len(x) >= n the original
// slice content is copied and truncated to n.
func Pad(x []float64, n int) []float64 {
	out := make([]float64, n)
	copy(out, x)
	return out
}

// Energy returns the sum of squares of x (Parseval's counterpart in the
// time domain).
func Energy(x []float64) float64 {
	var e float64
	for _, v := range x {
		e += v * v
	}
	return e
}
