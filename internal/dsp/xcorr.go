package dsp

import (
	"fmt"
	"math"
)

// Spectrum is a real signal prepared for repeated correlation: its
// FFT zero-padded to a power-of-two length, its length and its energy.
// Two spectra correlate only when padded to the same length. A signal
// compared against many others — a series held for a whole clustering
// sweep, a centroid compared with every series — is transformed once.
type Spectrum struct {
	f      []complex128 // FFT of the signal zero-padded to len(f)
	n      int          // length of the signal
	energy float64      // Energy of the signal
}

// CorrLen returns the padded transform length under which signals of
// length nx and ny correlate linearly (no circular wrap-around).
func CorrLen(nx, ny int) int { return NextPow2(nx + ny - 1) }

// NewSpectrum transforms x zero-padded to length n, a power of two
// >= len(x). A nil x gives a buffer of that padded length to Set later.
func NewSpectrum(x []float64, n int) Spectrum {
	s := Spectrum{f: make([]complex128, n)}
	s.Set(x)
	return s
}

// Set re-targets s at the signal x, reusing its buffer (and so its
// padded length).
func (s *Spectrum) Set(x []float64) {
	if len(x) > len(s.f) {
		panic(fmt.Sprintf("dsp: signal of length %d exceeds spectrum length %d", len(x), len(s.f)))
	}
	for i, v := range x {
		s.f[i] = complex(v, 0)
	}
	clear(s.f[len(x):])
	FFT(s.f)
	s.n = len(x)
	s.energy = Energy(x)
}

// correlate leaves the circular cross-correlation of x and y in
// scratch: lag s >= 0 at index s, lag s < 0 at index len(scratch)+s.
//
//repro:hotpath
func correlate(x, y *Spectrum, scratch []complex128) {
	if len(x.f) != len(y.f) || len(scratch) != len(x.f) {
		panic(fmt.Sprintf("dsp: correlate over lengths %d, %d, scratch %d", len(x.f), len(y.f), len(scratch)))
	}
	fy := y.f[:len(scratch)]
	for i, fx := range x.f[:len(scratch)] {
		// Correlation is convolution with the conjugate spectrum.
		scratch[i] = fx * complex(real(fy[i]), -imag(fy[i]))
	}
	IFFT(scratch)
}

// unwrap splits circular correlation lags into the linear sequence's
// two runs: neg holds shifts -(ny-1)..-1, pos shifts 0..nx-1, so the
// sequence ordered from the most negative shift to the most positive
// is neg followed by pos.
func unwrap(lags []complex128, nx, ny int) (neg, pos []complex128) {
	return lags[len(lags)-(ny-1):], lags[:nx]
}

// MaxNCCSpec returns the maximum of the NCC sequence of the two
// signals and the shift (applied to y relative to x) at which it
// occurs — MaxNCC on prepared spectra, allocation-free, and equal to it
// bit for bit when both are padded to CorrLen of their lengths (a
// shorter padding wraps around, a longer one rounds differently).
// scratch must have the spectra's padded length; its contents are
// overwritten. When either signal has zero energy the sequence is all
// zeros.
//
//repro:hotpath
func MaxNCCSpec(x, y *Spectrum, scratch []complex128) (value float64, shift int) {
	if x.n == 0 || y.n == 0 {
		return 0, 0
	}
	norm := math.Sqrt(x.energy * y.energy)
	if norm == 0 || math.IsNaN(norm) {
		return 0, -(y.n - 1)
	}
	correlate(x, y, scratch)
	neg, pos := unwrap(scratch, x.n, y.n)
	// The first maximum in sequence order wins, as in a scan of NCC.
	best, bestShift := real(pos[0])/norm, 0
	if len(neg) > 0 {
		best, bestShift = real(neg[0])/norm, -len(neg)
	}
	for i, c := range neg {
		if v := real(c) / norm; v > best {
			best, bestShift = v, i-len(neg)
		}
	}
	for i, c := range pos {
		if v := real(c) / norm; v > best {
			best, bestShift = v, i
		}
	}
	return best, bestShift
}

// CrossCorrelate returns the full linear cross-correlation sequence
// between x and y, computed via the FFT in O(n log n). The result has
// length len(x)+len(y)-1; entry k corresponds to a shift of
// s = k - (len(y)-1) applied to y, i.e.
//
//	out[k] = Σ_t x[t+s]·y[t]
//
// matching the CC_w(x, y) sequence used by the shape-based distance of
// Paparrizos & Gravano (SIGMOD 2015).
func CrossCorrelate(x, y []float64) []float64 {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	n := CorrLen(len(x), len(y))
	sx, sy := NewSpectrum(x, n), NewSpectrum(y, n)
	correlate(&sx, &sy, sx.f)
	neg, pos := unwrap(sx.f, len(x), len(y))
	out := make([]float64, 0, len(neg)+len(pos))
	for _, c := range neg {
		out = append(out, real(c))
	}
	for _, c := range pos {
		out = append(out, real(c))
	}
	return out
}

// CrossCorrelateNaive is the O(n·m) reference implementation of
// CrossCorrelate. It is used as a test oracle and as the ablation
// baseline demonstrating the FFT speedup.
func CrossCorrelateNaive(x, y []float64) []float64 {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	outLen := len(x) + len(y) - 1
	out := make([]float64, outLen)
	for k := 0; k < outLen; k++ {
		shift := k - (len(y) - 1)
		var sum float64
		for t := 0; t < len(y); t++ {
			xi := t + shift
			if xi < 0 || xi >= len(x) {
				continue
			}
			sum += x[xi] * y[t]
		}
		out[k] = sum
	}
	return out
}

// NCC returns the coefficient-normalized cross-correlation sequence
// NCC_c(x, y) = CC(x, y) / (‖x‖·‖y‖). When either vector has zero
// norm the result is all zeros (two flat signals carry no shape
// information).
func NCC(x, y []float64) []float64 {
	cc := CrossCorrelate(x, y)
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

// MaxNCC returns the maximum of the NCC sequence and the shift (in
// samples, applied to y relative to x) at which it occurs.
func MaxNCC(x, y []float64) (value float64, shift int) {
	if len(x) == 0 || len(y) == 0 {
		return 0, 0
	}
	n := CorrLen(len(x), len(y))
	sx, sy := NewSpectrum(x, n), NewSpectrum(y, n)
	return MaxNCCSpec(&sx, &sy, make([]complex128, n))
}

// Convolve returns the linear convolution of x and y via the FFT; the
// result has length len(x)+len(y)-1.
func Convolve(x, y []float64) []float64 {
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
		fx[i] *= fy[i]
	}
	IFFT(fx)
	out := make([]float64, outLen)
	for i := range out {
		out[i] = real(fx[i])
	}
	return out
}

// MovingAverage returns the centered moving average of x with the given
// window (clamped at the edges). Window must be >= 1; even windows are
// rounded up to the next odd value so the filter stays centered.
func MovingAverage(x []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	if window%2 == 0 {
		window++
	}
	half := window / 2
	out := make([]float64, len(x))
	for i := range x {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(x) {
			hi = len(x) - 1
		}
		var sum float64
		for j := lo; j <= hi; j++ {
			sum += x[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out
}
