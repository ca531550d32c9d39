package mat

import (
	"math"
	"math/rand/v2"
	"testing"
)

// The analysis kernels may be rewritten only in ways that keep every
// floating-point operation's operands and order (DESIGN.md §15): the
// tests below compare against the plain loops bit for bit.

// mulVecNaive is the one-accumulator row dot product MulVecTo must
// equal bitwise.
func mulVecNaive(m *Dense, v []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var sum float64
		for j, rv := range m.Data[i*m.Cols : (i+1)*m.Cols] {
			sum += rv * v[j]
		}
		out[i] = sum
	}
	return out
}

// powerIterationNaive is the loop PowerIteration had before it carried
// A·w into the next step: two mat-vecs per iteration.
func powerIterationNaive(mulVec func(v []float64) []float64, n int, start []float64, maxIter int, tol float64) (float64, []float64) {
	v := make([]float64, n)
	if start != nil && len(start) == n && Norm2(start) > 0 {
		copy(v, start)
	} else {
		for i := range v {
			v[i] = 1 + float64(i%7)*0.1
		}
	}
	Normalize(v)
	prev := math.Inf(1)
	for iter := 0; iter < maxIter; iter++ {
		w := mulVec(v)
		norm := Norm2(w)
		if norm == 0 {
			return 0, v
		}
		Scale(w, 1/norm)
		lambda := Dot(w, mulVec(w))
		v = w
		if math.Abs(lambda-prev) <= tol*(1+math.Abs(lambda)) {
			return lambda, v
		}
		prev = lambda
	}
	return prev, v
}

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randomGram returns XᵀX for a random members×n X: symmetric PSD, the
// shape-extraction matrix's kind.
func randomGram(rng *rand.Rand, n, members int) *Dense {
	x := randomDense(rng, members, n)
	return Mul(Transpose(x), x)
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

func TestMulVecBlockedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	rows := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 672}
	for _, r := range rows {
		for _, c := range []int{1, 5, r} {
			m := randomDense(rng, r, c)
			v := make([]float64, c)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			want := mulVecNaive(m, v)
			if got := m.MulVec(v); !sameBits(got, want) {
				t.Errorf("%dx%d: MulVec differs from the row dot product", r, c)
			}
			dst := make([]float64, r)
			for i := range dst {
				dst[i] = math.NaN() // stale contents must not leak into the sums
			}
			if got := m.MulVecTo(dst, v); !sameBits(got, want) {
				t.Errorf("%dx%d: MulVecTo differs from the row dot product", r, c)
			}
		}
	}
}

func TestMulVecToPanicsOnMismatch(t *testing.T) {
	m := NewDense(2, 3)
	for _, tc := range []struct{ dst, v int }{{2, 2}, {3, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("dst %d, v %d: want panic", tc.dst, tc.v)
				}
			}()
			m.MulVecTo(make([]float64, tc.dst), make([]float64, tc.v))
		}()
	}
}

func TestMulVecToDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	m := randomDense(rng, 67, 67)
	v, dst := make([]float64, 67), make([]float64, 67)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	if n := testing.AllocsPerRun(20, func() { m.MulVecTo(dst, v) }); n != 0 {
		t.Errorf("MulVecTo allocates %v times per call", n)
	}
}

// TestPowerIterationBitIdentical pins both halves of the rewrite: the
// same (λ, v) to the last bit as the two-mat-vec loop, from iters+1
// mat-vecs instead of 2·iters.
func TestPowerIterationBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 5))
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = math.Sin(float64(i))
		}
		return s
	}
	for _, tc := range []struct {
		name    string
		a       *Dense
		start   []float64
		maxIter int
		tol     float64
	}{
		{"gram 40, default start", randomGram(rng, 40, 6), nil, 200, 1e-10},
		{"gram 97, given start", randomGram(rng, 97, 3), ramp(97), 200, 1e-10},
		{"gram 30, iteration cap", randomGram(rng, 30, 30), nil, 3, 1e-300},
		{"gram 12, wrong-length start", randomGram(rng, 12, 4), ramp(5), 50, 1e-12},
		{"zero matrix", NewDense(9, 9), nil, 100, 1e-12},
		{"1x1", randomGram(rng, 1, 2), nil, 100, 1e-12},
	} {
		n := tc.a.Rows
		var naiveCalls, calls int
		wantVal, wantVec := powerIterationNaive(func(v []float64) []float64 {
			naiveCalls++
			return mulVecNaive(tc.a, v)
		}, n, tc.start, tc.maxIter, tc.tol)
		gotVal, gotVec := powerIteration(func(dst, v []float64) []float64 {
			calls++
			return tc.a.MulVecTo(dst, v)
		}, n, tc.start, tc.maxIter, tc.tol)
		if math.Float64bits(gotVal) != math.Float64bits(wantVal) || !sameBits(gotVec, wantVec) {
			t.Errorf("%s: (λ, v) differs from the two-mat-vec loop: λ %v vs %v", tc.name, gotVal, wantVal)
		}
		// The naive loop spends 2 per completed iteration (plus 1 when
		// it stops on a zero product); carrying the product makes that
		// 1 up front and 1 per completed iteration.
		if want := naiveCalls/2 + 1; calls != want {
			t.Errorf("%s: %d mat-vecs for %d of the naive loop, want %d", tc.name, calls, naiveCalls, want)
		}
		pubVal, pubVec, err := PowerIteration(tc.a, tc.start, tc.maxIter, tc.tol)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(pubVal) != math.Float64bits(wantVal) || !sameBits(pubVec, wantVec) {
			t.Errorf("%s: PowerIteration differs from the two-mat-vec loop", tc.name)
		}
	}
}
