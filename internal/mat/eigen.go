package mat

import (
	"fmt"
	"math"
	"sort"
)

// EigenSym computes the full eigendecomposition of the symmetric matrix
// a using the cyclic Jacobi rotation method. It returns the eigenvalues
// in descending order and the matching unit eigenvectors as the columns
// of the returned matrix. a is not modified.
//
// The method is unconditionally stable for symmetric input and
// converges quadratically; for the matrix sizes used by k-Shape
// (series length squared, ≤ ~1344²) it is comfortably fast in the
// shape-extraction path where only a handful of sweeps are needed.
func EigenSym(a *Dense) (values []float64, vectors *Dense, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("mat: EigenSym on non-square %dx%d matrix", a.Rows, a.Cols)
	}
	if !a.IsSymmetric(1e-9 * (1 + maxAbs(a))) {
		return nil, nil, fmt.Errorf("mat: EigenSym on non-symmetric matrix")
	}
	n := a.Rows
	w := a.Clone()
	v := identity(n)

	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off < 1e-12*(1+maxAbs(w)) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(w, v, p, q, c, s)
			}
		}
	}

	values = make([]float64, n)
	order := make([]int, n)
	for i := range values {
		values[i] = w.At(i, i)
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return values[order[i]] > values[order[j]] })

	sortedVals := make([]float64, n)
	vectors = NewDense(n, n)
	for col, idx := range order {
		sortedVals[col] = values[idx]
		for row := 0; row < n; row++ {
			vectors.Set(row, col, v.At(row, idx))
		}
	}
	return sortedVals, vectors, nil
}

// rotate applies the Jacobi rotation (p, q, c, s) to w and accumulates
// it into the eigenvector matrix v.
func rotate(w, v *Dense, p, q int, c, s float64) {
	n := w.Rows
	for i := 0; i < n; i++ {
		wip := w.At(i, p)
		wiq := w.At(i, q)
		w.Set(i, p, c*wip-s*wiq)
		w.Set(i, q, s*wip+c*wiq)
	}
	for j := 0; j < n; j++ {
		wpj := w.At(p, j)
		wqj := w.At(q, j)
		w.Set(p, j, c*wpj-s*wqj)
		w.Set(q, j, s*wpj+c*wqj)
	}
	for i := 0; i < n; i++ {
		vip := v.At(i, p)
		viq := v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

func identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func offDiagNorm(m *Dense) float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if i != j {
				s += m.At(i, j) * m.At(i, j)
			}
		}
	}
	return math.Sqrt(s)
}

func maxAbs(m *Dense) float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// PowerIteration returns the dominant eigenvalue/eigenvector pair of
// the symmetric matrix a, starting from the given vector (or a
// deterministic ramp when start is nil). It iterates until the Rayleigh
// quotient stabilizes within tol or maxIter is reached.
//
// This is the fast path used by shape extraction: only the principal
// eigenvector is needed, so a full Jacobi decomposition would be
// wasteful on large series lengths.
func PowerIteration(a *Dense, start []float64, maxIter int, tol float64) (value float64, vector []float64, err error) {
	if a.Rows != a.Cols {
		return 0, nil, fmt.Errorf("mat: PowerIteration on non-square %dx%d matrix", a.Rows, a.Cols)
	}
	value, vector = powerIteration(a.MulVecTo, a.Rows, start, maxIter, tol)
	return value, vector, nil
}

// powerIteration is PowerIteration over any n×n linear map mulVec
// (dst, v) -> dst = A·v; the tests count its mat-vecs through this
// seam. Each step needs A·w twice — for the Rayleigh quotient wᵀ·A·w
// and as the next step's un-normalized iterate — so the product is
// computed once and carried over: iters+1 mat-vecs, not 2·iters, with
// every floating-point operation unchanged.
func powerIteration(mulVec func(dst, v []float64) []float64, n int, start []float64, maxIter int, tol float64) (float64, []float64) {
	v := make([]float64, n)
	if start != nil && len(start) == n && Norm2(start) > 0 {
		copy(v, start)
	} else {
		for i := range v {
			// Deterministic non-uniform start avoids orthogonality traps
			// with common eigenvectors (e.g. the constant vector).
			v[i] = 1 + float64(i%7)*0.1
		}
	}
	Normalize(v)
	if maxIter <= 0 {
		maxIter = 300
	}
	if tol <= 0 {
		tol = 1e-12
	}
	prev := math.Inf(1)
	av := mulVec(make([]float64, n), v)
	for iter := 0; iter < maxIter; iter++ {
		norm := Norm2(av)
		if norm == 0 {
			// a·v == 0: v is in the null space; eigenvalue 0.
			return 0, v
		}
		// w = a·v/‖a·v‖ becomes the iterate; v's buffer takes a·w.
		w := Scale(av, 1/norm)
		av = mulVec(v, w)
		v = w
		lambda := Dot(v, av)
		if math.Abs(lambda-prev) <= tol*(1+math.Abs(lambda)) {
			return lambda, v
		}
		prev = lambda
	}
	return prev, v
}
