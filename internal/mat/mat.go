// Package mat implements the small dense linear-algebra kernel required
// by the k-Shape clustering algorithm: symmetric matrices, the cyclic
// Jacobi eigenvalue method, and power iteration for the dominant
// eigenvector.
//
// k-Shape's shape extraction computes the principal eigenvector of the
// symmetric matrix Mᵀ·M built from aligned, z-normalized cluster
// members. The matrices involved are (series length)² — a few hundred
// rows — so a dependency-free dense solver is both sufficient and
// fast enough.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense allocates a zeroed r×c matrix. It panics on non-positive
// dimensions.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Mul returns a·b. It panics on mismatched inner dimensions.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			rowB := b.Data[k*b.Cols : (k+1)*b.Cols]
			rowOut := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range rowB {
				rowOut[j] += aik * bv
			}
		}
	}
	return out
}

// Transpose returns mᵀ.
func Transpose(m *Dense) *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// MulVec returns m·v as a new slice. It panics if len(v) != m.Cols.
func (m *Dense) MulVec(v []float64) []float64 {
	return m.MulVecTo(make([]float64, m.Rows), v)
}

// MulVecTo writes m·v into dst and returns it. It panics if
// len(v) != m.Cols or len(dst) != m.Rows; dst must not alias v.
//
// Four rows are swept per pass over v, each with its own accumulator
// summing left to right: every out[i] is bit-identical to the plain
// row dot product (DESIGN.md §15 — several accumulators within one
// row would not be), while the four independent add chains hide the
// floating-point add latency a single chain is bound by.
//
//repro:hotpath
func (m *Dense) MulVecTo(dst, v []float64) []float64 {
	if len(v) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d · %d -> %d", m.Rows, m.Cols, len(v), len(dst)))
	}
	c := m.Cols
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0 := m.Data[(i+0)*c : (i+1)*c][:len(v)]
		r1 := m.Data[(i+1)*c : (i+2)*c][:len(v)]
		r2 := m.Data[(i+2)*c : (i+3)*c][:len(v)]
		r3 := m.Data[(i+3)*c : (i+4)*c][:len(v)]
		var s0, s1, s2, s3 float64
		for j, x := range v {
			s0 += r0[j] * x
			s1 += r1[j] * x
			s2 += r2[j] * x
			s3 += r3[j] * x
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		row := m.Data[i*c : (i+1)*c][:len(v)]
		var sum float64
		for j, x := range v {
			sum += row[j] * x
		}
		dst[i] = sum
	}
	return dst
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of a and b; it panics on length
// mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Scale multiplies v in place by f and returns it.
func Scale(v []float64, f float64) []float64 {
	for i := range v {
		v[i] *= f
	}
	return v
}

// Normalize scales v in place to unit Euclidean norm and returns it.
// A zero vector is returned unchanged.
func Normalize(v []float64) []float64 {
	n := Norm2(v)
	if n == 0 {
		return v
	}
	return Scale(v, 1/n)
}
