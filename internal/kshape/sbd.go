// Package kshape implements the k-Shape time-series clustering
// algorithm of Paparrizos & Gravano (SIGMOD 2015), the method the paper
// uses to (attempt to) group the 20 mobile services by the shape of
// their weekly demand (Fig. 5). A z-normalized Euclidean k-means
// baseline is included for the clusterer ablation.
//
// k-Shape couples a shift-invariant distance — the shape-based distance
// SBD(x, y) = 1 - max NCC_c(x, y) — with a centroid computation (shape
// extraction) that finds the sequence maximizing squared similarity to
// all aligned cluster members, i.e. the dominant eigenvector of a
// centered Gram matrix.
package kshape

import (
	"repro/internal/dsp"
)

// SBD returns the shape-based distance between x and y, in [0, 2],
// together with the shift (in samples) that best aligns y to x.
// SBD(x, x) == 0; two anti-correlated shapes approach 2.
func SBD(x, y []float64) (dist float64, shift int) {
	v, s := dsp.MaxNCC(x, y)
	return 1 - v, s
}

// Shift returns y displaced by s samples with zero padding: a positive
// s delays the sequence (content moves right). The result has the same
// length as y.
func Shift(y []float64, s int) []float64 {
	out := make([]float64, len(y))
	for i := range y {
		j := i - s
		if j >= 0 && j < len(y) {
			out[i] = y[j]
		}
	}
	return out
}

// AlignTo returns y shifted so that it best aligns with the reference
// sequence ref under the NCC criterion (the alignment step of
// k-Shape's refinement phase).
func AlignTo(ref, y []float64) []float64 {
	if isZero(ref) || isZero(y) {
		// No shape information to align against.
		out := make([]float64, len(y))
		copy(out, y)
		return out
	}
	_, s := dsp.MaxNCC(ref, y)
	return Shift(y, s)
}

func isZero(x []float64) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

// DistanceMatrix returns the symmetric SBD matrix of the given
// equal-length series: entry [i][j] with i < j is SBD(series[i],
// series[j]), mirrored below the diagonal. (SeriesSet.DistanceMatrix
// keeps the two orders apart.)
func DistanceMatrix(series [][]float64) ([][]float64, error) {
	set, err := NewSeriesSet(series, false)
	if err != nil {
		return nil, err
	}
	m := set.DistanceMatrix()
	for i := range m {
		for j := i + 1; j < len(m); j++ {
			m[j][i] = m[i][j]
		}
	}
	return m, nil
}
