package kshape

import (
	"repro/internal/dsp"
	"repro/internal/mat"
	"repro/internal/timeseries"
)

// SeriesSet is a set of equal-length series prepared for shape-based
// work: every series is held next to its padded spectrum, so the many
// distances a clustering sweep takes against the same series — one per
// centroid per iteration per k, plus the validity indices' — each cost
// one spectrum product and one inverse FFT instead of three transforms.
// A SeriesSet is immutable after construction and safe for concurrent
// use; the mutable buffers live in a per-goroutine Workspace.
type SeriesSet struct {
	data [][]float64
	spec []dsp.Spectrum
	m, n int // series length, padded transform length
}

// NewSeriesSet prepares the series, z-normalizing each first when
// zNormalize is set (the canonical k-Shape preprocessing; skip it only
// for pre-normalized input). All series must share one positive length.
func NewSeriesSet(series [][]float64, zNormalize bool) (*SeriesSet, error) {
	m, err := validateSeries(series)
	if err != nil {
		return nil, err
	}
	s := &SeriesSet{
		data: make([][]float64, len(series)),
		spec: make([]dsp.Spectrum, len(series)),
		m:    m,
		n:    dsp.CorrLen(m, m),
	}
	for i, x := range series {
		if zNormalize {
			x = timeseries.ZNormalize(x)
		}
		s.data[i] = x
		s.spec[i] = dsp.NewSpectrum(x, s.n)
	}
	return s, nil
}

// DistanceMatrix returns the SBD between every ordered pair of
// series: entry [i][j] is SBD(series[i], series[j]), the diagonal is 0.
// Rounding makes SBD(x, y) and SBD(y, x) differ in the last bits, so
// both triangles are computed; a sweep over k computes the matrix once
// and hands it to Distances for every clustering it scores.
func (s *SeriesSet) DistanceMatrix() [][]float64 {
	scratch := make([]complex128, s.n)
	out := make([][]float64, len(s.data))
	for i := range out {
		out[i] = make([]float64, len(s.data))
		for j := range out[i] {
			if i != j {
				out[i][j] = sbdSpec(&s.spec[i], &s.spec[j], scratch)
			}
		}
	}
	return out
}

// sbdSpec is SBD's distance on prepared spectra.
func sbdSpec(x, y *dsp.Spectrum, scratch []complex128) float64 {
	v, _ := dsp.MaxNCCSpec(x, y, scratch)
	return 1 - v
}

// Workspace holds the buffers one goroutine's Cluster calls reuse: the
// m×m shape-extraction matrix (3.6 MB for a week of 15-minute bins,
// otherwise allocated twice per cluster per iteration), the correlation
// scratch and the centroid spectra. The zero value is ready to use; a
// Workspace must not be shared between concurrent calls.
type Workspace struct {
	gram      *mat.Dense      // S = XᵀX, centered in place into M
	colMean   []float64       // column means of S
	scratch   []complex128    // correlation scratch
	centroids []dsp.Spectrum  // spectrum of every current centroid
	flipped   dsp.Spectrum    // the sign-flipped centroid candidate
	member    dsp.Spectrum    // a shifted member (unshifted ones keep the set's)
	members   []alignedMember // the cluster being refined
}

// alignedMember is a cluster member aligned to the previous centroid;
// spec is nil when the row was shifted and has no cached spectrum.
type alignedMember struct {
	row  []float64
	spec *dsp.Spectrum
}

// fit sizes the workspace for k clusters over the set's dimensions.
func (w *Workspace) fit(s *SeriesSet, k int) {
	if w.gram == nil || w.gram.Rows != s.m {
		w.gram = mat.NewDense(s.m, s.m)
		w.colMean = make([]float64, s.m)
	}
	if len(w.scratch) != s.n {
		w.scratch = make([]complex128, s.n)
		w.flipped = dsp.NewSpectrum(nil, s.n)
		w.member = dsp.NewSpectrum(nil, s.n)
		w.centroids = nil
	}
	for len(w.centroids) < k {
		w.centroids = append(w.centroids, dsp.NewSpectrum(nil, s.n))
	}
}

// Distances answers the validity indices' distance queries (the
// cvi.Distances interface) under SBD for one clustering of the set:
// point-to-point from a matrix computed once per set, centroid
// distances from spectra built once per clustering.
type Distances struct {
	set       *SeriesSet
	points    [][]float64
	centroids []dsp.Spectrum
	between   [][]float64
	scratch   []complex128
}

// Distances binds the set's ordered point-distance matrix (see
// DistanceMatrix) and a clustering's centroids. centroids may be nil
// when only point-to-point distances will be asked for (Dunn,
// Silhouette).
func (s *SeriesSet) Distances(points [][]float64, centroids [][]float64) *Distances {
	d := &Distances{
		set:       s,
		points:    points,
		centroids: make([]dsp.Spectrum, len(centroids)),
		between:   make([][]float64, len(centroids)),
		scratch:   make([]complex128, s.n),
	}
	for c, x := range centroids {
		d.centroids[c] = dsp.NewSpectrum(x, s.n)
	}
	// Both Davies-Bouldin variants read every ordered centroid pair.
	for a := range centroids {
		d.between[a] = make([]float64, len(centroids))
		for b := range centroids {
			if a != b {
				d.between[a][b] = sbdSpec(&d.centroids[a], &d.centroids[b], d.scratch)
			}
		}
	}
	return d
}

// Points returns SBD(series[i], series[j]).
func (d *Distances) Points(i, j int) float64 { return d.points[i][j] }

// ToCentroid returns SBD(series[i], centroid c).
func (d *Distances) ToCentroid(i, c int) float64 {
	return sbdSpec(&d.set.spec[i], &d.centroids[c], d.scratch)
}

// Centroids returns SBD(centroid a, centroid b).
func (d *Distances) Centroids(a, b int) float64 { return d.between[a][b] }
