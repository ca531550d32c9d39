package kshape

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/dsp"
	"repro/internal/mat"
	"repro/internal/timeseries"
)

// Options configures a clustering run.
type Options struct {
	// MaxIter bounds the assignment/refinement loop (default 100).
	MaxIter int
	// Seed makes the random initial assignment reproducible.
	Seed uint64
	// ZNormalize applies z-normalization to every input series before
	// clustering (the canonical k-Shape preprocessing). Enabled by the
	// high-level pipeline; disable only for pre-normalized input.
	ZNormalize bool
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	return o
}

// Result is the outcome of a clustering run.
type Result struct {
	// Assign maps each input series to its cluster in [0, K).
	Assign []int
	// Centroids holds one extracted shape per cluster, z-normalized.
	Centroids [][]float64
	// Iterations is the number of refinement rounds executed.
	Iterations int
	// Inertia is the sum of SBD distances of members to their centroid
	// (lower is tighter).
	Inertia float64
}

// Cluster runs k-Shape over the series. All series must share the
// same positive length. It returns an error for k < 1, k > len(series)
// or inconsistent lengths.
func Cluster(series [][]float64, k int, opts Options) (*Result, error) {
	set, err := NewSeriesSet(series, opts.ZNormalize)
	if err != nil {
		return nil, err
	}
	return set.Cluster(k, opts, nil)
}

// Cluster runs k-Shape for one k over the prepared set, with ws as its
// buffers (nil allocates fresh ones). opts.ZNormalize is not consulted:
// normalization was decided when the set was built. The result depends
// only on (set, k, opts) — never on ws or on what ran in it before —
// so a sweep may run its k values on any number of goroutines, one
// Workspace each.
func (s *SeriesSet) Cluster(k int, opts Options, ws *Workspace) (*Result, error) {
	if err := validateK(k, len(s.data)); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if ws == nil {
		ws = new(Workspace)
	}
	ws.fit(s, k)
	data, spectra := s.data, ws.centroids[:k]

	rng := rand.New(rand.NewPCG(opts.Seed, 0x6b736861)) // "ksha"
	assign := make([]int, len(data))
	for i := range assign {
		assign[i] = rng.IntN(k)
	}
	centroids := make([][]float64, k)
	for c := range centroids {
		centroids[c] = make([]float64, s.m)
	}

	var iter int
	for iter = 0; iter < opts.MaxIter; iter++ {
		// Refinement: extract the shape of every cluster.
		for c := 0; c < k; c++ {
			centroids[c] = s.extractShape(ws, assign, c, centroids[c])
		}
		// Assignment: move each series to the closest shape.
		changed := false
		for i := range data {
			best, bestDist := assign[i], 2.1 // SBD upper bound is 2
			for c := 0; c < k; c++ {
				if d := sbdSpec(&spectra[c], &s.spec[i], ws.scratch); d < bestDist {
					best, bestDist = c, d
				}
			}
			if best != assign[i] {
				assign[i] = best
				changed = true
			}
		}
		fixEmptyClusters(assign, k, rng, func(c, pick int) {
			// The centroid changes under its cached spectrum.
			copy(centroids[c], data[pick])
			spectra[c].Set(centroids[c])
		})
		if !changed {
			iter++
			break
		}
	}

	res := &Result{Assign: assign, Centroids: centroids, Iterations: iter}
	for i := range data {
		res.Inertia += sbdSpec(&spectra[assign[i]], &s.spec[i], ws.scratch)
	}
	return res, nil
}

// validateSeries checks that the series are non-empty and share one
// positive length, which it returns.
func validateSeries(series [][]float64) (m int, err error) {
	if len(series) == 0 {
		return 0, errors.New("kshape: no input series")
	}
	m = len(series[0])
	if m == 0 {
		return 0, errors.New("kshape: zero-length series")
	}
	for i, s := range series {
		if len(s) != m {
			return 0, fmt.Errorf("kshape: series %d has length %d, want %d", i, len(s), m)
		}
	}
	return m, nil
}

func validateK(k, n int) error {
	if k < 1 || k > n {
		return fmt.Errorf("kshape: k=%d outside [1, %d]", k, n)
	}
	return nil
}

// extractShape computes the new centroid of cluster c: the dominant
// eigenvector of Qᵀ·(XᵀX)·Q where X stacks the cluster members aligned
// to the previous centroid and Q = I - (1/m)·1 centers the columns. On
// entry ws.centroids[c] is prev's spectrum; on return it is the new
// centroid's.
func (s *SeriesSet) extractShape(ws *Workspace, assign []int, c int, prev []float64) []float64 {
	m := s.m
	spectrum := &ws.centroids[c]
	prevIsZero := isZero(prev)
	members := ws.members[:0]
	for i, a := range assign {
		if a != c {
			continue
		}
		// Alignment (AlignTo): an unshifted member keeps its cached
		// spectrum.
		mem := alignedMember{row: s.data[i], spec: &s.spec[i]}
		if !prevIsZero && !isZero(mem.row) {
			if _, shift := dsp.MaxNCCSpec(spectrum, mem.spec, ws.scratch); shift != 0 {
				mem = alignedMember{row: Shift(mem.row, shift)}
			}
		}
		members = append(members, mem)
	}
	ws.members = members
	if len(members) == 0 {
		zero := make([]float64, m)
		spectrum.Set(zero)
		return zero
	}
	// S = XᵀX (m×m), built directly to avoid materializing X twice.
	g := ws.gram
	clear(g.Data)
	for _, mem := range members {
		zr := timeseries.ZNormalize(mem.row)
		for a := 0; a < m; a++ {
			va := zr[a]
			if va == 0 {
				continue
			}
			out := g.Data[a*m : (a+1)*m]
			for b := 0; b < m; b++ {
				out[b] += va * zr[b]
			}
		}
	}
	// M = Qᵀ·S·Q with Q = I - (1/m)·ones. Expanding, M = S - 1·rᵀ - r·1ᵀ + g·1·1ᵀ
	// where r is the column-mean vector of S and g the grand mean; M
	// overwrites S element by element.
	colMean := ws.colMean
	clear(colMean)
	var grand float64
	for a := 0; a < m; a++ {
		for b, v := range g.Data[a*m : (a+1)*m] {
			colMean[b] += v
		}
	}
	for b := 0; b < m; b++ {
		colMean[b] /= float64(m)
		grand += colMean[b]
	}
	grand /= float64(m)
	for a := 0; a < m; a++ {
		row := g.Data[a*m : (a+1)*m]
		for b, v := range row {
			row[b] = v - colMean[a] - colMean[b] + grand
		}
	}
	// Dominant eigenvector; M is PSD so power iteration is safe, and
	// square so it cannot fail.
	_, vec, _ := mat.PowerIteration(g, prev, 200, 1e-10)
	// The eigenvector's sign is arbitrary: pick the orientation closer
	// to the cluster members.
	centroid := timeseries.ZNormalize(vec)
	flipped := make([]float64, m)
	for i, v := range centroid {
		flipped[i] = -v
	}
	spectrum.Set(centroid)
	ws.flipped.Set(flipped)
	var dPlus, dMinus float64
	for _, mem := range members {
		if mem.spec == nil {
			ws.member.Set(mem.row)
			mem.spec = &ws.member
		}
		dPlus += sbdSpec(spectrum, mem.spec, ws.scratch)
		dMinus += sbdSpec(&ws.flipped, mem.spec, ws.scratch)
	}
	if dMinus < dPlus {
		*spectrum, ws.flipped = ws.flipped, *spectrum
		return flipped
	}
	return centroid
}

// fixEmptyClusters reassigns one random member into any empty cluster
// so the algorithm keeps exactly k groups (standard k-Shape practice);
// reseed(c, pick) makes series pick the centroid of its new cluster c.
func fixEmptyClusters(assign []int, k int, rng *rand.Rand, reseed func(c, pick int)) {
	counts := make([]int, k)
	for _, a := range assign {
		counts[a]++
	}
	for c := 0; c < k; c++ {
		if counts[c] > 0 {
			continue
		}
		// Steal a member from the largest cluster.
		largest := 0
		for j := range counts {
			if counts[j] > counts[largest] {
				largest = j
			}
		}
		if counts[largest] <= 1 {
			continue
		}
		candidates := make([]int, 0, counts[largest])
		for i, a := range assign {
			if a == largest {
				candidates = append(candidates, i)
			}
		}
		pick := candidates[rng.IntN(len(candidates))]
		assign[pick] = c
		counts[largest]--
		counts[c]++
		reseed(c, pick)
	}
}
