package kshape

import (
	"math"
	"math/rand/v2"

	"repro/internal/timeseries"
)

// KMeans clusters the series with Lloyd's algorithm under the Euclidean
// distance on (optionally z-normalized) values. It serves as the
// baseline the k-Shape paper compares against and that our ablation
// bench (BenchmarkKShapeVsKMeans) reproduces: Euclidean k-means is not
// shift-invariant, so phase-offset copies of the same shape land in
// different clusters.
func KMeans(series [][]float64, k int, opts Options) (*Result, error) {
	m, err := validateSeries(series)
	if err != nil {
		return nil, err
	}
	if err := validateK(k, len(series)); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	n := len(series)

	data := series
	if opts.ZNormalize {
		data = make([][]float64, n)
		for i, s := range series {
			data[i] = timeseries.ZNormalize(s)
		}
	}

	rng := rand.New(rand.NewPCG(opts.Seed, 0x6b6d6e73)) // "kmns"
	assign := make([]int, n)
	for i := range assign {
		assign[i] = rng.IntN(k)
	}
	centroids := make([][]float64, k)
	for c := range centroids {
		centroids[c] = make([]float64, m)
	}

	var iter int
	for iter = 0; iter < opts.MaxIter; iter++ {
		for c := 0; c < k; c++ {
			meanOf(data, assign, c, centroids[c])
		}
		changed := false
		for i, s := range data {
			best, bestDist := assign[i], math.Inf(1)
			for c := 0; c < k; c++ {
				d := euclidean(centroids[c], s)
				if d < bestDist {
					best, bestDist = c, d
				}
			}
			if best != assign[i] {
				assign[i] = best
				changed = true
			}
		}
		fixEmptyClusters(assign, k, rng, func(c, pick int) { copy(centroids[c], data[pick]) })
		if !changed {
			iter++
			break
		}
	}

	res := &Result{Assign: assign, Centroids: centroids, Iterations: iter}
	for i, s := range data {
		res.Inertia += euclidean(centroids[assign[i]], s)
	}
	return res, nil
}

func meanOf(data [][]float64, assign []int, c int, out []float64) {
	for i := range out {
		out[i] = 0
	}
	count := 0
	for i, a := range assign {
		if a != c {
			continue
		}
		count++
		for j, v := range data[i] {
			out[j] += v
		}
	}
	if count == 0 {
		return
	}
	for i := range out {
		out[i] /= float64(count)
	}
}

func euclidean(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// EuclideanDist exposes the baseline distance for the validity-index
// computations of the ablation experiments.
func EuclideanDist(a, b []float64) float64 { return euclidean(a, b) }

// SBDDist adapts SBD to the plain distance-function signature used by
// the cluster validity indices.
func SBDDist(a, b []float64) float64 {
	d, _ := SBD(a, b)
	return d
}
