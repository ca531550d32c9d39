package kshape

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/cvi"
	"repro/internal/mat"
	"repro/internal/timeseries"
)

// clusterReference is k-Shape as it ran before the SeriesSet: every
// distance through the slice-taking SBD (both operands re-transformed
// per call), two fresh m×m matrices per cluster per iteration. It is
// the bit-exactness reference for SeriesSet.Cluster (DESIGN.md §15)
// and also reports how many times an empty cluster was reseeded, so a
// test can prove it drove the cached-spectrum path through that trap.
func clusterReference(series [][]float64, k int, opts Options) (res *Result, reseeds int) {
	opts = opts.withDefaults()
	n, m := len(series), len(series[0])
	data := series
	if opts.ZNormalize {
		data = make([][]float64, n)
		for i, s := range series {
			data[i] = timeseries.ZNormalize(s)
		}
	}
	rng := rand.New(rand.NewPCG(opts.Seed, 0x6b736861))
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
			centroids[c] = extractShapeReference(data, assign, c, centroids[c])
		}
		changed := false
		for i, s := range data {
			best, bestDist := assign[i], 2.1
			for c := 0; c < k; c++ {
				if d, _ := SBD(centroids[c], s); d < bestDist {
					best, bestDist = c, d
				}
			}
			if best != assign[i] {
				assign[i] = best
				changed = true
			}
		}
		fixEmptyClusters(assign, k, rng, func(c, pick int) {
			copy(centroids[c], data[pick])
			reseeds++
		})
		if !changed {
			iter++
			break
		}
	}
	res = &Result{Assign: assign, Centroids: centroids, Iterations: iter}
	for i, s := range data {
		d, _ := SBD(centroids[assign[i]], s)
		res.Inertia += d
	}
	return res, reseeds
}

func extractShapeReference(data [][]float64, assign []int, c int, prev []float64) []float64 {
	m := len(prev)
	var members [][]float64
	for i, a := range assign {
		if a == c {
			members = append(members, AlignTo(prev, data[i]))
		}
	}
	if len(members) == 0 {
		return make([]float64, m)
	}
	s := mat.NewDense(m, m)
	for _, row := range members {
		zr := timeseries.ZNormalize(row)
		for a := 0; a < m; a++ {
			va := zr[a]
			if va == 0 {
				continue
			}
			out := s.Data[a*m : (a+1)*m]
			for b := 0; b < m; b++ {
				out[b] += va * zr[b]
			}
		}
	}
	colMean := make([]float64, m)
	var grand float64
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			colMean[b] += s.At(a, b)
		}
	}
	for b := 0; b < m; b++ {
		colMean[b] /= float64(m)
		grand += colMean[b]
	}
	grand /= float64(m)
	mm := mat.NewDense(m, m)
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			mm.Set(a, b, s.At(a, b)-colMean[a]-colMean[b]+grand)
		}
	}
	_, vec, _ := mat.PowerIteration(mm, prev, 200, 1e-10)
	centroid := timeseries.ZNormalize(vec)
	flipped := make([]float64, m)
	for i, v := range centroid {
		flipped[i] = -v
	}
	var dPlus, dMinus float64
	for _, row := range members {
		dp, _ := SBD(centroid, row)
		dm, _ := SBD(flipped, row)
		dPlus += dp
		dMinus += dm
	}
	if dMinus < dPlus {
		return flipped
	}
	return centroid
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

func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Errorf("%s: %d iterations, reference %d", label, got.Iterations, want.Iterations)
	}
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		t.Errorf("%s: inertia %v, reference %v", label, got.Inertia, want.Inertia)
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Errorf("%s: series %d in cluster %d, reference %d", label, i, got.Assign[i], want.Assign[i])
		}
	}
	for c := range want.Centroids {
		if !sameBits(got.Centroids[c], want.Centroids[c]) {
			t.Errorf("%s: centroid %d differs from the reference", label, c)
		}
	}
}

// TestClusterBitIdenticalToReference runs every k over one shared set
// and one reused workspace — largest k first, as a sweep does, so each
// run inherits buffers a different clustering dirtied — and demands the
// reference's result to the last bit.
func TestClusterBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 34))
	series, _ := makeShapeFamilies(rng, 3, 4, 48, 5)
	series[7] = make([]float64, 48) // a flat series: no shape to align
	opts := Options{Seed: 4, ZNormalize: true}
	set, err := NewSeriesSet(series, true)
	if err != nil {
		t.Fatal(err)
	}
	ws := new(Workspace)
	for k := len(series); k >= 1; k-- {
		want, _ := clusterReference(series, k, opts)
		got, err := set.Cluster(k, opts, ws)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "shared workspace", got, want)
		if k%4 == 0 {
			fresh, err := Cluster(series, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "Cluster", fresh, want)
		}
	}
}

// TestClusterReseedUnderCachedSpectra is the fixEmptyClusters trap: the
// reseed overwrites a centroid in place, and a centroid spectrum cached
// before it must not be used after. k close to n empties clusters
// constantly; the reference counts the reseeds so the case cannot
// silently stop exercising the path.
func TestClusterReseedUnderCachedSpectra(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 1))
	series := make([][]float64, 9)
	for i := range series {
		series[i] = make([]float64, 40)
		v := 0.0
		for j := range series[i] {
			v += rng.NormFloat64()
			series[i][j] = v
		}
	}
	set, err := NewSeriesSet(series, true)
	if err != nil {
		t.Fatal(err)
	}
	ws := new(Workspace)
	total := 0
	for seed := uint64(1); seed <= 6; seed++ {
		opts := Options{Seed: seed, ZNormalize: true, MaxIter: 12}
		for _, k := range []int{7, 8} {
			want, reseeds := clusterReference(series, k, opts)
			total += reseeds
			got, err := set.Cluster(k, opts, ws)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "reseeded run", got, want)
		}
	}
	if total == 0 {
		t.Fatal("no run reseeded an empty cluster: the case no longer covers fixEmptyClusters")
	}
}

// TestDistancesMatchSliceSBD: the index-facing distances are the
// slice-taking SBD of the same ordered pair, bit for bit, and
// cvi.Silhouette over them is the silhouette over SBDDist.
func TestDistancesMatchSliceSBD(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 50))
	series, _ := makeShapeFamilies(rng, 2, 4, 32, 3)
	set, err := NewSeriesSet(series, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := set.Cluster(3, Options{Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	points := set.DistanceMatrix()
	dist := set.Distances(points, res.Centroids)
	for i := range set.data {
		for j := range set.data {
			if i == j {
				continue
			}
			if want := SBDDist(set.data[i], set.data[j]); math.Float64bits(dist.Points(i, j)) != math.Float64bits(want) {
				t.Errorf("Points(%d,%d) = %v, SBD %v", i, j, dist.Points(i, j), want)
			}
		}
		for c := range res.Centroids {
			if want := SBDDist(set.data[i], res.Centroids[c]); math.Float64bits(dist.ToCentroid(i, c)) != math.Float64bits(want) {
				t.Errorf("ToCentroid(%d,%d) = %v, SBD %v", i, c, dist.ToCentroid(i, c), want)
			}
		}
	}
	for a := range res.Centroids {
		for b := range res.Centroids {
			if a == b {
				continue
			}
			if want := SBDDist(res.Centroids[a], res.Centroids[b]); math.Float64bits(dist.Centroids(a, b)) != math.Float64bits(want) {
				t.Errorf("Centroids(%d,%d) = %v, SBD %v", a, b, dist.Centroids(a, b), want)
			}
		}
	}
	c := cvi.Clustering{Points: set.data, Assign: res.Assign, Centroids: res.Centroids, K: 3}
	if got, want := cvi.AllScores(c, dist), cvi.AllScores(c, c.Under(SBDDist)); got != want {
		t.Errorf("scores over the set's distances %+v, over SBDDist %+v", got, want)
	}
}
