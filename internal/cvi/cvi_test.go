package cvi

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func euclidDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// euclid measures c's points and centroids by Euclidean distance.
func euclid(c Clustering) Distances { return c.Under(euclidDist) }

// twoTightClusters builds a well-separated two-cluster configuration.
func twoTightClusters() Clustering {
	pts := [][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1},
		{10, 10}, {10.1, 10}, {10, 10.1}, {10.1, 10.1},
	}
	return Clustering{
		Points:    pts,
		Assign:    []int{0, 0, 0, 0, 1, 1, 1, 1},
		Centroids: [][]float64{{0.05, 0.05}, {10.05, 10.05}},
		K:         2,
	}
}

// badSplit assigns the same points across the real cluster boundary.
func badSplit() Clustering {
	c := twoTightClusters()
	return Clustering{
		Points:    c.Points,
		Assign:    []int{0, 1, 0, 1, 0, 1, 0, 1},
		Centroids: [][]float64{{5, 5.05}, {5.1, 5.05}},
		K:         2,
	}
}

func TestDaviesBouldinPrefersGoodClustering(t *testing.T) {
	good, err := DaviesBouldin(twoTightClusters(), euclid(twoTightClusters()))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := DaviesBouldin(badSplit(), euclid(badSplit()))
	if err != nil {
		t.Fatal(err)
	}
	if good >= bad {
		t.Errorf("DB: good=%v should be < bad=%v", good, bad)
	}
	if good > 0.1 {
		t.Errorf("DB of tight clusters = %v, want near 0", good)
	}
}

func TestDBStarUpperBoundsDB(t *testing.T) {
	// DB* >= DB for any clustering (decoupled extrema).
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 61))
		n := rng.IntN(20) + 6
		k := rng.IntN(3) + 2
		c := randomClustering(rng, n, k, 3)
		db, err1 := DaviesBouldin(c, euclid(c))
		dbs, err2 := DaviesBouldinStar(c, euclid(c))
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return dbs >= db-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randomClustering(rng *rand.Rand, n, k, dim int) Clustering {
	pts := make([][]float64, n)
	assign := make([]int, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = rng.NormFloat64() * 5
		}
		assign[i] = i % k // guarantees no empty cluster
	}
	cents := make([][]float64, k)
	counts := make([]int, k)
	for c := range cents {
		cents[c] = make([]float64, dim)
	}
	for i, a := range assign {
		counts[a]++
		for j := range pts[i] {
			cents[a][j] += pts[i][j]
		}
	}
	for c := range cents {
		for j := range cents[c] {
			cents[c][j] /= float64(counts[c])
		}
	}
	return Clustering{Points: pts, Assign: assign, Centroids: cents, K: k}
}

func TestDunnPrefersGoodClustering(t *testing.T) {
	good, err := Dunn(twoTightClusters(), euclid(twoTightClusters()))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Dunn(badSplit(), euclid(badSplit()))
	if err != nil {
		t.Fatal(err)
	}
	if good <= bad {
		t.Errorf("Dunn: good=%v should be > bad=%v", good, bad)
	}
	if good < 10 {
		t.Errorf("Dunn of well-separated clusters = %v, want large", good)
	}
}

func TestSilhouettePrefersGoodClustering(t *testing.T) {
	good, err := Silhouette(twoTightClusters(), euclid(twoTightClusters()))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Silhouette(badSplit(), euclid(badSplit()))
	if err != nil {
		t.Fatal(err)
	}
	if good <= bad {
		t.Errorf("Silhouette: good=%v should be > bad=%v", good, bad)
	}
	if good < 0.9 {
		t.Errorf("Silhouette of tight clusters = %v, want near 1", good)
	}
}

func TestSilhouetteBoundedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 62))
		n := rng.IntN(25) + 4
		k := rng.IntN(3) + 2
		c := randomClustering(rng, n, k, 2)
		s, err := Silhouette(c, euclid(c))
		if err != nil {
			return true
		}
		return s >= -1-1e-9 && s <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSilhouetteSingletonContributesZero(t *testing.T) {
	c := Clustering{
		Points: [][]float64{{0}, {0.1}, {50}},
		Assign: []int{0, 0, 1},
		K:      2,
	}
	s, err := Silhouette(c, euclid(c))
	if err != nil {
		t.Fatal(err)
	}
	// Two strong members (≈1 each) + singleton 0, averaged over 3.
	if s < 0.6 || s > 0.67 {
		t.Errorf("Silhouette with singleton = %v, want ≈ 2/3", s)
	}
}

func TestValidation(t *testing.T) {
	good := twoTightClusters()

	c := good
	c.Assign = []int{0, 0}
	if err := c.Validate(false); err == nil {
		t.Error("assignment length mismatch: want error")
	}

	c = good
	c.K = 1
	if _, err := Dunn(c, euclid(c)); err == nil {
		t.Error("K=1: want error")
	}

	c = good
	c.Assign = []int{0, 0, 0, 0, 0, 0, 0, 9}
	if err := c.Validate(false); err == nil {
		t.Error("out-of-range assignment: want error")
	}

	c = good
	c.Assign = []int{0, 0, 0, 0, 0, 0, 0, 0}
	if err := c.Validate(false); err == nil {
		t.Error("empty cluster: want error")
	}

	c = good
	c.Centroids = nil
	if _, err := DaviesBouldin(c, euclid(c)); err == nil {
		t.Error("missing centroids: want error")
	}

	if err := (Clustering{}).Validate(false); err == nil {
		t.Error("empty clustering: want error")
	}
}

func TestCoincidentCentroidsError(t *testing.T) {
	c := twoTightClusters()
	c.Centroids = [][]float64{{1, 1}, {1, 1}}
	if _, err := DaviesBouldin(c, euclid(c)); err == nil {
		t.Error("coincident centroids: want error (DB)")
	}
	if _, err := DaviesBouldinStar(c, euclid(c)); err == nil {
		t.Error("coincident centroids: want error (DB*)")
	}
}

func TestDunnDegenerateDiameter(t *testing.T) {
	c := Clustering{
		Points: [][]float64{{1}, {1}, {5}, {5}},
		Assign: []int{0, 0, 1, 1},
		K:      2,
	}
	if _, err := Dunn(c, euclid(c)); err == nil {
		t.Error("zero diameters: want error")
	}
}

func TestAllScoresDegenerateGivesNaN(t *testing.T) {
	c := twoTightClusters()
	c.Centroids = [][]float64{{1, 1}, {1, 1}}
	s := AllScores(c, euclid(c))
	if !math.IsNaN(s.DaviesBouldin) || !math.IsNaN(s.DBStar) {
		t.Error("degenerate DB scores should be NaN")
	}
	if math.IsNaN(s.Dunn) || math.IsNaN(s.Silhouette) {
		t.Error("Dunn/Silhouette do not need centroids and should succeed")
	}
	if s.K != 2 {
		t.Errorf("K = %d", s.K)
	}
}

func TestAllScoresHealthy(t *testing.T) {
	s := AllScores(twoTightClusters(), euclid(twoTightClusters()))
	if math.IsNaN(s.DaviesBouldin) || math.IsNaN(s.DBStar) || math.IsNaN(s.Dunn) || math.IsNaN(s.Silhouette) {
		t.Errorf("healthy clustering produced NaN: %+v", s)
	}
}
