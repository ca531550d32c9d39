package kshape

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestSBDIdentity(t *testing.T) {
	x := []float64{1, 2, 3, 2, 1, 0, -1}
	d, shift := SBD(x, x)
	if math.Abs(d) > 1e-10 || shift != 0 {
		t.Errorf("SBD(x,x) = %v shift %d", d, shift)
	}
}

func TestSBDShiftInvariance(t *testing.T) {
	// SBD of a shape and its shifted copy must be ~0 with the right lag.
	base := make([]float64, 64)
	for i := 20; i < 30; i++ {
		base[i] = math.Sin(float64(i-20) / 3)
	}
	shifted := Shift(base, 7)
	d, lag := SBD(base, shifted)
	if d > 1e-9 {
		t.Errorf("SBD to shifted copy = %v", d)
	}
	if lag != -7 {
		t.Errorf("alignment lag = %d, want -7", lag)
	}
}

func TestSBDRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 41))
		n := rng.IntN(60) + 4
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		d, _ := SBD(x, y)
		dr, _ := SBD(y, x)
		// Range [0, 2] and symmetry of the distance value.
		return d >= -1e-9 && d <= 2+1e-9 && math.Abs(d-dr) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSBDAnticorrelated(t *testing.T) {
	x := []float64{1, -1, 1, -1, 1, -1, 1, -1}
	y := []float64{-1, 1, -1, 1, -1, 1, -1, 1}
	d, _ := SBD(x, y)
	// Anti-phase square waves still align at ±1 shift, so SBD stays
	// low; at zero shift the correlation would be -1. What we check is
	// that the maximum NCC logic picks the aligned shift.
	if d > 0.2 {
		t.Errorf("SBD of shiftable anti-phase = %v", d)
	}
}

func TestShift(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := Shift(x, 1); got[0] != 0 || got[1] != 1 || got[3] != 3 {
		t.Errorf("Shift(+1) = %v", got)
	}
	if got := Shift(x, -2); got[0] != 3 || got[1] != 4 || got[2] != 0 {
		t.Errorf("Shift(-2) = %v", got)
	}
	if got := Shift(x, 10); got[0] != 0 || got[3] != 0 {
		t.Errorf("Shift beyond length = %v", got)
	}
	if got := Shift(x, 0); got[0] != 1 || got[3] != 4 {
		t.Errorf("Shift(0) = %v", got)
	}
}

func TestAlignTo(t *testing.T) {
	ref := make([]float64, 32)
	ref[10] = 1
	y := make([]float64, 32)
	y[4] = 1
	aligned := AlignTo(ref, y)
	if aligned[10] != 1 {
		t.Errorf("AlignTo did not move the pulse: %v", aligned)
	}
	// Aligning zero signals must not panic and must keep values.
	z := AlignTo(make([]float64, 4), []float64{1, 2, 3, 4})
	if z[0] != 1 {
		t.Errorf("AlignTo with zero ref altered input: %v", z)
	}
}

func TestDistanceMatrixSymmetric(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	series := make([][]float64, 6)
	for i := range series {
		series[i] = make([]float64, 32)
		for j := range series[i] {
			series[i][j] = rng.NormFloat64()
		}
	}
	m, err := DistanceMatrix(series)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		if m[i][i] != 0 {
			t.Errorf("diagonal [%d] = %v", i, m[i][i])
		}
		for j := range m {
			if m[i][j] != m[j][i] {
				t.Errorf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
}

// makeShapeFamilies builds nf families of series: each family is a
// distinctive base shape plus small noise and random circular-ish
// shifts, the canonical k-Shape separability scenario.
func makeShapeFamilies(rng *rand.Rand, nf, perFamily, m int, shiftMax int) ([][]float64, []int) {
	var series [][]float64
	var labels []int
	for f := 0; f < nf; f++ {
		base := make([]float64, m)
		for i := range base {
			x := float64(i) / float64(m) * 2 * math.Pi
			switch f {
			case 0:
				base[i] = math.Sin(3 * x)
			case 1:
				base[i] = math.Abs(math.Mod(float64(i), 20) - 10)
			default:
				base[i] = math.Sin(x) + 0.8*math.Cos(5*x+float64(f))
			}
		}
		for p := 0; p < perFamily; p++ {
			s := Shift(base, rng.IntN(2*shiftMax+1)-shiftMax)
			for i := range s {
				s[i] += rng.NormFloat64() * 0.05
			}
			series = append(series, s)
			labels = append(labels, f)
		}
	}
	return series, labels
}

func TestClusterSeparatesShapeFamilies(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 20))
	series, labels := makeShapeFamilies(rng, 2, 8, 96, 6)
	res, err := Cluster(series, 2, Options{Seed: 42, ZNormalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !clusteringMatchesLabels(res.Assign, labels, 2) {
		t.Errorf("k-Shape failed to separate 2 shifted families: %v vs %v", res.Assign, labels)
	}
}

// clusteringMatchesLabels checks the assignment equals the ground truth
// up to a permutation of cluster ids.
func clusteringMatchesLabels(assign, labels []int, k int) bool {
	if len(assign) != len(labels) {
		return false
	}
	// Try all permutations for small k (k <= 3 here).
	perms := [][]int{{0, 1}, {1, 0}}
	if k == 3 {
		perms = [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	}
	for _, p := range perms {
		ok := true
		for i := range assign {
			if p[assign[i]] != labels[i] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestClusterShiftInvarianceBeatsKMeans(t *testing.T) {
	// Families differ only by shape; members are heavily shifted. k-Shape
	// should recover the families; Euclidean k-means typically cannot.
	rng := rand.New(rand.NewPCG(77, 88))
	series, labels := makeShapeFamilies(rng, 2, 10, 128, 20)
	ks, err := Cluster(series, 2, Options{Seed: 1, ZNormalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !clusteringMatchesLabels(ks.Assign, labels, 2) {
		t.Error("k-Shape failed on heavily shifted families")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := Cluster(nil, 2, Options{}); err == nil {
		t.Error("empty input: want error")
	}
	if _, err := Cluster([][]float64{{1, 2}}, 2, Options{}); err == nil {
		t.Error("k > n: want error")
	}
	if _, err := Cluster([][]float64{{1, 2}, {1}}, 1, Options{}); err == nil {
		t.Error("ragged input: want error")
	}
	if _, err := Cluster([][]float64{{}, {}}, 1, Options{}); err == nil {
		t.Error("zero-length series: want error")
	}
	if _, err := Cluster([][]float64{{1, 2}, {3, 4}}, 0, Options{}); err == nil {
		t.Error("k=0: want error")
	}
}

func TestClusterDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	series, _ := makeShapeFamilies(rng, 3, 5, 64, 5)
	a, err := Cluster(series, 3, Options{Seed: 9, ZNormalize: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(series, 3, Options{Seed: 9, ZNormalize: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different assignments")
		}
	}
	if a.Inertia != b.Inertia {
		t.Error("same seed produced different inertia")
	}
}

func TestClusterKEqualsN(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	series, _ := makeShapeFamilies(rng, 2, 3, 48, 3)
	res, err := Cluster(series, len(series), Options{Seed: 3, ZNormalize: true})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, a := range res.Assign {
		seen[a] = true
	}
	if len(seen) != len(series) {
		t.Errorf("k=n should give singleton clusters, got %d distinct", len(seen))
	}
	if res.Inertia > 1e-6 {
		t.Errorf("singleton clustering inertia = %v, want ~0", res.Inertia)
	}
}

func TestAllAssignmentsInRangeProperty(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 51))
		n := rng.IntN(10) + 4
		k := int(kRaw)%n + 1
		series := make([][]float64, n)
		for i := range series {
			series[i] = make([]float64, 32)
			for j := range series[i] {
				series[i][j] = rng.NormFloat64()
			}
		}
		res, err := Cluster(series, k, Options{Seed: seed, ZNormalize: true})
		if err != nil {
			return false
		}
		counts := make([]int, k)
		for _, a := range res.Assign {
			if a < 0 || a >= k {
				return false
			}
			counts[a]++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestKMeansBasic(t *testing.T) {
	// Two well-separated constant-level groups, no shifting: k-means
	// must solve this trivially (without z-normalization, which would
	// erase level differences).
	series := [][]float64{
		{1, 1.1, 0.9, 1, 1.05, 0.95},
		{1.02, 0.98, 1, 1.1, 0.9, 1},
		{9, 9.1, 8.9, 9, 9.05, 8.95},
		{9.02, 8.98, 9, 9.1, 8.9, 9},
	}
	res, err := KMeans(series, 2, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] != res.Assign[1] || res.Assign[2] != res.Assign[3] || res.Assign[0] == res.Assign[2] {
		t.Errorf("k-means assignment = %v", res.Assign)
	}
}

func TestKMeansFailsOnShiftedShapes(t *testing.T) {
	// Demonstrates the ablation: with large shifts, Euclidean k-means
	// mixes the families that k-Shape separates (this is probabilistic,
	// so we only require that k-Shape's inertia-based match succeeds
	// while k-means mismatches on at least one of several seeds).
	rng := rand.New(rand.NewPCG(13, 14))
	series, labels := makeShapeFamilies(rng, 2, 10, 128, 24)
	kmeansFailed := false
	for seed := uint64(0); seed < 5; seed++ {
		km, err := KMeans(series, 2, Options{Seed: seed, ZNormalize: true})
		if err != nil {
			t.Fatal(err)
		}
		if !clusteringMatchesLabels(km.Assign, labels, 2) {
			kmeansFailed = true
			break
		}
	}
	if !kmeansFailed {
		t.Skip("k-means solved the shifted families on all seeds (rare but possible)")
	}
}

func TestDistAdapters(t *testing.T) {
	a := []float64{1, 0, 0}
	b := []float64{0, 1, 0}
	if EuclideanDist(a, b) != math.Sqrt(2) {
		t.Error("EuclideanDist wrong")
	}
	if d := SBDDist(a, a); math.Abs(d) > 1e-10 {
		t.Errorf("SBDDist(a,a) = %v", d)
	}
}
