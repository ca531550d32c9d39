// Package cvi implements the four cluster validity indices the paper
// uses to search for a natural number of service clusters (Fig. 5):
// Davies-Bouldin, the modified Davies-Bouldin (DB*), Dunn and
// Silhouette. The first two are minimized by good clusterings, the
// last two maximized.
//
// All indices are parameterized by the distances they read, so they
// can score both k-Shape (shape-based distance) and the Euclidean
// k-means baseline.
package cvi

import (
	"errors"
	"fmt"
	"math"
)

// Distances answers an index's distance queries by position: points
// are numbered as in Clustering.Points, centroids by cluster. Asking by
// position rather than by vector lets a caller that scores many
// clusterings of the same points compute the point-to-point distances
// once (kshape.SeriesSet does, for a whole sweep over k) instead of
// once per index per clustering. The distance need not be symmetric to
// the last bit: Dunn asks Points(i, j) for i < j, Silhouette for every
// i != j, and each gets exactly the ordered pair it asked for.
type Distances interface {
	// Points returns d(point i, point j).
	Points(i, j int) float64
	// ToCentroid returns d(point i, centroid c).
	ToCentroid(i, c int) float64
	// Centroids returns d(centroid a, centroid b).
	Centroids(a, b int) float64
}

// DistFunc measures dissimilarity between two equal-length vectors.
type DistFunc func(a, b []float64) float64

// Clustering bundles the inputs every index needs: the points, their
// cluster assignment in [0, K), and (for the Davies-Bouldin family)
// the cluster centroids.
type Clustering struct {
	Points    [][]float64
	Assign    []int
	Centroids [][]float64 // may be nil for Dunn and Silhouette
	K         int
}

// Under returns the distances of c's points and centroids measured by
// d, evaluated on demand.
func (c Clustering) Under(d DistFunc) Distances { return vectorDistances{c, d} }

type vectorDistances struct {
	c Clustering
	d DistFunc
}

func (v vectorDistances) Points(i, j int) float64 { return v.d(v.c.Points[i], v.c.Points[j]) }
func (v vectorDistances) ToCentroid(i, c int) float64 {
	return v.d(v.c.Points[i], v.c.Centroids[c])
}
func (v vectorDistances) Centroids(a, b int) float64 {
	return v.d(v.c.Centroids[a], v.c.Centroids[b])
}

// Validate checks structural consistency; indices call it internally.
func (c Clustering) Validate(needCentroids bool) error {
	if len(c.Points) == 0 {
		return errors.New("cvi: no points")
	}
	if len(c.Assign) != len(c.Points) {
		return fmt.Errorf("cvi: %d assignments for %d points", len(c.Assign), len(c.Points))
	}
	if c.K < 2 {
		return fmt.Errorf("cvi: validity indices need K >= 2, got %d", c.K)
	}
	counts := make([]int, c.K)
	for i, a := range c.Assign {
		if a < 0 || a >= c.K {
			return fmt.Errorf("cvi: point %d assigned to cluster %d outside [0,%d)", i, a, c.K)
		}
		counts[a]++
	}
	for cl, n := range counts {
		if n == 0 {
			return fmt.Errorf("cvi: cluster %d is empty", cl)
		}
	}
	if needCentroids {
		if len(c.Centroids) != c.K {
			return fmt.Errorf("cvi: %d centroids for K=%d", len(c.Centroids), c.K)
		}
	}
	return nil
}

// scatter returns S_i: the average distance from members of cluster i
// to its centroid.
func (c Clustering) scatter(d Distances) []float64 {
	s := make([]float64, c.K)
	n := make([]int, c.K)
	for i, a := range c.Assign {
		s[a] += d.ToCentroid(i, a)
		n[a]++
	}
	for i := range s {
		if n[i] > 0 {
			s[i] /= float64(n[i])
		}
	}
	return s
}

// DaviesBouldin returns the classic DB index:
//
//	DB = (1/K) Σ_i max_{j≠i} (S_i + S_j) / d(c_i, c_j)
//
// Lower is better. It returns an error for degenerate clusterings
// (coincident centroids make the ratio unbounded).
func DaviesBouldin(c Clustering, d Distances) (float64, error) {
	if err := c.Validate(true); err != nil {
		return 0, err
	}
	s := c.scatter(d)
	var sum float64
	for i := 0; i < c.K; i++ {
		worst := 0.0
		for j := 0; j < c.K; j++ {
			if i == j {
				continue
			}
			m := d.Centroids(i, j)
			if m == 0 {
				return 0, errors.New("cvi: coincident centroids")
			}
			if r := (s[i] + s[j]) / m; r > worst {
				worst = r
			}
		}
		sum += worst
	}
	return sum / float64(c.K), nil
}

// DaviesBouldinStar returns the modified DB* index of Kim & Ramakrishna
// (2005), which decouples the numerator and denominator extrema:
//
//	DB* = (1/K) Σ_i [max_{j≠i} (S_i + S_j)] / [min_{j≠i} d(c_i, c_j)]
//
// Lower is better; DB* >= DB always.
func DaviesBouldinStar(c Clustering, d Distances) (float64, error) {
	if err := c.Validate(true); err != nil {
		return 0, err
	}
	s := c.scatter(d)
	var sum float64
	for i := 0; i < c.K; i++ {
		maxNum := 0.0
		minDen := math.Inf(1)
		for j := 0; j < c.K; j++ {
			if i == j {
				continue
			}
			if n := s[i] + s[j]; n > maxNum {
				maxNum = n
			}
			if m := d.Centroids(i, j); m < minDen {
				minDen = m
			}
		}
		if minDen == 0 {
			return 0, errors.New("cvi: coincident centroids")
		}
		sum += maxNum / minDen
	}
	return sum / float64(c.K), nil
}

// Dunn returns the Dunn index: the minimum inter-cluster distance
// (single linkage between members) divided by the maximum cluster
// diameter (complete linkage within members). Higher is better.
// Singleton-only diameters of zero across all clusters yield an error.
func Dunn(c Clustering, d Distances) (float64, error) {
	if err := c.Validate(false); err != nil {
		return 0, err
	}
	minInter := math.Inf(1)
	maxDiam := 0.0
	n := len(c.Points)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dist := d.Points(i, j)
			if c.Assign[i] == c.Assign[j] {
				if dist > maxDiam {
					maxDiam = dist
				}
			} else if dist < minInter {
				minInter = dist
			}
		}
	}
	if maxDiam == 0 {
		return 0, errors.New("cvi: zero cluster diameter (all clusters singleton or duplicate points)")
	}
	return minInter / maxDiam, nil
}

// Silhouette returns the mean silhouette coefficient over all points:
// s(i) = (b_i - a_i) / max(a_i, b_i), where a_i is the mean distance to
// the point's own cluster and b_i the smallest mean distance to another
// cluster. The value lies in [-1, 1]; higher is better. Points in
// singleton clusters contribute 0, the standard convention.
func Silhouette(c Clustering, d Distances) (float64, error) {
	if err := c.Validate(false); err != nil {
		return 0, err
	}
	n := len(c.Points)
	counts := make([]int, c.K)
	for _, a := range c.Assign {
		counts[a]++
	}
	var total float64
	for i := 0; i < n; i++ {
		own := c.Assign[i]
		if counts[own] == 1 {
			continue // s(i) = 0
		}
		sums := make([]float64, c.K)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			sums[c.Assign[j]] += d.Points(i, j)
		}
		a := sums[own] / float64(counts[own]-1)
		b := math.Inf(1)
		for cl := 0; cl < c.K; cl++ {
			if cl == own || counts[cl] == 0 {
				continue
			}
			if m := sums[cl] / float64(counts[cl]); m < b {
				b = m
			}
		}
		denom := math.Max(a, b)
		if denom > 0 {
			total += (b - a) / denom
		}
	}
	return total / float64(n), nil
}

// Scores bundles all four indices for one clustering, as plotted in
// Fig. 5 (one point per k per index per direction).
type Scores struct {
	K             int
	DaviesBouldin float64
	DBStar        float64
	Dunn          float64
	Silhouette    float64
}

// AllScores computes every index; indices that fail on a degenerate
// clustering are reported as NaN rather than aborting the sweep, since
// the paper's point is precisely that some k values degenerate.
func AllScores(c Clustering, d Distances) Scores {
	s := Scores{K: c.K}
	if v, err := DaviesBouldin(c, d); err == nil {
		s.DaviesBouldin = v
	} else {
		s.DaviesBouldin = math.NaN()
	}
	if v, err := DaviesBouldinStar(c, d); err == nil {
		s.DBStar = v
	} else {
		s.DBStar = math.NaN()
	}
	if v, err := Dunn(c, d); err == nil {
		s.Dunn = v
	} else {
		s.Dunn = math.NaN()
	}
	if v, err := Silhouette(c, d); err == nil {
		s.Silhouette = v
	} else {
		s.Silhouette = math.NaN()
	}
	return s
}
