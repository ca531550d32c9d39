package kshape

import (
	"fmt"
	"math"

	"repro/internal/cvi"
)

// BestKResult is the outcome of a silhouette-guided model selection.
type BestKResult struct {
	K          int
	Silhouette float64
	Result     *Result
	// ByK lists the silhouette of every candidate k (NaN when the
	// clustering degenerated), for Fig. 5-style inspection.
	ByK map[int]float64
}

// SelectK runs k-Shape for every k in [kMin, kMax] and returns the
// clustering with the best mean silhouette under the shape-based
// distance. When no k clearly wins — silhouettes decreasing in k with
// the maximum at kMin, the paper's Fig. 5 situation — the caller
// should treat the selection as evidence *against* a natural grouping
// rather than as a model choice; Decisive reports that distinction.
func SelectK(series [][]float64, kMin, kMax int, opts Options) (*BestKResult, error) {
	if kMin < 2 || kMax < kMin || kMax >= len(series) {
		return nil, fmt.Errorf("kshape: SelectK range [%d, %d] invalid for %d series", kMin, kMax, len(series))
	}
	set, err := NewSeriesSet(series, opts.ZNormalize)
	if err != nil {
		return nil, err
	}
	dist := set.Distances(set.DistanceMatrix(), nil)
	ws := new(Workspace)
	best := &BestKResult{K: 0, Silhouette: math.Inf(-1), ByK: map[int]float64{}}
	for k := kMin; k <= kMax; k++ {
		res, err := set.Cluster(k, opts, ws)
		if err != nil {
			return nil, err
		}
		// The mean silhouette under the same normalization the
		// clustering used.
		sil, err := cvi.Silhouette(cvi.Clustering{Points: set.data, Assign: res.Assign, K: k}, dist)
		if err != nil {
			best.ByK[k] = math.NaN()
			continue
		}
		best.ByK[k] = sil
		if sil > best.Silhouette {
			best.K, best.Silhouette, best.Result = k, sil, res
		}
	}
	if best.Result == nil {
		return nil, fmt.Errorf("kshape: every k in [%d, %d] degenerated", kMin, kMax)
	}
	return best, nil
}

// Decisive reports whether the selected k actually dominates: its
// silhouette must beat the runner-up by margin. The Fig. 5 pattern
// (monotone decay from kMin) is not decisive.
func (r *BestKResult) Decisive(margin float64) bool {
	runnerUp := math.Inf(-1)
	for k, s := range r.ByK {
		if k != r.K && !math.IsNaN(s) && s > runnerUp {
			runnerUp = s
		}
	}
	return r.Silhouette-runnerUp >= margin
}
