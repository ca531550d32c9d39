// Package core implements the paper's analysis pipeline — the primary
// contribution being reproduced. Given a Dataset (synthetic or
// probe-measured; see the Dataset interface), it computes every
// statistic behind Figs. 2-11: service rank-size laws, top-20
// rankings, peak calendars and intensities, the k-Shape
// cluster-quality sweep, spatial concentration and correlation, and
// the urbanization analysis.
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cvi"
	"repro/internal/geo"
	"repro/internal/kshape"
	"repro/internal/peaks"
	"repro/internal/services"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// Analyzer runs the paper's computations over one dataset. It
// memoizes the expensive intermediates shared by several figures —
// per-user commune vectors, z-normalized national series, the full
// service ranking and the peak calendars — so an experiment engine
// running many figures over one environment computes each exactly
// once. Each intermediate has its own per-direction memo slot, so
// concurrent runners building *different* intermediates never block
// each other. All methods are safe for concurrent use.
type Analyzer struct {
	DS Dataset

	perUser   [services.NumDirections]memo[[][]float64]
	znorm     [services.NumDirections]memo[[][]float64]
	ranking   [services.NumDirections]memo[[]RankedService]
	calendars [services.NumDirections]memo[calendarSet]
}

// memo is a single-flight cache slot: the first caller computes, all
// others (including concurrent ones) get the same value.
type memo[T any] struct {
	once sync.Once
	val  T
}

func (m *memo[T]) get(compute func() T) T {
	m.once.Do(func() { m.val = compute() })
	return m.val
}

type calendarSet struct {
	cals    []ServiceCalendar
	outside int
	err     error
}

// New wraps a dataset.
func New(ds Dataset) *Analyzer { return &Analyzer{DS: ds} }

// PerUserVectors returns the per-commune per-subscriber volume vector
// of every service (computed once per analyzer). The returned slices
// are shared; callers must not mutate them.
func (a *Analyzer) PerUserVectors(dir services.Direction) [][]float64 {
	return a.perUser[dir].get(func() [][]float64 {
		n := len(a.DS.Services())
		vecs := make([][]float64, n)
		for s := 0; s < n; s++ {
			vecs[s] = a.DS.PerUser(dir, s)
		}
		return vecs
	})
}

// PerUser returns the memoized per-user vector of one service. The
// returned slice is shared; callers must not mutate it.
func (a *Analyzer) PerUser(dir services.Direction, svc int) []float64 {
	return a.PerUserVectors(dir)[svc]
}

// zNormalized returns the z-normalized national series of every
// service (computed once per analyzer).
func (a *Analyzer) zNormalized(dir services.Direction) [][]float64 {
	return a.znorm[dir].get(func() [][]float64 {
		n := len(a.DS.Services())
		series := make([][]float64, n)
		for s := 0; s < n; s++ {
			series[s] = timeseries.ZNormalize(a.DS.NationalSeries(dir, s).Values)
		}
		return series
	})
}

// --- Fig. 2: service ranking and Zipf fit ---------------------------

// Ranking is the rank-size analysis of the full service population.
type Ranking struct {
	// Volumes is the full volume vector sorted descending.
	Volumes []float64
	// Normalized is Volumes scaled so rank 1 equals 1 (the paper's
	// "normalized traffic" axis).
	Normalized []float64
	// HeadFit is the Zipf fit over the top half of the ranking, the
	// fit reported in Fig. 2 (-1.69 DL, -1.55 UL).
	HeadFit stats.ZipfFit
}

// ServiceRanking computes the Fig. 2 analysis for one direction.
func (a *Analyzer) ServiceRanking(dir services.Direction) (Ranking, error) {
	vols := a.DS.AllVolumes(dir)
	sort.Sort(sort.Reverse(sort.Float64Slice(vols)))
	fit, err := stats.FitZipf(vols, len(vols)/2)
	if err != nil {
		return Ranking{}, fmt.Errorf("core: ranking fit: %w", err)
	}
	norm := make([]float64, len(vols))
	if vols[0] > 0 {
		for i, v := range vols {
			norm[i] = v / vols[0]
		}
	}
	return Ranking{Volumes: vols, Normalized: norm, HeadFit: fit}, nil
}

// --- Fig. 3: top-20 ranking by direction ----------------------------

// RankedService is one bar of Fig. 3.
type RankedService struct {
	Name     string
	Category services.Category
	// Share of the total (named + tail) traffic in the direction.
	Share float64
}

// rankedAll returns every named service sorted by share, computed
// once per analyzer and direction.
func (a *Analyzer) rankedAll(dir services.Direction) []RankedService {
	return a.ranking[dir].get(func() []RankedService {
		total := a.DS.TotalTraffic(dir)
		svcs := a.DS.Services()
		out := make([]RankedService, 0, len(svcs))
		for s := range svcs {
			share := 0.0
			if total > 0 {
				share = a.DS.NationalTotal(dir, s) / total
			}
			out = append(out, RankedService{
				Name:     svcs[s].Name,
				Category: svcs[s].Category,
				Share:    share,
			})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Share > out[j].Share })
		return out
	})
}

// Top20 ranks the named services on their share of total traffic and
// returns at most the 20 largest (all of them when the catalogue is
// smaller, as measured datasets can be).
func (a *Analyzer) Top20(dir services.Direction) []RankedService {
	ranked := a.rankedAll(dir)
	n := min(20, len(ranked))
	return append([]RankedService(nil), ranked[:n]...)
}

// CategoryShare sums the share of a category across all named
// services in the direction. It reuses the memoized ranking rather
// than recomputing it per category.
func (a *Analyzer) CategoryShare(dir services.Direction, cat services.Category) float64 {
	var share float64
	for _, r := range a.rankedAll(dir) {
		if r.Category == cat {
			share += r.Share
		}
	}
	return share
}

// --- Fig. 4 + 6 + 7: peak analysis ----------------------------------

// ServiceCalendar pairs a service with its detected peak calendar.
type ServiceCalendar struct {
	Service  string
	Calendar peaks.Calendar
}

// PeakCalendars runs the smoothed z-score detector (paper parameters)
// over every national series and maps peaks onto topical times. It
// returns one calendar per service and the count of peaks that fell
// outside every topical window (empirically zero, as in the paper).
// The calendars are computed once per analyzer and direction — the
// outcome, error included, is deterministic in the dataset and is
// cached; the returned slice is shared and must not be mutated.
func (a *Analyzer) PeakCalendars(dir services.Direction) ([]ServiceCalendar, int, error) {
	res := a.calendars[dir].get(func() calendarSet {
		svcs := a.DS.Services()
		out := make([]ServiceCalendar, 0, len(svcs))
		totalOutside := 0
		for s := range svcs {
			cal, outside, err := peaks.BuildCalendar(a.DS.NationalSeries(dir, s), peaks.PaperParams())
			if err != nil {
				return calendarSet{err: fmt.Errorf("core: calendar for %s: %w", svcs[s].Name, err)}
			}
			totalOutside += outside
			out = append(out, ServiceCalendar{Service: svcs[s].Name, Calendar: cal})
		}
		return calendarSet{cals: out, outside: totalOutside}
	})
	return res.cals, res.outside, res.err
}

// DistinctCalendarCount returns how many distinct peak patterns the
// calendars exhibit; the paper's Fig. 6 observation is that (almost)
// every service is unique.
func DistinctCalendarCount(cals []ServiceCalendar) int {
	seen := map[[peaks.NumTopicalTimes]bool]bool{}
	for _, c := range cals {
		seen[c.Calendar.Present] = true
	}
	return len(seen)
}

// DetectOn exposes the raw detector output for one service (the
// Fig. 4 illustration): the series, the detector result and the
// extracted peaks.
func (a *Analyzer) DetectOn(dir services.Direction, name string) (*timeseries.Series, *peaks.Result, []peaks.Peak, error) {
	idx, err := a.DS.ServiceIndex(name)
	if err != nil {
		return nil, nil, nil, err
	}
	s := a.DS.NationalSeries(dir, idx)
	res, err := peaks.Detect(s.Values, peaks.PaperParams())
	if err != nil {
		return nil, nil, nil, err
	}
	pks, err := peaks.ExtractPeaks(s.Values, res)
	if err != nil {
		return nil, nil, nil, err
	}
	return s, res, pks, nil
}

// --- Fig. 5: clustering sweep ----------------------------------------

// SweepPoint is the cluster-quality measurement at one k.
type SweepPoint struct {
	K      int
	Scores cvi.Scores
}

// ClusterSweep z-normalizes the national series of every direction in
// dirs and runs k-Shape for every k in [kMin, kMax], scoring each
// clustering with all four validity indices under the shape-based
// distance; out[d] is the sweep of dirs[d] in ascending k. The paper
// sweeps k = 2..19 and finds no winner: quality degrades monotonically.
//
// The (direction, k) clusterings are independent and each is
// deterministic in (series, k, seed), so they run on up to workers
// goroutines (at least one), costliest — largest k — first, each
// writing its own slot: the result is identical at any worker count.
// ctx is checked between clusterings; a cancelled sweep returns
// ctx.Err() once its workers have stopped.
func (a *Analyzer) ClusterSweep(ctx context.Context, dirs []services.Direction, kMin, kMax int, seed uint64, workers int) ([][]SweepPoint, error) {
	n := len(a.DS.Services())
	if kMin < 2 {
		return nil, fmt.Errorf("core: sweep kMin %d < 2", kMin)
	}
	if kMax >= n {
		return nil, fmt.Errorf("core: sweep kMax %d >= %d services", kMax, n)
	}
	type direction struct {
		series [][]float64
		set    *kshape.SeriesSet
		points [][]float64 // the set's SBD matrix, shared by every k
	}
	type task struct{ d, k int }
	prepared := make([]direction, len(dirs))
	out := make([][]SweepPoint, len(dirs))
	var tasks []task
	for d, dir := range dirs {
		series := a.zNormalized(dir)
		set, err := kshape.NewSeriesSet(series, false)
		if err != nil {
			return nil, fmt.Errorf("core: k-shape %s: %w", dir, err)
		}
		prepared[d] = direction{series: series, set: set, points: set.DistanceMatrix()}
		out[d] = make([]SweepPoint, max(0, kMax-kMin+1))
	}
	for k := kMax; k >= kMin; k-- {
		for d := range dirs {
			tasks = append(tasks, task{d, k})
		}
	}

	errs := make([]error, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(max(workers, 1), len(tasks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := new(kshape.Workspace)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) || ctx.Err() != nil {
					return
				}
				t, p := tasks[i], &prepared[tasks[i].d]
				res, err := p.set.Cluster(t.k, kshape.Options{Seed: seed}, ws)
				if err != nil {
					errs[i] = fmt.Errorf("core: k-shape k=%d: %w", t.k, err)
					continue
				}
				c := cvi.Clustering{Points: p.series, Assign: res.Assign, Centroids: res.Centroids, K: t.k}
				out[t.d][t.k-kMin] = SweepPoint{K: t.k, Scores: cvi.AllScores(c, p.set.Distances(p.points, res.Centroids))}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- Fig. 8: spatial concentration -----------------------------------

// Concentration is the Fig. 8 analysis for one service.
type Concentration struct {
	// TopShares maps a commune fraction to its share of total traffic
	// (e.g. 0.01 -> 0.55 means the top 1% of communes carry 55%).
	TopShares map[float64]float64
	// PerUser is the per-commune per-subscriber volume sample.
	PerUser []float64
	// CDF is the empirical distribution of PerUser.
	CDF *stats.ECDF
	// Gini summarizes the commune-volume concentration.
	Gini float64
}

// SpatialConcentration computes Fig. 8 for one service.
func (a *Analyzer) SpatialConcentration(dir services.Direction, name string) (Concentration, error) {
	idx, err := a.DS.ServiceIndex(name)
	if err != nil {
		return Concentration{}, err
	}
	spatial := a.DS.SpatialVolumes(dir, idx)
	shares, err := stats.LorenzCurve(spatial, []float64{0.01, 0.05, 0.10, 0.50, 1})
	if err != nil {
		return Concentration{}, err
	}
	gini, err := stats.Gini(spatial)
	if err != nil {
		return Concentration{}, err
	}
	perUser := a.PerUser(dir, idx)
	cdf, err := stats.NewECDF(perUser)
	if err != nil {
		return Concentration{}, err
	}
	return Concentration{TopShares: shares, PerUser: perUser, CDF: cdf, Gini: gini}, nil
}

// r2Tolerant returns the coefficient of determination, treating
// statistically degenerate samples (constant vectors — dormant
// classes or barely observed services in sparse measured datasets) as
// zero correlation. Length mismatches and too-small samples are
// programming errors and still propagate.
func r2Tolerant(x, y []float64) (float64, error) {
	v, err := stats.R2(x, y)
	if err == nil {
		return v, nil
	}
	if len(x) == len(y) && len(x) >= 2 {
		return 0, nil
	}
	return 0, err
}

// slopeTolerant returns the through-origin regression slope, treating
// an all-zero regressor (a class that saw no traffic for the service
// in a sparse measured dataset) as slope zero. Length mismatches and
// empty samples still propagate.
func slopeTolerant(x, y []float64) (float64, error) {
	v, err := stats.SlopeThroughOrigin(x, y)
	if err == nil {
		return v, nil
	}
	if len(x) == len(y) && len(x) > 0 {
		return 0, nil
	}
	return 0, err
}

// --- Fig. 10: pairwise spatial correlation ---------------------------

// SpatialCorrelation is the Fig. 10 analysis for one direction.
type SpatialCorrelation struct {
	// Names indexes the matrix.
	Names []string
	// R2 is the symmetric pairwise coefficient-of-determination matrix
	// between per-user commune vectors (diagonal = 1).
	R2 [][]float64
	// Pairs lists the upper-triangle values (the Fig. 10 CDF sample).
	Pairs []float64
	// Mean is the average pairwise r² (paper: 0.60 DL, 0.53 UL).
	Mean float64
	// ServiceMean[i] is the mean r² of service i against all others;
	// Netflix and iCloud sit lowest (the outlier rows).
	ServiceMean []float64
	// MeanSpearman is the average pairwise squared Spearman rank
	// correlation — the robustness companion: per-commune volumes are
	// heavy-tailed, so a moment-based r² could in principle be carried
	// by a handful of metropolises. Agreement between the two means
	// shows the spatial similarity is not an outlier artefact.
	MeanSpearman float64
}

// SpatialCorrelationAnalysis computes Fig. 10 for one direction.
func (a *Analyzer) SpatialCorrelationAnalysis(dir services.Direction) (SpatialCorrelation, error) {
	svcs := a.DS.Services()
	n := len(svcs)
	perUser := a.PerUserVectors(dir)
	names := make([]string, n)
	for s := 0; s < n; s++ {
		names[s] = svcs[s].Name
	}
	r2 := make([][]float64, n)
	for i := range r2 {
		r2[i] = make([]float64, n)
		r2[i][i] = 1
	}
	// Precompute rank transforms once per service for the Spearman
	// robustness check.
	rankOf := make([][]float64, n)
	for s := 0; s < n; s++ {
		r, err := stats.Ranks(perUser[s])
		if err != nil {
			return SpatialCorrelation{}, fmt.Errorf("core: ranks(%s): %w", names[s], err)
		}
		rankOf[s] = r
	}
	var pairs []float64
	var sum, sumSpear float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v, err := r2Tolerant(perUser[i], perUser[j])
			if err != nil {
				return SpatialCorrelation{}, fmt.Errorf("core: r2(%s, %s): %w", names[i], names[j], err)
			}
			r2[i][j] = v
			r2[j][i] = v
			pairs = append(pairs, v)
			sum += v
			if rho, err := stats.Pearson(rankOf[i], rankOf[j]); err == nil {
				sumSpear += rho * rho
			}
		}
	}
	svcMean := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			if i != j {
				s += r2[i][j]
			}
		}
		svcMean[i] = s / float64(n-1)
	}
	return SpatialCorrelation{
		Names: names, R2: r2, Pairs: pairs,
		Mean:         sum / float64(len(pairs)),
		ServiceMean:  svcMean,
		MeanSpearman: sumSpear / float64(len(pairs)),
	}, nil
}

// --- Fig. 11: urbanization analysis ----------------------------------

// UrbanizationResult is the Fig. 11 analysis for one direction.
type UrbanizationResult struct {
	Names []string
	// Slopes[s][u] is the through-origin regression slope of the
	// per-user series of class u against the urban one (Fig. 11 top);
	// Slopes[s][geo.Urban] is 1 by construction.
	Slopes [][geo.NumUrbanization]float64
	// TimeR2[s][u] is the mean r² between class u's series of service
	// s and the other classes' series (Fig. 11 bottom).
	TimeR2 [][geo.NumUrbanization]float64
}

// UrbanizationAnalysis computes Fig. 11 for one direction.
func (a *Analyzer) UrbanizationAnalysis(dir services.Direction) (UrbanizationResult, error) {
	svcs := a.DS.Services()
	n := len(svcs)
	res := UrbanizationResult{
		Names:  make([]string, n),
		Slopes: make([][geo.NumUrbanization]float64, n),
		TimeR2: make([][geo.NumUrbanization]float64, n),
	}
	for s := 0; s < n; s++ {
		res.Names[s] = svcs[s].Name
		var perUser [geo.NumUrbanization]*timeseries.Series
		for u := 0; u < geo.NumUrbanization; u++ {
			perUser[u] = a.DS.GroupPerUser(dir, s, geo.Urbanization(u))
		}
		urban := perUser[geo.Urban].Values
		for u := 0; u < geo.NumUrbanization; u++ {
			slope, err := slopeTolerant(urban, perUser[u].Values)
			if err != nil {
				return res, fmt.Errorf("core: slope %s/%v: %w", res.Names[s], geo.Urbanization(u), err)
			}
			res.Slopes[s][u] = slope
			var sum float64
			cnt := 0
			for v := 0; v < geo.NumUrbanization; v++ {
				if v == u {
					continue
				}
				r2, err := r2Tolerant(perUser[u].Values, perUser[v].Values)
				if err != nil {
					return res, fmt.Errorf("core: time r2 %s %v/%v: %w",
						res.Names[s], geo.Urbanization(u), geo.Urbanization(v), err)
				}
				sum += r2
				cnt++
			}
			res.TimeR2[s][u] = sum / float64(cnt)
		}
	}
	return res, nil
}
