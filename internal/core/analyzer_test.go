// The tests live in core_test so the analysis package itself stays
// free of any dataset-backend dependency: core sees only the Dataset
// interface, and the synthetic generator enters through it.
package core_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/peaks"
	"repro/internal/services"
	"repro/internal/synth"
)

var (
	smallOnce sync.Once
	smallDS   *synth.Dataset
)

// dataset memoizes the laptop-scale dataset across tests.
func dataset(t *testing.T) *synth.Dataset {
	t.Helper()
	smallOnce.Do(func() {
		ds, err := synth.Generate(synth.SmallConfig())
		if err != nil {
			t.Fatal(err)
		}
		smallDS = ds
	})
	return smallDS
}

func TestServiceRanking(t *testing.T) {
	ds := dataset(t)
	a := core.New(ds)
	for _, dir := range []services.Direction{services.DL, services.UL} {
		r, err := a.ServiceRanking(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Volumes) != ds.Cfg.TotalServices {
			t.Errorf("%v: %d volumes", dir, len(r.Volumes))
		}
		for i := 1; i < len(r.Volumes); i++ {
			if r.Volumes[i] > r.Volumes[i-1] {
				t.Fatalf("%v: ranking not sorted at %d", dir, i)
			}
		}
		if r.Normalized[0] != 1 {
			t.Errorf("%v: normalized[0] = %v", dir, r.Normalized[0])
		}
		if r.HeadFit.Exponent >= 0 {
			t.Errorf("%v: positive Zipf exponent %v", dir, r.HeadFit.Exponent)
		}
	}
}

func TestTop20SharesAndOrder(t *testing.T) {
	a := core.New(dataset(t))
	top := a.Top20(services.DL)
	if len(top) != 20 {
		t.Fatalf("top20 has %d entries", len(top))
	}
	if top[0].Name != "YouTube" {
		t.Errorf("top DL service = %s", top[0].Name)
	}
	var total float64
	for i, r := range top {
		if i > 0 && r.Share > top[i-1].Share {
			t.Error("top20 not sorted")
		}
		total += r.Share
	}
	if total < 0.55 || total > 0.75 {
		t.Errorf("top20 total share = %v, want ≈ 0.62 (\"over 60%%\")", total)
	}
	// Video ≈ 46% of downlink.
	video := a.CategoryShare(services.DL, services.Video)
	if math.Abs(video-0.46) > 0.02 {
		t.Errorf("video DL share = %v, want ≈ 0.46", video)
	}
	// UL leader is SnapChat.
	topUL := a.Top20(services.UL)
	if topUL[0].Name != "SnapChat" {
		t.Errorf("top UL service = %s", topUL[0].Name)
	}
}

// rankStub is a minimal Dataset implementation exercising the ranking
// paths with a catalogue larger than 20 services. Everything the
// ranking does not touch panics.
type rankStub struct {
	core.Dataset // panic-on-use fallback for unimplemented methods
	svcs         []services.Service
	vols         []float64
}

func (s *rankStub) Services() []services.Service { return s.svcs }
func (s *rankStub) NationalTotal(dir services.Direction, svc int) float64 {
	return s.vols[svc]
}
func (s *rankStub) TotalTraffic(dir services.Direction) float64 {
	var t float64
	for _, v := range s.vols {
		t += v
	}
	return t
}

func TestTop20CapsAtTwenty(t *testing.T) {
	stub := &rankStub{}
	for i := 0; i < 25; i++ {
		cat := services.Web
		if i%2 == 0 {
			cat = services.Video
		}
		stub.svcs = append(stub.svcs, services.Service{Name: string(rune('A' + i)), Category: cat})
		stub.vols = append(stub.vols, float64(100-i))
	}
	a := core.New(stub)
	top := a.Top20(services.DL)
	if len(top) != 20 {
		t.Fatalf("Top20 returned %d entries for a 25-service catalogue", len(top))
	}
	if top[0].Name != "A" || top[0].Share <= top[19].Share {
		t.Errorf("capped ranking not sorted: first %+v last %+v", top[0], top[19])
	}
	// CategoryShare covers the whole catalogue, not only the cap, and
	// both categories jointly account for all traffic.
	sum := a.CategoryShare(services.DL, services.Video) + a.CategoryShare(services.DL, services.Web)
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("category shares over full catalogue sum to %v, want 1", sum)
	}
}

func TestPeakCalendars(t *testing.T) {
	ds := dataset(t)
	a := core.New(ds)
	cals, outside, err := a.PeakCalendars(services.DL)
	if err != nil {
		t.Fatal(err)
	}
	if outside != 0 {
		t.Errorf("%d peaks outside topical windows", outside)
	}
	if len(cals) != 20 {
		t.Fatalf("%d calendars", len(cals))
	}
	// Detected calendars must match the configured signatures exactly
	// (the services-package contract carries over to noisy national
	// series).
	for i, c := range cals {
		svc := &ds.Catalog[i]
		for tt := 0; tt < peaks.NumTopicalTimes; tt++ {
			if svc.PeakAmp[tt] > 0 != c.Calendar.Present[tt] {
				t.Errorf("%s: detected[%v]=%v configured=%v",
					c.Service, peaks.TopicalTime(tt), c.Calendar.Present[tt], svc.PeakAmp[tt] > 0)
			}
		}
	}
	if got := core.DistinctCalendarCount(cals); got != 20 {
		t.Errorf("distinct calendars = %d, want 20", got)
	}
}

func TestPeakIntensitiesPositive(t *testing.T) {
	a := core.New(dataset(t))
	cals, _, err := a.PeakCalendars(services.DL)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cals {
		for tt := 0; tt < peaks.NumTopicalTimes; tt++ {
			if c.Calendar.Present[tt] && c.Calendar.Intensity[tt] <= 0 {
				t.Errorf("%s at %v: non-positive intensity", c.Service, peaks.TopicalTime(tt))
			}
			if !c.Calendar.Present[tt] && c.Calendar.Intensity[tt] != 0 {
				t.Errorf("%s at %v: intensity without presence", c.Service, peaks.TopicalTime(tt))
			}
		}
	}
}

func TestDetectOn(t *testing.T) {
	a := core.New(dataset(t))
	s, res, pks, err := a.DetectOn(services.DL, "Facebook")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(res.Signals) {
		t.Error("result misaligned with series")
	}
	if len(pks) == 0 {
		t.Error("no peaks detected on Facebook")
	}
	if _, _, _, err := a.DetectOn(services.DL, "nope"); err == nil {
		t.Error("unknown service: want error")
	}
}

func TestClusterSweepShape(t *testing.T) {
	a := core.New(dataset(t))
	sweeps, err := a.ClusterSweep(context.Background(), []services.Direction{services.DL}, 2, 19, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	sweep := sweeps[0]
	if len(sweep) != 18 {
		t.Fatalf("sweep has %d points", len(sweep))
	}
	// The paper's finding: no k wins; quality degrades with k. We
	// assert the trend: Silhouette at high k clearly below low k.
	early := (sweep[0].Scores.Silhouette + sweep[1].Scores.Silhouette) / 2
	late := (sweep[16].Scores.Silhouette + sweep[17].Scores.Silhouette) / 2
	if !(late < early) {
		t.Errorf("silhouette does not degrade: early %.3f late %.3f", early, late)
	}
	for _, p := range sweep {
		if p.Scores.K != p.K {
			t.Errorf("score K mismatch at %d", p.K)
		}
	}
}

func TestClusterSweepValidation(t *testing.T) {
	a := core.New(dataset(t))
	if _, err := a.ClusterSweep(context.Background(), []services.Direction{services.DL}, 1, 5, 1, 1); err == nil {
		t.Error("kMin=1: want error")
	}
	if _, err := a.ClusterSweep(context.Background(), []services.Direction{services.DL}, 2, 30, 1, 1); err == nil {
		t.Error("kMax >= services: want error")
	}
}

func TestSpatialConcentration(t *testing.T) {
	ds := dataset(t)
	a := core.New(ds)
	c, err := a.SpatialConcentration(services.DL, "Twitter")
	if err != nil {
		t.Fatal(err)
	}
	if c.TopShares[0.01] <= 0 || c.TopShares[0.01] >= 1 {
		t.Errorf("top1%% share = %v", c.TopShares[0.01])
	}
	if c.TopShares[0.10] <= c.TopShares[0.01] {
		t.Error("shares must grow with fraction")
	}
	if got := c.TopShares[1]; math.Abs(got-1) > 1e-9 {
		t.Errorf("full share = %v", got)
	}
	if c.Gini <= 0.3 {
		t.Errorf("Gini = %v, want strong concentration", c.Gini)
	}
	if c.CDF.Len() != len(ds.Country.Communes) {
		t.Error("CDF sample size mismatch")
	}
	if _, err := a.SpatialConcentration(services.DL, "nope"); err == nil {
		t.Error("unknown service: want error")
	}
}

func TestSpatialCorrelationAnalysis(t *testing.T) {
	ds := dataset(t)
	a := core.New(ds)
	sc, err := a.SpatialCorrelationAnalysis(services.DL)
	if err != nil {
		t.Fatal(err)
	}
	n := len(ds.Catalog)
	if len(sc.Pairs) != n*(n-1)/2 {
		t.Fatalf("pair count = %d", len(sc.Pairs))
	}
	for i := 0; i < n; i++ {
		if sc.R2[i][i] != 1 {
			t.Error("diagonal must be 1")
		}
		for j := 0; j < n; j++ {
			if sc.R2[i][j] != sc.R2[j][i] {
				t.Error("matrix not symmetric")
			}
			if sc.R2[i][j] < 0 || sc.R2[i][j] > 1 {
				t.Errorf("r2 out of range: %v", sc.R2[i][j])
			}
		}
	}
	if sc.Mean <= 0.2 || sc.Mean >= 0.95 {
		t.Errorf("mean r2 = %v", sc.Mean)
	}
	// The rank-based robustness mean must exist and roughly agree with
	// the moment-based one (the finding is not an outlier artefact).
	if sc.MeanSpearman <= 0.1 || sc.MeanSpearman > 1 {
		t.Errorf("mean Spearman² = %v", sc.MeanSpearman)
	}
	if math.Abs(sc.MeanSpearman-sc.Mean) > 0.35 {
		t.Errorf("Spearman² %v and r² %v disagree wildly", sc.MeanSpearman, sc.Mean)
	}
	// Netflix and iCloud are the outlier rows: the two lowest means.
	type nm struct {
		name string
		mean float64
	}
	rows := make([]nm, n)
	for i := range rows {
		rows[i] = nm{sc.Names[i], sc.ServiceMean[i]}
	}
	lowest1, lowest2 := rows[0], rows[1]
	if lowest1.mean > lowest2.mean {
		lowest1, lowest2 = lowest2, lowest1
	}
	for _, r := range rows[2:] {
		if r.mean < lowest1.mean {
			lowest2 = lowest1
			lowest1 = r
		} else if r.mean < lowest2.mean {
			lowest2 = r
		}
	}
	outliers := map[string]bool{lowest1.name: true, lowest2.name: true}
	if !outliers["Netflix"] || !outliers["iCloud"] {
		t.Errorf("lowest-correlation services = %v, want Netflix and iCloud", outliers)
	}
}

func TestUrbanizationAnalysis(t *testing.T) {
	a := core.New(dataset(t))
	res, err := a.UrbanizationAnalysis(services.DL)
	if err != nil {
		t.Fatal(err)
	}
	for s := range res.Names {
		if math.Abs(res.Slopes[s][geo.Urban]-1) > 1e-9 {
			t.Errorf("%s: urban self-slope = %v", res.Names[s], res.Slopes[s][geo.Urban])
		}
	}
	// Aggregate behaviour across services (small config is noisy per
	// service): semi-urban ≈ 1, rural ≈ 0.5, TGV ≥ 1.5.
	var semi, rural, tgv float64
	for s := range res.Names {
		semi += res.Slopes[s][geo.SemiUrban]
		rural += res.Slopes[s][geo.Rural]
		tgv += res.Slopes[s][geo.RuralTGV]
	}
	n := float64(len(res.Names))
	semi, rural, tgv = semi/n, rural/n, tgv/n
	if semi < 0.7 || semi > 1.3 {
		t.Errorf("mean semi-urban slope = %v", semi)
	}
	if rural < 0.3 || rural > 0.75 {
		t.Errorf("mean rural slope = %v", rural)
	}
	if tgv < 1.4 {
		t.Errorf("mean TGV slope = %v", tgv)
	}
	// Temporal correlations: urban row high, TGV row lowest.
	var urbanR2, tgvR2 float64
	for s := range res.Names {
		urbanR2 += res.TimeR2[s][geo.Urban]
		tgvR2 += res.TimeR2[s][geo.RuralTGV]
	}
	urbanR2 /= n
	tgvR2 /= n
	if tgvR2 >= urbanR2 {
		t.Errorf("TGV temporal r² %v should be below urban %v", tgvR2, urbanR2)
	}
}

// TestMemoizedAccessorsStable pins the memoization contract: repeated
// calls return the same cached data, and concurrent first access is
// safe.
func TestMemoizedAccessorsStable(t *testing.T) {
	a := core.New(dataset(t))
	var wg sync.WaitGroup
	vecs := make([][][]float64, 8)
	for i := range vecs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vecs[i] = a.PerUserVectors(services.DL)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(vecs); i++ {
		if &vecs[i][0] != &vecs[0][0] {
			t.Fatal("concurrent PerUserVectors returned distinct caches")
		}
	}
	c1, _, err := a.PeakCalendars(services.DL)
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := a.PeakCalendars(services.DL)
	if err != nil {
		t.Fatal(err)
	}
	if &c1[0] != &c2[0] {
		t.Error("PeakCalendars recomputed despite memoization")
	}
}
