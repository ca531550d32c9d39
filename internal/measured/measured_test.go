package measured_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dpi"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/measured"
	"repro/internal/probe"
	"repro/internal/rollup"
	"repro/internal/services"
	"repro/internal/synth"
	"repro/internal/timeseries"
)

var (
	synthOnce sync.Once
	synthDS   *synth.Dataset
	synthErr  error

	probeOnce    sync.Once
	probeDS      *measured.Dataset
	probeCountry *geo.Country
	probeErr     error
)

func synthDataset(t *testing.T) *synth.Dataset {
	t.Helper()
	synthOnce.Do(func() {
		synthDS, synthErr = synth.Generate(synth.SmallConfig())
	})
	if synthErr != nil {
		t.Fatal(synthErr)
	}
	return synthDS
}

// probeDataset memoizes a probe-measured dataset: stream the small
// country's packet plane through the sharded pipeline into the rollup
// collector and materialize the sealed partial's aggregate (the shard
// merge is exact, so the dataset is identical at any shard count).
func probeDataset(t *testing.T) (*measured.Dataset, *geo.Country) {
	t.Helper()
	probeOnce.Do(func() {
		country := geo.Generate(geo.SmallConfig())
		catalog := services.Catalog()
		sim, err := gtpsim.New(country, catalog, gtpsim.DefaultConfig())
		if err != nil {
			probeErr = err
			return
		}
		pcfg := probe.DefaultConfig()
		pl := probe.NewPipeline(pcfg, sim.Cells, dpi.NewClassifier(catalog), 0)
		col := rollup.NewCollector(rollup.ConfigFrom(pcfg, geo.SmallConfig()), pl.Shards())
		rep, err := pl.WithSinks(col.Sink).Run(sim.Stream())
		if err != nil {
			probeErr = err
			return
		}
		part, err := col.Finish(rep)
		if err != nil {
			probeErr = err
			return
		}
		agg, err := part.Aggregate(country)
		if err != nil {
			probeErr = err
			return
		}
		probeCountry = country
		probeDS, probeErr = measured.FromAggregate(agg, catalog)
	})
	if probeErr != nil {
		t.Fatal(probeErr)
	}
	return probeDS, probeCountry
}

func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// conform runs the Dataset interface-conformance suite against one
// implementation. tol bounds the allowed relative slack between the
// national, spatial and group aggregates (exact for the generator,
// loose for a probe that loses out-of-window bins).
func conform(t *testing.T, ds core.Dataset, tol float64) {
	t.Helper()
	svcs := ds.Services()
	country := ds.Geography()
	if len(svcs) == 0 {
		t.Fatal("empty catalogue")
	}
	if country == nil || len(country.Communes) == 0 {
		t.Fatal("no geography")
	}
	step := ds.SampleStep()
	if step <= 0 {
		t.Fatalf("bad step %v", step)
	}
	bins := int(timeseries.Week / step)

	var subsTotal int
	for u := 0; u < geo.NumUrbanization; u++ {
		subsTotal += ds.ClassSubscribers(geo.Urbanization(u))
	}
	if subsTotal != country.TotalSubscribers() {
		t.Errorf("class subscribers sum %d != country total %d", subsTotal, country.TotalSubscribers())
	}

	if idx, err := ds.ServiceIndex(svcs[0].Name); err != nil || idx != 0 {
		t.Errorf("ServiceIndex(%q) = %d, %v", svcs[0].Name, idx, err)
	}
	if _, err := ds.ServiceIndex("no-such-service"); err == nil {
		t.Error("unknown service: want error")
	}

	for _, dir := range []services.Direction{services.DL, services.UL} {
		all := ds.AllVolumes(dir)
		if len(all) < len(svcs) {
			t.Fatalf("%v: AllVolumes has %d entries for %d services", dir, len(all), len(svcs))
		}
		var sum float64
		for _, v := range all {
			sum += v
		}
		if relDiff(sum, ds.TotalTraffic(dir)) > 1e-12 {
			t.Errorf("%v: TotalTraffic %v != sum of AllVolumes %v", dir, ds.TotalTraffic(dir), sum)
		}
		for s := range svcs {
			if all[s] != ds.NationalTotal(dir, s) {
				t.Errorf("%v/%s: AllVolumes[%d] %v != NationalTotal %v",
					dir, svcs[s].Name, s, all[s], ds.NationalTotal(dir, s))
			}
			series := ds.NationalSeries(dir, s)
			if series.Len() != bins || series.Step != step {
				t.Fatalf("%v/%s: series %d×%v, want %d×%v", dir, svcs[s].Name, series.Len(), series.Step, bins, step)
			}
			if !series.Start.Equal(timeseries.StudyStart) {
				t.Errorf("%v/%s: series starts %v", dir, svcs[s].Name, series.Start)
			}
			if relDiff(series.Total(), ds.NationalTotal(dir, s)) > 1e-12 {
				t.Errorf("%v/%s: NationalTotal is not the series total", dir, svcs[s].Name)
			}

			spatial := ds.SpatialVolumes(dir, s)
			if len(spatial) != len(country.Communes) {
				t.Fatalf("%v/%s: %d spatial entries for %d communes", dir, svcs[s].Name, len(spatial), len(country.Communes))
			}
			var spatialTotal float64
			for _, v := range spatial {
				spatialTotal += v
			}
			if spatialTotal > 0 && relDiff(spatialTotal, ds.NationalTotal(dir, s)) > tol {
				t.Errorf("%v/%s: spatial total %v vs national %v exceeds tolerance %v",
					dir, svcs[s].Name, spatialTotal, ds.NationalTotal(dir, s), tol)
			}

			pu := ds.PerUser(dir, s)
			if len(pu) != len(spatial) {
				t.Fatalf("%v/%s: per-user length %d", dir, svcs[s].Name, len(pu))
			}
			for i := range pu {
				subs := country.Communes[i].Subscribers
				if subs > 0 && relDiff(pu[i]*float64(subs), spatial[i]) > 1e-9 {
					t.Fatalf("%v/%s: PerUser[%d] inconsistent with SpatialVolumes", dir, svcs[s].Name, i)
				}
			}

			var classTotal float64
			for u := 0; u < geo.NumUrbanization; u++ {
				g := ds.GroupSeries(dir, s, geo.Urbanization(u))
				if g.Len() != bins {
					t.Fatalf("%v/%s: group series length %d", dir, svcs[s].Name, g.Len())
				}
				classTotal += g.Total()
				gp := ds.GroupPerUser(dir, s, geo.Urbanization(u))
				if n := ds.ClassSubscribers(geo.Urbanization(u)); n > 0 {
					for _, k := range []int{0, bins / 2, bins - 1} {
						if relDiff(gp.Values[k]*float64(n), g.Values[k]) > 1e-9 {
							t.Fatalf("%v/%s: GroupPerUser inconsistent at bin %d", dir, svcs[s].Name, k)
						}
					}
				}
			}
			if classTotal > 0 && relDiff(classTotal, ds.NationalTotal(dir, s)) > tol {
				t.Errorf("%v/%s: class totals %v vs national %v exceed tolerance %v",
					dir, svcs[s].Name, classTotal, ds.NationalTotal(dir, s), tol)
			}
		}
	}
}

// TestDatasetConformance runs the same suite against every backend:
// the synthetic generator, its materialized copy, and the
// probe-measured adapter.
func TestDatasetConformance(t *testing.T) {
	t.Run("synth", func(t *testing.T) {
		conform(t, synthDataset(t), 0.02)
	})
	t.Run("materialized", func(t *testing.T) {
		conform(t, measured.Materialize(synthDataset(t)), 0.02)
	})
	t.Run("probe", func(t *testing.T) {
		ds, _ := probeDataset(t)
		conform(t, ds, 0.05)
	})
}

// TestCrossBackendEquality pins the decoupling guarantee: the same
// scenario analyzed through two different Dataset implementations
// yields byte-identical experiment results.
func TestCrossBackendEquality(t *testing.T) {
	ds := synthDataset(t)
	ids := []string{"fig2", "fig3", "fig6", "fig10", "fig11"}
	run := func(d core.Dataset) []byte {
		t.Helper()
		eng := experiments.NewEngine(experiments.NewEnvFrom(d, 1))
		results, err := eng.Run(context.Background(), experiments.Options{Concurrency: 2, IDs: ids})
		if err != nil {
			t.Fatal(err)
		}
		buf, err := experiments.EncodeJSON(results)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if !bytes.Equal(run(ds), run(measured.Materialize(ds))) {
		t.Error("materialized backend diverges from the generator backend")
	}
}

// TestProbeDatasetThroughAnalyzer closes the loop of the paper's
// pipeline: probe-measured aggregates run through the same Analyzer
// and experiment engine as the synthetic data, producing the same
// Result schema.
func TestProbeDatasetThroughAnalyzer(t *testing.T) {
	ds, country := probeDataset(t)
	if got := len(ds.Services()); got < 15 {
		t.Fatalf("probe observed only %d services", got)
	}
	if ds.Geography() != country {
		t.Error("geography not preserved")
	}

	an := core.New(ds)
	top := an.Top20(services.DL)
	if len(top) == 0 || len(top) > 20 {
		t.Fatalf("measured Top20 has %d entries", len(top))
	}
	if top[0].Name != "YouTube" {
		t.Errorf("measured DL leader = %s, want YouTube", top[0].Name)
	}

	ids := []string{"fig2", "fig3", "fig8", "fig10", "fig11"}
	eng := experiments.NewEngine(experiments.NewEnvFrom(ds, 1))
	results, err := eng.Run(context.Background(), experiments.Options{IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := experiments.EncodeJSON(results)
	if err != nil {
		t.Fatal(err)
	}
	// The JSON export of the measured path decodes into the same
	// schema the synthetic path produces.
	var decoded []struct {
		ID      string             `json:"id"`
		Title   string             `json:"title"`
		Metrics map[string]float64 `json:"metrics"`
		Text    string             `json:"text"`
	}
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(ids) {
		t.Fatalf("%d results for %d ids", len(decoded), len(ids))
	}
	for i, d := range decoded {
		if d.ID != ids[i] || d.Title == "" || d.Text == "" || len(d.Metrics) == 0 {
			t.Errorf("result %d (%s): incomplete schema", i, d.ID)
		}
	}
	byID := map[string]map[string]float64{}
	for _, d := range decoded {
		byID[d.ID] = d.Metrics
	}
	for id, key := range map[string]string{
		"fig2":  "zipf_exponent_downlink",
		"fig3":  "video_share_downlink",
		"fig8":  "gini",
		"fig10": "mean_r2_downlink",
		"fig11": "mean_slope_rural",
	} {
		if _, ok := byID[id][key]; !ok {
			t.Errorf("%s: metric %q missing from the measured path", id, key)
		}
	}
	// Sanity on the measured physics: video still dominates downlink
	// and the spatial correlation is positive.
	if v := byID["fig3"]["video_share_downlink"]; v < 0.2 {
		t.Errorf("measured video share = %v, want substantial", v)
	}
	if v := byID["fig10"]["mean_r2_downlink"]; v <= 0 || v > 1 {
		t.Errorf("measured mean r² = %v", v)
	}
}

// TestFromAggregateWindowStart: the dataset takes the aggregate's own
// grid — a window off the study epoch, as the rollup store's windowed
// views produce — and pins it onto every series; a grid with no bins is
// not a time binning.
func TestFromAggregateWindowStart(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	names := services.DefaultNames()
	yt, _ := names.Lookup("YouTube")
	start := timeseries.StudyStart.Add(24 * time.Hour) // day 1, not the epoch
	const bins = 96
	agg := measured.NewAggregate(names, country, start, timeseries.DefaultStep, bins)
	agg.Add(services.DL, yt, 0, 5, 1000)
	ds, err := measured.FromAggregate(agg, catalog)
	if err != nil {
		t.Fatal(err)
	}
	s := ds.NationalSeries(services.DL, 0)
	if !s.Start.Equal(start) || s.Len() != bins {
		t.Errorf("windowed series grid %v/%d, want %v/%d", s.Start, s.Len(), start, bins)
	}
	empty := measured.NewAggregate(names, country, start, timeseries.DefaultStep, 0)
	empty.Add(services.DL, yt, 0, 5, 1000)
	if _, err := measured.FromAggregate(empty, catalog); err == nil {
		t.Error("FromAggregate accepted a zero-bin grid")
	}
}

// TestFromAggregateEmpty rejects an aggregate with no classified
// traffic.
func TestFromAggregateEmpty(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	agg := measured.NewAggregate(services.DefaultNames(), country, timeseries.StudyStart, timeseries.DefaultStep, 672)
	if _, err := measured.FromAggregate(agg, services.Catalog()); err == nil {
		t.Error("empty aggregate: want error")
	}
}

// TestMaterializePreservesTail keeps the Fig. 2 rank-size population
// intact across materialization.
func TestMaterializePreservesTail(t *testing.T) {
	ds := synthDataset(t)
	m := measured.Materialize(ds)
	for _, dir := range []services.Direction{services.DL, services.UL} {
		a, b := ds.AllVolumes(dir), m.AllVolumes(dir)
		if len(a) != len(b) {
			t.Fatalf("%v: volume population %d vs %d", dir, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: volume %d differs: %v vs %v", dir, i, a[i], b[i])
			}
		}
	}
}
