package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/dpi"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/kshape"
	"repro/internal/measured"
	"repro/internal/peaks"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/rollup"
	"repro/internal/services"
	"repro/internal/stats"
)

// ProbeExperiment exercises the packet path end to end: simulate the
// network of Fig. 1 at small scale, run the passive probe, report the
// DPI classification rate (paper: 88%) and the ULI localization
// accuracy (paper: median ≈ 3 km), then materialize the rollup the
// shards built into a core.Dataset and push it through the same
// Analyzer the synthetic data flows through.
func (e *Env) ProbeExperiment(ctx context.Context) (Result, error) {
	res := Result{ID: "probe", Title: "Packet pipeline validation", Metrics: map[string]float64{}}
	// A dedicated small country keeps the packet path tractable
	// regardless of the analysis-scale dataset in the env.
	geoCfg := geo.SmallConfig()
	country := geo.Generate(geoCfg)
	catalog := services.Catalog()
	cfg := gtpsim.DefaultConfig()
	sim, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		return res, err
	}
	// Stream the capture through the sharded pipeline into the rollup
	// builders — the paper's online ingestion path; nothing materializes
	// the trace. Two shards keep the demonstration parallel without
	// competing with the experiment engine's own worker pool.
	st := sim.Stream()
	pcfg := probe.DefaultConfig()
	pl := probe.NewPipeline(pcfg, sim.Cells, dpi.NewClassifier(catalog), 2)
	col := rollup.NewCollector(rollup.ConfigFrom(pcfg, geoCfg), pl.Shards())
	rep, err := pl.WithSinks(col.Sink).Run(st)
	if err != nil {
		return res, err
	}
	part, err := col.Finish(rep)
	if err != nil {
		return res, err
	}
	truth := st.Stats()

	var b strings.Builder
	rows := [][]string{
		{"sessions", fmt.Sprintf("%d", truth.Sessions)},
		{"frames", fmt.Sprintf("%d", truth.Frames)},
		{"control messages", fmt.Sprintf("%d", rep.ControlMessages)},
		{"user-plane packets", fmt.Sprintf("%d", rep.UserPlanePackets)},
		{"decode errors", fmt.Sprintf("%d", rep.DecodeErrors)},
		{"classification rate", report.Pct(rep.ClassificationRate())},
		{"median ULI error", fmt.Sprintf("%.2f km", truth.MedianULIError())},
		{"handovers", fmt.Sprintf("%d", truth.Handovers)},
		{"measured DL", report.Bytes(rep.TotalBytes[services.DL])},
		{"measured UL", report.Bytes(rep.TotalBytes[services.UL])},
	}
	b.WriteString(report.Table([]string{"quantity", "value"}, rows))
	res.Metrics["classification_rate"] = rep.ClassificationRate()
	res.Metrics["median_uli_error_km"] = truth.MedianULIError()
	res.Metrics["decode_errors"] = float64(rep.DecodeErrors)
	res.Metrics["ul_over_dl"] = rep.TotalBytes[services.UL] / rep.TotalBytes[services.DL]

	// Close the loop: the sealed partial becomes a dataset over the
	// country built above and runs through the analysis API. The
	// measured downlink ranking must rank-correlate with the generating
	// catalogue shares.
	agg, err := part.Aggregate(country)
	if err != nil {
		return res, err
	}
	mds, err := measured.FromAggregate(agg, catalog)
	if err != nil {
		return res, err
	}
	an := core.New(mds)
	top := an.Top20(services.DL)
	var measShares, trueShares []float64
	var topRows [][]string
	for i, r := range top {
		measShares = append(measShares, r.Share)
		trueShares = append(trueShares, services.ByName(catalog, r.Name).DLShare)
		if i < 10 {
			topRows = append(topRows, []string{r.Name, report.Pct(r.Share)})
		}
	}
	b.WriteString("\nMeasured downlink ranking through the analysis API (top 10):\n")
	b.WriteString(report.Table([]string{"service", "measured DL share"}, topRows))
	res.Metrics["measured_services"] = float64(len(mds.Services()))
	if rho, err := stats.Spearman(measShares, trueShares); err == nil {
		res.Metrics["measured_rank_correlation"] = rho
	}
	res.Text = b.String()
	return res, nil
}

// AblationKMeans repeats the Fig. 5 sweep with the Euclidean k-means
// baseline and compares it against k-Shape on a shift-invariance
// stress set: families of identical shapes at random phase offsets.
func (e *Env) AblationKMeans(ctx context.Context) (Result, error) {
	res := Result{ID: "ablation-kmeans", Title: "k-Shape vs k-means", Metrics: map[string]float64{}}
	// Shift-invariance stress set: two clearly distinct shapes (a
	// smooth tri-lobe sine and a sawtooth), each instantiated at eight
	// phase offsets. Euclidean k-means groups by phase, k-Shape by
	// shape. (Real weekly service profiles are all near-periodic
	// diurnal curves, so the discriminating power of the clusterer is
	// cleanest on canonical shapes.)
	const m = 128
	series := make([][]float64, 0, 16)
	labels := make([]int, 0, 16)
	for fam := 0; fam < 2; fam++ {
		base := make([]float64, m)
		for i := range base {
			x := float64(i) / m * 2 * math.Pi
			if fam == 0 {
				base[i] = math.Sin(3 * x)
			} else {
				base[i] = math.Abs(math.Mod(float64(i), 24) - 12)
			}
		}
		for k := 0; k < 8; k++ {
			series = append(series, kshape.Shift(base, k*11-44))
			labels = append(labels, fam)
		}
	}
	agreement := func(assign []int) float64 {
		// max agreement over the two label permutations
		m0, m1 := 0, 0
		for i, a := range assign {
			if a == labels[i] {
				m0++
			}
			if 1-a == labels[i] {
				m1++
			}
		}
		best := m0
		if m1 > best {
			best = m1
		}
		return float64(best) / float64(len(assign))
	}
	ks, err := kshape.Cluster(series, 2, kshape.Options{Seed: 3, ZNormalize: true})
	if err != nil {
		return res, err
	}
	km, err := kshape.KMeans(series, 2, kshape.Options{Seed: 3, ZNormalize: true})
	if err != nil {
		return res, err
	}
	kShapeAcc := agreement(ks.Assign)
	kMeansAcc := agreement(km.Assign)
	var b strings.Builder
	b.WriteString(report.Table([]string{"clusterer", "accuracy on shifted families"}, [][]string{
		{"k-Shape", report.Pct(kShapeAcc)},
		{"k-means (Euclidean)", report.Pct(kMeansAcc)},
	}))
	res.Metrics["kshape_accuracy"] = kShapeAcc
	res.Metrics["kmeans_accuracy"] = kMeansAcc
	res.Text = b.String()
	return res, nil
}

// AblationPeakDetector compares the smoothed z-score detector against
// the naive fixed-threshold baseline on the national series: the
// baseline misses off-peak-hour surges and floods on the diurnal
// maximum.
func (e *Env) AblationPeakDetector(ctx context.Context) (Result, error) {
	res := Result{ID: "ablation-peaks", Title: "Peak detector ablation", Metrics: map[string]float64{}}
	var b strings.Builder
	var zTotal, thTotal, zOutside int
	for s := range e.DS.Services() {
		series := e.DS.NationalSeries(services.DL, s)
		values := series.Values

		zres, err := peaks.Detect(values, peaks.PaperParams())
		if err != nil {
			return res, err
		}
		zp, err := peaks.ExtractPeaks(values, zres)
		if err != nil {
			return res, err
		}
		for _, pk := range zp {
			if pk.Duration() < 2 || pk.Intensity() < 0.03 {
				continue
			}
			zTotal++
			if peaks.AssignTopical(series.TimeAt(pk.MaxIdx)) == peaks.NoTopicalTime {
				zOutside++
			}
		}
		tres := peaks.ThresholdDetect(values, 2)
		tp, err := peaks.ExtractPeaks(values, tres)
		if err != nil {
			return res, err
		}
		thTotal += len(tp)
	}
	fmt.Fprintf(&b, "smoothed z-score: %d peaks (%d outside topical windows)\n", zTotal, zOutside)
	fmt.Fprintf(&b, "fixed threshold (mean+2σ): %d peak intervals\n", thTotal)
	b.WriteString("\nThe fixed threshold cannot flag relative surges on the low\n")
	b.WriteString("overnight baseline and merges the whole diurnal plateau into\n")
	b.WriteString("few giant intervals, which is why the paper uses the smoothed\n")
	b.WriteString("z-score with a running window instead.\n")
	res.Metrics["zscore_peaks"] = float64(zTotal)
	res.Metrics["zscore_outside"] = float64(zOutside)
	res.Metrics["threshold_peaks"] = float64(thTotal)
	res.Text = b.String()
	return res, nil
}

// AblationGranularity quantifies the effect of the spatial aggregation
// level (commune vs RA/TA blocks) on the Fig. 10 correlation.
func (e *Env) AblationGranularity(ctx context.Context) (Result, error) {
	res := Result{ID: "ablation-granularity", Title: "Spatial granularity ablation", Metrics: map[string]float64{}}
	n := len(e.DS.Services())
	country := e.DS.Geography()
	communes := len(country.Communes)
	areas := (communes + 63) / 64

	perUserCommune := e.An.PerUserVectors(services.DL)
	perUserArea := make([][]float64, n)
	areaSubs := make([]float64, areas)
	for c := range country.Communes {
		areaSubs[c/64] += float64(country.Communes[c].Subscribers)
	}
	for s := 0; s < n; s++ {
		areaVol := make([]float64, areas)
		for c, v := range e.DS.SpatialVolumes(services.DL, s) {
			areaVol[c/64] += v
		}
		pa := make([]float64, areas)
		for aIdx := range pa {
			if areaSubs[aIdx] > 0 {
				pa[aIdx] = areaVol[aIdx] / areaSubs[aIdx]
			}
		}
		perUserArea[s] = pa
	}
	meanR2 := func(vectors [][]float64) float64 {
		var sum float64
		cnt := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r2, err := stats.R2(vectors[i], vectors[j]); err == nil {
					sum += r2
					cnt++
				}
			}
		}
		return sum / float64(cnt)
	}
	commR2 := meanR2(perUserCommune)
	areaR2 := meanR2(perUserArea)
	var b strings.Builder
	b.WriteString(report.Table([]string{"aggregation", "units", "mean pairwise r²"}, [][]string{
		{"commune", fmt.Sprintf("%d", communes), fmt.Sprintf("%.3f", commR2)},
		{"RA/TA blocks", fmt.Sprintf("%d", areas), fmt.Sprintf("%.3f", areaR2)},
	}))
	b.WriteString("\nCoarser aggregation averages out per-service noise and inflates\n")
	b.WriteString("the apparent spatial similarity — the commune level preserves\n")
	b.WriteString("the heterogeneity the study quantifies.\n")
	res.Metrics["mean_r2_commune"] = commR2
	res.Metrics["mean_r2_area"] = areaR2
	res.Text = b.String()
	return res, nil
}
