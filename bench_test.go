package repro

// One benchmark per table/figure of the paper's evaluation (see
// DESIGN.md §4): each bench regenerates the figure's data through the
// same experiment runner `analyze -ids` uses, so `go test
// -bench=.` doubles as the full reproduction harness at laptop scale.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/dpi"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/kshape"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/peaks"
	"repro/internal/probe"
	"repro/internal/rollup"
	"repro/internal/services"
	"repro/internal/synth"
	"repro/internal/timeseries"
)

var (
	benchOnce  sync.Once
	benchDS    *synth.Dataset
	benchDSErr error
)

// benchDataset memoizes the laptop-scale dataset; generation is
// amortized across all benchmarks.
func benchDataset(b *testing.B) *synth.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchDS, benchDSErr = synth.Generate(synth.SmallConfig())
	})
	if benchDSErr != nil {
		b.Fatal(benchDSErr)
	}
	return benchDS
}

// env returns a fresh environment (new memoizing analyzer) over the
// shared dataset, so each benchmark measures its own analysis cost
// rather than another benchmark's warm cache.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	return experiments.NewEnvFrom(benchDataset(b), 1)
}

func runFig(b *testing.B, id string) {
	ds := benchDataset(b)
	r, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh env per iteration: the memoizing analyzer would
		// otherwise turn every iteration after the first into a cache
		// hit and the bench would stop measuring the figure's work.
		if _, err := r.Run(ctx, experiments.NewEnvFrom(ds, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2ServiceRanking(b *testing.B)       { runFig(b, "fig2") }
func BenchmarkFig3Top20(b *testing.B)                { runFig(b, "fig3") }
func BenchmarkFig4TimeSeries(b *testing.B)           { runFig(b, "fig4") }
func BenchmarkFig5ClusterSweep(b *testing.B)         { runFig(b, "fig5") }
func BenchmarkFig6PeakCalendar(b *testing.B)         { runFig(b, "fig6") }
func BenchmarkFig7PeakIntensity(b *testing.B)        { runFig(b, "fig7") }
func BenchmarkFig8SpatialConcentration(b *testing.B) { runFig(b, "fig8") }
func BenchmarkFig9Maps(b *testing.B)                 { runFig(b, "fig9") }
func BenchmarkFig10SpatialCorrelation(b *testing.B)  { runFig(b, "fig10") }

// Fig. 11 benches both directions of the urbanization analysis as
// labeled sub-benchmarks of a single harness (the two panels share
// UrbanizationAnalysis; only the direction differs).
func BenchmarkFig11Urbanization(b *testing.B) {
	e := env(b)
	for _, dir := range []services.Direction{services.DL, services.UL} {
		b.Run(dir.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.An.UrbanizationAnalysis(dir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineRun measures the experiment engine over the full
// registry at sequential vs all-CPU concurrency. Each iteration uses
// a fresh environment (built outside the timer) so the memoized
// intermediates are computed inside the measured region — that is the
// work the parallel engine overlaps.
func BenchmarkEngineRun(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("concurrency-%d", workers), func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, err := experiments.NewEnv(synth.SmallConfig())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := experiments.NewEngine(e).Run(ctx,
					experiments.Options{Concurrency: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDPIClassification measures the classifier fast path (the
// Section 3 "88% of traffic" machinery).
func BenchmarkDPIClassification(b *testing.B) {
	catalog := services.Catalog()
	c := dpi.NewClassifier(catalog)
	hello := dpi.BuildClientHello("upload.video.snapchat.com")
	server := [4]byte{203, 16, 1, 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := c.Classify(server, 443, hello); r.Service == "" {
			b.Fatal("unclassified")
		}
	}
}

// BenchmarkProbePipeline measures the full packet path — decode, ULI
// tracking, DPI, aggregation (Section 2's probe machinery) — as a
// shard sweep over the streaming pipeline: 1 shard (the single-probe
// baseline plus routing), 2, and NumCPU. The capture is materialized
// once outside the timer so every configuration consumes an identical
// frame stream at memory speed.
func BenchmarkProbePipeline(b *testing.B) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = 400
	sim, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	frames, _ := sim.Run()
	var bytes int64
	for _, f := range frames {
		bytes += int64(len(f.Data))
	}
	seen := map[int]bool{}
	for _, shards := range []int{1, 2, runtime.NumCPU()} {
		if seen[shards] {
			continue
		}
		seen[shards] = true
		// The classifier is immutable shared state — one instance serves
		// any number of runs, so it is setup, not per-run cost.
		cls := dpi.NewClassifier(catalog)
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			// Instrumented by default — the production configuration.
			// BENCH_NO_METRICS=1 reruns bare for the overhead delta
			// (see the CI bench job); the bundle is built outside the
			// loop either way, like the daemons do.
			m := benchProbeMetrics(shards)
			b.ReportAllocs()
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				pl := probe.NewPipeline(probe.DefaultConfig(), sim.Cells, cls, shards).WithMetrics(m)
				if _, err := pl.Run(capture.NewSliceSource(frames)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchProbeMetrics returns a live pipeline metrics bundle, or nil
// (inert) when BENCH_NO_METRICS=1 asks for the uninstrumented
// baseline.
func benchProbeMetrics(shards int) *probe.Metrics {
	if os.Getenv("BENCH_NO_METRICS") == "1" {
		return nil
	}
	return probe.NewMetrics(obs.NewRegistry(), shards)
}

// benchRollupMetrics is benchProbeMetrics for the rollup layer.
func benchRollupMetrics() *rollup.Metrics {
	if os.Getenv("BENCH_NO_METRICS") == "1" {
		return nil
	}
	return rollup.NewMetrics(obs.NewRegistry())
}

// BenchmarkRollupIngest measures the rollup store's online
// aggregation riding on the probe pipeline (DESIGN.md §7): the same
// shard sweep as BenchmarkProbePipeline, but with a per-shard rollup
// builder attached and the run sealed into a merged partial. The delta
// against BenchmarkProbePipeline at equal shard count is the price of
// building the epoch-sealed (service, commune, bin) cube online.
func BenchmarkRollupIngest(b *testing.B) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = 400
	sim, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	frames, _ := sim.Run()
	var bytes int64
	for _, f := range frames {
		bytes += int64(len(f.Data))
	}
	pcfg := probe.ConfigFor(country)
	rcfg := rollup.ConfigFrom(pcfg, geo.SmallConfig())
	seen := map[int]bool{}
	for _, shards := range []int{1, 2, runtime.NumCPU()} {
		if seen[shards] {
			continue
		}
		seen[shards] = true
		cls := dpi.NewClassifier(catalog)
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			pm := benchProbeMetrics(shards)
			rm := benchRollupMetrics()
			b.ReportAllocs()
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				pl := probe.NewPipeline(pcfg, sim.Cells, cls, shards).WithMetrics(pm)
				col := rollup.NewCollector(rcfg, pl.Shards()).WithMetrics(rm)
				rep, err := pl.WithSinks(col.Sink).Run(capture.NewSliceSource(frames))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := col.Finish(rep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotCodec times the persistence layer in isolation:
// encode a sealed nationwide-run partial and decode it back.
func BenchmarkSnapshotCodec(b *testing.B) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = 400
	sim, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	pcfg := probe.ConfigFor(country)
	pl := probe.NewPipeline(pcfg, sim.Cells, dpi.NewClassifier(catalog), 2)
	col := rollup.NewCollector(rollup.ConfigFrom(pcfg, geo.SmallConfig()), pl.Shards())
	rep, err := pl.WithSinks(col.Sink).Run(sim.Stream())
	if err != nil {
		b.Fatal(err)
	}
	part, err := col.Finish(rep)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rollup.Write(&buf, part); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(encoded)))
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := rollup.Write(&buf, part); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(encoded)))
		for i := 0; i < b.N; i++ {
			if _, err := rollup.Read(bytes.NewReader(encoded)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotMerge times the streaming k-way merger on the
// multi-day shape: two half-week snapshots of windowed captures merged
// onto the union week grid. Allocations are the headline — they must
// stay constant in snapshot length (the merger holds one epoch of
// cells per source), which internal/rollup's memory-bound test pins.
func BenchmarkSnapshotMerge(b *testing.B) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	weekBins := int(timeseries.Week / timeseries.DefaultStep)
	half := weekBins / 2
	dir := b.TempDir()
	var srcs []string
	var totalBytes int64
	for i, win := range [][2]int{{0, half}, {half, weekBins}} {
		cfg := gtpsim.DefaultConfig()
		cfg.Sessions = 400
		cfg.Seed = 11
		cfg.Start = timeseries.StudyStart.Add(time.Duration(win[0]) * timeseries.DefaultStep)
		cfg.Duration = time.Duration(win[1]-win[0]) * timeseries.DefaultStep
		sim, err := gtpsim.New(country, catalog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		pcfg := probe.ConfigFor(country)
		pcfg.Start = cfg.Start
		pcfg.Bins = min(win[1]-win[0]+3, weekBins-win[0])
		pl := probe.NewPipeline(pcfg, sim.Cells, dpi.NewClassifier(catalog), 2)
		col := rollup.NewCollector(rollup.ConfigFrom(pcfg, geo.SmallConfig()), pl.Shards())
		rep, err := pl.WithSinks(col.Sink).Run(sim.Stream())
		if err != nil {
			b.Fatal(err)
		}
		part, err := col.Finish(rep)
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("half-%d.roll", i))
		if err := rollup.WriteFile(path, part); err != nil {
			b.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		totalBytes += fi.Size()
		srcs = append(srcs, path)
	}
	dst := filepath.Join(dir, "merged.roll")
	b.ReportAllocs()
	b.SetBytes(totalBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rollup.MergeFiles(dst, srcs...); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §4) ---------------------------------

// BenchmarkSBDFFTvsNaive quantifies why the FFT path exists: the
// shape-based distance over week-long series.
func BenchmarkSBDFFTvsNaive(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	x := make([]float64, 672)
	y := make([]float64, 672)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b.Run("fft", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dsp.CrossCorrelate(x, y)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dsp.CrossCorrelateNaive(x, y)
		}
	})
}

// BenchmarkPowerIteration is the shape-extraction eigen-solve at the
// Fig. 5 size — a week of 15-minute bins, the Gram matrix of a handful
// of members — the kernel BenchmarkFig5ClusterSweep spends most of its
// time in.
func BenchmarkPowerIteration(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	const m, members = 672, 5
	x := mat.NewDense(members, m)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	gram := mat.Mul(mat.Transpose(x), x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mat.PowerIteration(gram, nil, 200, 1e-10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaxNCC is one shape-based distance over week-long series:
// cold (the slice-taking entry point transforms both operands per
// call) against cached spectra (what a clustering sweep pays).
func BenchmarkMaxNCC(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	x := make([]float64, 672)
	y := make([]float64, 672)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dsp.MaxNCC(x, y)
		}
	})
	b.Run("cached", func(b *testing.B) {
		n := dsp.CorrLen(len(x), len(y))
		sx, sy := dsp.NewSpectrum(x, n), dsp.NewSpectrum(y, n)
		scratch := make([]complex128, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dsp.MaxNCCSpec(&sx, &sy, scratch)
		}
	})
}

// BenchmarkKShapeVsKMeans times the two clusterers on the study's 20
// national series.
func BenchmarkKShapeVsKMeans(b *testing.B) {
	e := env(b)
	series := make([][]float64, len(e.DS.Services()))
	for s := range series {
		series[s] = e.DS.NationalSeries(services.DL, s).Values
	}
	b.Run("kshape", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := kshape.Cluster(series, 4, kshape.Options{Seed: 1, ZNormalize: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kmeans", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := kshape.KMeans(series, 4, kshape.Options{Seed: 1, ZNormalize: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPeakDetectorAblation times the paper's detector against the
// fixed-threshold baseline on one weekly series.
func BenchmarkPeakDetectorAblation(b *testing.B) {
	e := env(b)
	values := e.DS.NationalSeries(services.DL, 0).Values
	b.Run("smoothed-zscore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := peaks.Detect(values, peaks.PaperParams()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("threshold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			peaks.ThresholdDetect(values, 2)
		}
	})
}

// BenchmarkSpatialGranularity times the Fig. 10 correlation at the two
// aggregation levels of the granularity ablation.
func BenchmarkSpatialGranularity(b *testing.B) {
	e := env(b)
	r, err := experiments.ByID("ablation-granularity")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(ctx, e); err != nil {
			b.Fatal(err)
		}
	}
}
