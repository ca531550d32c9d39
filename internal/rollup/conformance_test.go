package rollup_test

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/dpi"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/measured"
	"repro/internal/probe"
	"repro/internal/rollup"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// fixture runs one simulated capture and returns its frames plus the
// shared inputs of both backends.
type fixture struct {
	country *geo.Country
	catalog []services.Service
	cells   *gtpsim.CellRegistry
	frames  []capture.Frame
}

func newFixture(t testing.TB, sessions int) *fixture {
	t.Helper()
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = sessions
	sim, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := sim.Run()
	return &fixture{country: country, catalog: catalog, cells: sim.Cells, frames: frames}
}

// run pushes the fixture's capture through the sharded pipeline,
// optionally with a rollup collector attached, and returns the report
// and (when collected) the sealed partial.
func (fx *fixture) run(t testing.TB, shards int, collect bool) (*probe.Report, *rollup.Partial) {
	t.Helper()
	pl := probe.NewPipeline(probe.ConfigFor(fx.country), fx.cells, dpi.NewClassifier(fx.catalog), shards)
	var col *rollup.Collector
	if collect {
		col = rollup.NewCollector(rollup.ConfigFrom(probe.ConfigFor(fx.country), geo.SmallConfig()), pl.Shards())
		pl.WithSinks(col.Sink)
	}
	rep, err := pl.Run(capture.NewSliceSource(fx.frames))
	if err != nil {
		t.Fatal(err)
	}
	if !collect {
		return rep, nil
	}
	part, err := col.Finish(rep)
	if err != nil {
		t.Fatal(err)
	}
	return rep, part
}

// engineJSON runs the Figs. 2-11 suite over a dataset and returns the
// encoded results. fig5 (the k-Shape sweep, ~40 s per run) is omitted:
// the structural DeepEqual of the materialized datasets below is
// strictly stronger — the engine is deterministic in (dataset, seed),
// so equal datasets give equal fig5 output by construction.
func engineJSON(t testing.TB, ds core.Dataset) []byte {
	t.Helper()
	ids := []string{"fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}
	eng := experiments.NewEngine(experiments.NewEnvFrom(ds, 1))
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

// TestEndToEndIdentity is the acceptance gate of the rollup store: for
// the same seed, the experiment-engine JSON produced via a snapshot
// round trip of the online rollup is byte-identical to the legacy
// measured.FromProbe path, at 1, 2 and NumCPU shards.
func TestEndToEndIdentity(t *testing.T) {
	fx := newFixture(t, 600)

	// Legacy path: probe report materialized directly (shard count is
	// already proven irrelevant for the report by the probe tests).
	rep, _ := fx.run(t, 1, false)
	legacy, err := measured.FromProbe(rep, fx.country, fx.catalog, timeseries.DefaultStep)
	if err != nil {
		t.Fatal(err)
	}
	legacyJSON := engineJSON(t, legacy)

	var prevSnap []byte
	for _, shards := range []int{1, 2, runtime.NumCPU()} {
		_, part := fx.run(t, shards, true)

		// Snapshot round trip: what the engine sees must have been
		// through the persistent format.
		var buf bytes.Buffer
		if err := rollup.Write(&buf, part); err != nil {
			t.Fatal(err)
		}
		// The canonical encoding makes snapshot bytes shard-invariant.
		if prevSnap != nil && !bytes.Equal(prevSnap, buf.Bytes()) {
			t.Errorf("shards=%d: snapshot bytes differ from the previous shard count", shards)
		}
		prevSnap = append([]byte(nil), buf.Bytes()...)

		loaded, err := rollup.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		ds, err := loaded.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		// Structural identity first: the materialized aggregates must
		// be deep-equal to the legacy backend's.
		if !reflect.DeepEqual(measured.Materialize(ds), measured.Materialize(legacy)) {
			t.Fatalf("shards=%d: rollup dataset diverges from measured.FromProbe", shards)
		}
		if got := engineJSON(t, ds); !bytes.Equal(got, legacyJSON) {
			t.Fatalf("shards=%d: engine JSON diverges between rollup.Open and measured.FromProbe", shards)
		}
	}

	// Same capture in *session* order (gtpsim.Stream is not globally
	// time-ordered), at a shard count co-prime with the sweep above:
	// out-of-order arrival maximizes epoch reopens, and the snapshot
	// bytes must still be identical — late-frame accounting is
	// diagnostics, never data.
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = 600
	sim, err := gtpsim.New(fx.country, fx.catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl := probe.NewPipeline(probe.ConfigFor(fx.country), sim.Cells, dpi.NewClassifier(fx.catalog), 5)
	col := rollup.NewCollector(rollup.ConfigFrom(probe.ConfigFor(fx.country), geo.SmallConfig()), pl.Shards())
	rep2, err := pl.WithSinks(col.Sink).Run(sim.Stream())
	if err != nil {
		t.Fatal(err)
	}
	part, err := col.Finish(rep2)
	if err != nil {
		t.Fatal(err)
	}
	var streamBuf bytes.Buffer
	if err := rollup.Write(&streamBuf, part); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prevSnap, streamBuf.Bytes()) {
		t.Error("session-ordered stream at 5 shards yields different snapshot bytes than the time-ordered sweep")
	}
}

// TestMultiDaySplitCaptureIdentity is the acceptance gate of the
// snapshot algebra: a capture split into two per-half-week collection
// runs — each simulated in its own observation window, measured by its
// own probe pipeline on its own sub-grid, sealed into its own snapshot
// — streams through rollup.MergeFiles into a snapshot byte-identical
// to the one full-period run over the concatenated frames, and the
// engine JSON of the merged snapshot matches the legacy
// measured.FromProbe path of that full run.
func TestMultiDaySplitCaptureIdentity(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	weekBins := int(timeseries.Week / timeseries.DefaultStep)
	half := weekBins / 2
	// Sessions spill up to a session lifetime past their window, so a
	// window's probe grid extends by slack bins, clamped to the week —
	// windowed grids stay sub-grids of the full-week grid.
	const slack = 3

	// Two windowed simulations with one seed: identical cell
	// registries and TEID sequences, sessions drawn inside each half.
	halfSim := func(winFrom, winTo int) []capture.Frame {
		cfg := gtpsim.DefaultConfig()
		cfg.Sessions = 300
		cfg.Seed = 11
		cfg.Start = timeseries.StudyStart.Add(time.Duration(winFrom) * timeseries.DefaultStep)
		cfg.Duration = time.Duration(winTo-winFrom) * timeseries.DefaultStep
		sim, err := gtpsim.New(country, catalog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		frames, _ := sim.Run()
		return frames
	}
	frames1 := halfSim(0, half)
	frames2 := halfSim(half, weekBins)
	cells := gtpsim.BuildCells(country, 11)

	runOn := func(frames []capture.Frame, startBin, bins int) (*probe.Report, *rollup.Partial) {
		pcfg := probe.ConfigFor(country)
		pcfg.Start = timeseries.StudyStart.Add(time.Duration(startBin) * timeseries.DefaultStep)
		pcfg.Bins = bins
		pl := probe.NewPipeline(pcfg, cells, dpi.NewClassifier(catalog), 2)
		col := rollup.NewCollector(rollup.ConfigFrom(pcfg, geo.SmallConfig()), pl.Shards())
		rep, err := pl.WithSinks(col.Sink).Run(capture.NewSliceSource(frames))
		if err != nil {
			t.Fatal(err)
		}
		part, err := col.Finish(rep)
		if err != nil {
			t.Fatal(err)
		}
		return rep, part
	}

	// The full-period reference: one pipeline, one week grid, the
	// concatenated capture.
	fullRep, fullPart := runOn(append(append([]capture.Frame(nil), frames1...), frames2...), 0, weekBins)
	var fullSnap bytes.Buffer
	if err := rollup.WriteV2(&fullSnap, fullPart); err != nil {
		t.Fatal(err)
	}

	// The split collection: each half measured independently on its
	// windowed grid (plus spill slack, clamped to the week).
	_, part1 := runOn(frames1, 0, min(half+slack, weekBins))
	_, part2 := runOn(frames2, half, weekBins-half)
	dir := t.TempDir()
	day1, day2, merged := dir+"/h1.roll", dir+"/h2.roll", dir+"/merged.roll"
	if err := rollup.WriteFile(day1, part1); err != nil {
		t.Fatal(err)
	}
	if err := rollup.WriteFile(day2, part2); err != nil {
		t.Fatal(err)
	}
	if err := rollup.MergeFiles(merged, day1, day2); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fullSnap.Bytes()) {
		t.Fatal("merged per-half snapshots are not byte-identical to the full-period run")
	}

	// And the analysis cannot tell the difference: engine JSON off the
	// merged snapshot equals the legacy measured path of the full run.
	legacy, err := measured.FromProbe(fullRep, country, catalog, timeseries.DefaultStep)
	if err != nil {
		t.Fatal(err)
	}
	mergedDS, err := rollup.Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(engineJSON(t, mergedDS), engineJSON(t, legacy)) {
		t.Fatal("engine JSON diverges between the merged split capture and the full-period run")
	}
}

// TestReportReconstruction pins the stronger claim behind the identity
// test: the report rebuilt from a sealed partial deep-equals the live
// probe's, field for field.
func TestReportReconstruction(t *testing.T) {
	fx := newFixture(t, 400)
	rep, part := fx.run(t, 2, true)
	rebuilt, err := part.Report(fx.country)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rebuilt, rep) {
		t.Fatal("reconstructed report differs from the live probe report")
	}
}

// TestOpenFromFile exercises the full produce-once/analyze-many flow
// through the filesystem.
func TestOpenFromFile(t *testing.T) {
	fx := newFixture(t, 300)
	_, part := fx.run(t, 2, true)
	path := t.TempDir() + "/run.roll"
	if err := rollup.WriteFile(path, part); err != nil {
		t.Fatal(err)
	}
	ds, err := rollup.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Services()) == 0 {
		t.Fatal("snapshot dataset has no services")
	}
	env, err := experiments.NewEnvFromSnapshot(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.NewEngine(env).Run(context.Background(),
		experiments.Options{IDs: []string{"fig2"}}); err != nil {
		t.Fatal(err)
	}
}

// TestFig4ShortWindows is the regression test for the windowed-view
// panic: Fig. 4's detector panel indexed the week's third day whatever
// the window held. A window of under three days shows its last full
// day under that day's own name, one with no full day says so, and a
// window of three days or more still shows Monday.
func TestFig4ShortWindows(t *testing.T) {
	fx := newFixture(t, 3000)
	_, part := fx.run(t, 2, true)
	path := t.TempDir() + "/week.roll"
	if err := rollup.WriteFile(path, part); err != nil {
		t.Fatal(err)
	}
	day, err := part.Cfg.DayBins()
	if err != nil {
		t.Fatal(err)
	}
	fig4 := func(from, to int) string {
		t.Helper()
		env, err := experiments.NewEnvFromSnapshotWindow(path, from, to, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := experiments.NewEngine(env).Run(context.Background(), experiments.Options{IDs: []string{"fig4"}})
		if err != nil {
			t.Fatalf("window %d:%d: %v", from, to, err)
		}
		return res[0].Text
	}
	for _, tc := range []struct {
		from, to int
		want     string
	}{
		{0, day, "Facebook Saturday — raw signal"},
		{0, 2 * day, "Facebook Sunday — raw signal"},
		{day, 2*day + day/2, "Facebook Sunday — raw signal"},
		{0, day / 2, "detector panel skipped"},
		{0, 3 * day, "Facebook Monday — raw signal"},
	} {
		if got := fig4(tc.from, tc.to); !strings.Contains(got, tc.want) {
			t.Errorf("window %d:%d: fig4 lacks %q", tc.from, tc.to, tc.want)
		}
	}
	// The whole week through the window path is the unwindowed figure.
	env, err := experiments.NewEnvFromSnapshot(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := env.Fig4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fig4(0, part.Cfg.Bins) != whole.Text {
		t.Error("fig4 over the 0:Bins window differs from the unwindowed figure")
	}
}
