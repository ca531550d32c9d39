// Command analyze runs the complete study end to end through the
// experiment engine and reports the paper's three key insights with
// the measured values:
//
//  1. services have heterogeneous temporal dynamics (no natural
//     clustering; unique peak calendars);
//  2. services share very similar spatial distributions (high pairwise
//     r², Netflix and iCloud as outliers);
//  3. urbanization drives how much users consume, not when (slope
//     ratios vs temporal correlations; TGV the exception).
//
// With --json the full machine-readable results of every registered
// experiment are written to stdout instead of the human summary; with
// -ids, the selected experiments' figures. -list names them all.
//
// With -snapshot the dataset comes from a rollup snapshot produced by
// cmd/probesim -snapshot instead of the synthetic generator: the
// produce-once, analyze-many workflow — no simulator, no probe, no raw
// trace between the file and the figures. -window A:B restricts the
// snapshot to a bin subrange (a day, the weekend, the working week) of
// a merged multi-day rollup — see cmd/rollupctl for the merge side —
// -services keeps only the named services, and -ids selects a subset
// of experiments, which slice views usually want (the calendar
// experiments assume a whole study week).
//
// -snapshot also accepts a directory of *.roll files: the catalog
// opens them as one store. Views (-window, -services) route through
// the catalog planner, which uses the v2 footer indexes to decode only
// the epochs the view can touch (stats on stderr); -full-scan forces
// the sequential reference path over a single file instead — both are
// defined to produce identical results.
package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/catalog"
	"repro/internal/daemon"
	"repro/internal/experiments"
	"repro/internal/rollup"
	"repro/internal/synth"
)

// snapshotEnv builds the engine environment from recorded rollups.
// A plain whole file opens directly, counters and the overflow epoch
// intact, and its header's DPI classification rate comes back too (NaN
// for a view: its totals are cell sums). A view — -window, -services,
// or a directory store — goes through the catalog planner
// unless -full-scan asks for the sequential reference: read everything,
// ViewSpec.Apply. The two paths are defined (and tested in
// internal/catalog) to produce identical partials.
func snapshotEnv(stderr io.Writer, path, window, svcNames string, fullScan bool, seed uint64) (*experiments.Env, float64, error) {
	nan := math.NaN()
	var spec rollup.ViewSpec
	hasView := false
	if window != "" {
		var err error
		if spec.From, spec.To, err = rollup.ParseBinRange(window); err != nil {
			return nil, nan, fmt.Errorf("analyze: -window wants A:B bin indices, got %q", window)
		}
		hasView = true
	}
	if svcNames != "" {
		for _, name := range strings.Split(svcNames, ",") {
			if name = strings.TrimSpace(name); name != "" {
				spec.Services = append(spec.Services, name)
			}
		}
		hasView = true
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, nan, err
	}
	if fi.IsDir() && fullScan {
		return nil, nan, fmt.Errorf("analyze: -full-scan reads one snapshot file, not a directory (merge it first: rollupctl merge)")
	}
	switch {
	case fullScan || !hasView && !fi.IsDir():
		p, err := rollup.ReadFile(path)
		if err != nil {
			return nil, nan, err
		}
		rate := nan
		if !hasView {
			rate = (p.ClassifiedBytes[0] + p.ClassifiedBytes[1]) / (p.TotalBytes[0] + p.TotalBytes[1])
		} else if p, err = spec.Apply(p); err != nil {
			return nil, nan, err
		}
		ds, err := p.Dataset()
		if err != nil {
			return nil, nan, err
		}
		return experiments.NewEnvFrom(ds, seed), rate, nil
	default:
		c, err := catalog.Open(path)
		if err != nil {
			return nil, nan, err
		}
		defer c.Close()
		ds, st, err := c.Dataset(spec)
		if err != nil {
			return nil, nan, err
		}
		fmt.Fprintf(stderr, "analyze: planner decoded %d/%d epochs across %d files (%d pruned)\n",
			st.EpochsDecoded, st.EpochsTotal, st.Files, st.FilesPruned)
		return experiments.NewEnvFrom(ds, seed), nan, nil
	}
}

func main() { os.Exit(run(daemon.SignalContext("analyze"), os.Args[1:], os.Stdout, os.Stderr)) }

const usage = `analyze: run the paper's full study through the experiment engine

Dataset sources (flag defaults below):
  (default)            synthetic generator at -scale, seeded by -seed
  -snapshot file       a rollup snapshot recorded by probesim -snapshot

`

// run is the whole command, returning its exit code: 0 for a completed
// study (and -h, -list), 2 for a usage error, 1 for a dataset that
// would not load or an experiment that failed (an unknown -ids id
// included). Cancelling ctx stops the engine.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := daemon.NewFlagSet("analyze", usage, stderr)
	scale := fs.String("scale", "small", "dataset scale: small | full (ignored with -snapshot)")
	seed := fs.Uint64("seed", 1, "generator seed; with -snapshot it drives only the stochastic analysis steps")
	snapshot := fs.String("snapshot", "", "analyze a rollup snapshot file (see cmd/probesim -snapshot) instead of generating data")
	window := fs.String("window", "", "with -snapshot: analyze only bins A:B of the grid (e.g. 0:192 for the weekend at the 15-minute step)")
	svcNames := fs.String("services", "", "with -snapshot: keep only these comma-separated service names (a view, like -window)")
	fullScan := fs.Bool("full-scan", false, "with -snapshot views: bypass the footer-index planner and apply the view by a full sequential decode (single file only)")
	ids := fs.String("ids", "", "comma-separated experiment ids to run and print as figures (default: every registered experiment, printed as the headline summary)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON results for every registered experiment")
	concurrency := fs.Int("concurrency", 0, "parallel experiment workers (0 = NumCPU)")
	if err := daemon.Parse(fs, args); err != nil {
		return daemon.Exit(stderr, err)
	}
	if *list {
		for _, r := range experiments.All() {
			fmt.Fprintf(stdout, "%-22s %s\n", r.ID, r.Title)
		}
		return 0
	}

	var env *experiments.Env
	var err error
	snapRate := math.NaN()
	for _, view := range []struct {
		flag string
		set  bool
	}{{"-window", *window != ""}, {"-services", *svcNames != ""}, {"-full-scan", *fullScan}} {
		if view.set && *snapshot == "" {
			fmt.Fprintf(stderr, "analyze: %s requires -snapshot\n", view.flag)
			return daemon.Exit(stderr, daemon.ErrUsage)
		}
	}
	if *snapshot != "" {
		if !*jsonOut {
			fmt.Fprintf(stdout, "Loading rollup snapshot %s (seed %d)...\n", *snapshot, *seed)
		}
		env, snapRate, err = snapshotEnv(stderr, *snapshot, *window, *svcNames, *fullScan, *seed)
	} else {
		cfg := synth.SmallConfig()
		if *scale == "full" {
			cfg = synth.DefaultConfig()
		}
		cfg.Seed = *seed
		if !*jsonOut {
			fmt.Fprintf(stdout, "Generating %d-commune dataset (%d services, seed %d)...\n",
				cfg.Geo.NumCommunes, cfg.TotalServices, cfg.Seed)
		}
		env, err = experiments.NewEnv(cfg)
	}
	if err != nil {
		return daemon.Exit(stderr, err)
	}

	var runIDs []string
	if *ids != "" {
		for _, id := range strings.Split(*ids, ",") {
			if id = strings.TrimSpace(id); id != "" {
				runIDs = append(runIDs, id)
			}
		}
	}
	eng := experiments.NewEngine(env)
	results, err := eng.Run(ctx, experiments.Options{Concurrency: *concurrency, IDs: runIDs})
	if err != nil {
		return daemon.Exit(stderr, err)
	}

	if *jsonOut {
		buf, err := experiments.EncodeJSON(results)
		if err != nil {
			return daemon.Exit(stderr, err)
		}
		stdout.Write(buf)
		return 0
	}
	if runIDs != nil {
		for _, r := range results {
			fmt.Fprintln(stdout, r.String())
		}
		return 0
	}

	country := env.DS.Geography()
	fmt.Fprintf(stdout, "Country: %d communes, %d subscribers, %d cities\n\n",
		len(country.Communes), country.TotalSubscribers(), len(country.Cities))

	byID := make(map[string]experiments.Result, len(results))
	for _, r := range results {
		byID[r.ID] = r
	}
	// Each line prints one experiment's headline metric, times mul; a
	// line without an id is a heading.
	for _, l := range []struct {
		format, id, key string
		mul             float64
	}{
		{"== Overview (Sec. 3) ==\n", "", "", 0},
		{"  Zipf exponent, top half, downlink: %.2f  (paper: -1.69)\n", "fig2", "zipf_exponent_downlink", 1},
		{"  Zipf exponent, top half, uplink:   %.2f  (paper: -1.55)\n", "fig2", "zipf_exponent_uplink", 1},
		{"  Video share of downlink:           %.1f%% (paper: 46%%)\n", "fig3", "video_share_downlink", 100},
		{"\n== Insight 1: heterogeneous temporal dynamics (Sec. 4) ==\n", "", "", 0},
		{"  Distinct peak calendars:           %.0f/20 (paper: all distinct)\n", "fig6", "distinct_patterns", 1},
		{"  Peaks outside 7 topical times:     %.0f    (paper: 0)\n", "fig6", "outside_peaks", 1},
		{"  Silhouette trend vs k (downlink):  %+.4f (paper: degrading, no winner)\n", "fig5", "silhouette_slope_downlink", 1},
		{"\n== Insight 2: homogeneous spatial distributions (Sec. 5) ==\n", "", "", 0},
		{"  Mean pairwise r², downlink:        %.2f  (paper: 0.60)\n", "fig10", "mean_r2_downlink", 1},
		{"  Mean pairwise r², uplink:          %.2f  (paper: 0.53)\n", "fig10", "mean_r2_uplink", 1},
		{"  Twitter top-1%% commune share:      %.1f%% (paper: >50%%)\n", "fig8", "top1pct_share", 100},
		{"  Twitter top-10%% commune share:     %.1f%% (paper: >90%%)\n", "fig8", "top10pct_share", 100},
		{"\n== Insight 3: urbanization drives how much, not when (Sec. 5) ==\n", "", "", 0},
		{"  Mean semi-urban/urban slope:       %.2f  (paper: ≈1)\n", "fig11", "mean_slope_semiurban", 1},
		{"  Mean rural/urban slope:            %.2f  (paper: ≈0.5)\n", "fig11", "mean_slope_rural", 1},
		{"  Mean TGV/urban slope:              %.2f  (paper: ≥2)\n", "fig11", "mean_slope_tgv", 1},
		{"  Mean temporal r², urban row:       %.2f  (paper: high)\n", "fig11", "mean_time_r2_urban", 1},
		{"  Mean temporal r², TGV row:         %.2f  (paper: low outlier)\n", "fig11", "mean_time_r2_tgv", 1},
		// The probe runner simulates and measures a small capture of its
		// own, whatever the dataset above is.
		{"\n== Measurement pipeline (Sec. 2) ==\n", "", "", 0},
		{"  Demo capture DPI classification:   %.1f%% (paper: 88%%)\n", "probe", "classification_rate", 100},
		{"  Demo capture median ULI error:     %.1f km (paper: ≈3 km)\n", "probe", "median_uli_error_km", 1},
		{"  Demo capture rank corr. vs truth:  %.2f  (probe data through the analysis API)\n", "probe", "measured_rank_correlation", 1},
	} {
		if l.id == "" {
			fmt.Fprint(stdout, l.format)
			continue
		}
		// A metric an experiment could not compute prints as NaN rather
		// than masquerading as a measured zero.
		v, ok := byID[l.id].Metrics[l.key]
		if !ok {
			v = math.NaN()
		}
		fmt.Fprintf(stdout, l.format, l.mul*v)
	}
	if !math.IsNaN(snapRate) {
		fmt.Fprintf(stdout, "  Snapshot DPI classification rate:  %.1f%% (file header; paper: 88%%)\n", 100*snapRate)
	}
	return 0
}
