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
// experiment are written to stdout instead of the human summary.
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
// A plain whole file opens directly (counters and the overflow epoch
// intact, which the probe experiment reads). A view — -window,
// -services, or a directory store — goes through the catalog planner
// unless -full-scan asks for the sequential reference: read everything,
// ViewSpec.Apply. The two paths are defined (and tested in
// internal/catalog) to produce identical partials.
func snapshotEnv(stderr io.Writer, path, window, svcNames string, fullScan bool, seed uint64) (*experiments.Env, error) {
	var spec rollup.ViewSpec
	hasView := false
	if window != "" {
		var err error
		if spec.From, spec.To, err = rollup.ParseBinRange(window); err != nil {
			return nil, fmt.Errorf("analyze: -window wants A:B bin indices, got %q", window)
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
		return nil, err
	}
	if fi.IsDir() && fullScan {
		return nil, fmt.Errorf("analyze: -full-scan reads one snapshot file, not a directory (merge it first: rollupctl merge)")
	}
	switch {
	case !hasView && !fi.IsDir():
		return experiments.NewEnvFromSnapshot(path, seed)
	case fullScan:
		p, err := rollup.ReadFile(path)
		if err != nil {
			return nil, err
		}
		view, err := spec.Apply(p)
		if err != nil {
			return nil, err
		}
		ds, err := view.Dataset()
		if err != nil {
			return nil, err
		}
		return experiments.NewEnvFrom(ds, seed), nil
	default:
		c, err := catalog.Open(path)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		ds, st, err := c.Dataset(spec)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "analyze: planner decoded %d/%d epochs across %d files (%d pruned, %d v1 fallbacks)\n",
			st.EpochsDecoded, st.EpochsTotal, st.Files, st.FilesPruned, st.Fallbacks)
		return experiments.NewEnvFrom(ds, seed), nil
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usage = `analyze: run the paper's full study through the experiment engine

Dataset sources (flag defaults below):
  (default)            synthetic generator at -scale, seeded by -seed
  -snapshot file       a rollup snapshot recorded by probesim -snapshot

`

// run is the whole command, returning its exit code: 0 for a completed
// study (and -h), 2 for a usage error, 1 for a dataset that would not
// load or an experiment that failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := daemon.NewFlagSet("analyze", usage, stderr)
	scale := fs.String("scale", "small", "dataset scale: small | full (ignored with -snapshot)")
	seed := fs.Uint64("seed", 1, "generator seed; with -snapshot it drives only the stochastic analysis steps")
	snapshot := fs.String("snapshot", "", "analyze a rollup snapshot file (see cmd/probesim -snapshot) instead of generating data")
	window := fs.String("window", "", "with -snapshot: analyze only bins A:B of the grid (e.g. 0:192 for the weekend at the 15-minute step)")
	svcNames := fs.String("services", "", "with -snapshot: keep only these comma-separated service names (a view, like -window)")
	fullScan := fs.Bool("full-scan", false, "with -snapshot views: bypass the footer-index planner and apply the view by a full sequential decode (single file only)")
	ids := fs.String("ids", "", "comma-separated experiment ids to run (default: every registered experiment)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON results for every registered experiment")
	concurrency := fs.Int("concurrency", 0, "parallel experiment workers (0 = NumCPU)")
	if err := daemon.Parse(fs, args); err != nil {
		return daemon.Exit(stderr, err)
	}

	var env *experiments.Env
	var err error
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
		env, err = snapshotEnv(stderr, *snapshot, *window, *svcNames, *fullScan, *seed)
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
	results, err := eng.Run(context.Background(), experiments.Options{Concurrency: *concurrency, IDs: runIDs})
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

	country := env.DS.Geography()
	fmt.Fprintf(stdout, "Country: %d communes, %d subscribers, %d cities\n\n",
		len(country.Communes), country.TotalSubscribers(), len(country.Cities))

	byID := make(map[string]experiments.Result, len(results))
	for _, r := range results {
		byID[r.ID] = r
	}
	// A metric an experiment could not compute prints as NaN rather
	// than masquerading as a measured zero.
	metric := func(id, key string) float64 {
		if v, ok := byID[id].Metrics[key]; ok {
			return v
		}
		return math.NaN()
	}

	fmt.Fprintln(stdout, "== Overview (Sec. 3) ==")
	fmt.Fprintf(stdout, "  Zipf exponent, top half, downlink: %.2f  (paper: -1.69)\n",
		metric("fig2", "zipf_exponent_downlink"))
	fmt.Fprintf(stdout, "  Zipf exponent, top half, uplink:   %.2f  (paper: -1.55)\n",
		metric("fig2", "zipf_exponent_uplink"))
	fmt.Fprintf(stdout, "  Video share of downlink:           %.1f%% (paper: 46%%)\n",
		100*metric("fig3", "video_share_downlink"))

	fmt.Fprintln(stdout, "\n== Insight 1: heterogeneous temporal dynamics (Sec. 4) ==")
	fmt.Fprintf(stdout, "  Distinct peak calendars:           %.0f/20 (paper: all distinct)\n",
		metric("fig6", "distinct_patterns"))
	fmt.Fprintf(stdout, "  Peaks outside 7 topical times:     %.0f    (paper: 0)\n",
		metric("fig6", "outside_peaks"))
	fmt.Fprintf(stdout, "  Silhouette trend vs k (downlink):  %+.4f (paper: degrading, no winner)\n",
		metric("fig5", "silhouette_slope_downlink"))

	fmt.Fprintln(stdout, "\n== Insight 2: homogeneous spatial distributions (Sec. 5) ==")
	fmt.Fprintf(stdout, "  Mean pairwise r², downlink:        %.2f  (paper: 0.60)\n",
		metric("fig10", "mean_r2_downlink"))
	fmt.Fprintf(stdout, "  Mean pairwise r², uplink:          %.2f  (paper: 0.53)\n",
		metric("fig10", "mean_r2_uplink"))
	fmt.Fprintf(stdout, "  Twitter top-1%% commune share:      %.1f%% (paper: >50%%)\n",
		100*metric("fig8", "top1pct_share"))
	fmt.Fprintf(stdout, "  Twitter top-10%% commune share:     %.1f%% (paper: >90%%)\n",
		100*metric("fig8", "top10pct_share"))

	fmt.Fprintln(stdout, "\n== Insight 3: urbanization drives how much, not when (Sec. 5) ==")
	fmt.Fprintf(stdout, "  Mean semi-urban/urban slope:       %.2f  (paper: ≈1)\n",
		metric("fig11", "mean_slope_semiurban"))
	fmt.Fprintf(stdout, "  Mean rural/urban slope:            %.2f  (paper: ≈0.5)\n",
		metric("fig11", "mean_slope_rural"))
	fmt.Fprintf(stdout, "  Mean TGV/urban slope:              %.2f  (paper: ≥2)\n",
		metric("fig11", "mean_slope_tgv"))
	fmt.Fprintf(stdout, "  Mean temporal r², urban row:       %.2f  (paper: high)\n",
		metric("fig11", "mean_time_r2_urban"))
	fmt.Fprintf(stdout, "  Mean temporal r², TGV row:         %.2f  (paper: low outlier)\n",
		metric("fig11", "mean_time_r2_tgv"))

	fmt.Fprintln(stdout, "\n== Measurement pipeline (Sec. 2) ==")
	fmt.Fprintf(stdout, "  DPI classification rate:           %.1f%% (paper: 88%%)\n",
		100*metric("probe", "classification_rate"))
	fmt.Fprintf(stdout, "  Median ULI localization error:     %.1f km (paper: ≈3 km)\n",
		metric("probe", "median_uli_error_km"))
	fmt.Fprintf(stdout, "  Measured-vs-generated rank corr.:  %.2f  (probe data through the analysis API)\n",
		metric("probe", "measured_rank_correlation"))
	return 0
}
