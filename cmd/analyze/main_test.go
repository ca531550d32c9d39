package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/rollup"
	"repro/internal/timeseries"
)

// fourServices is the smallest filter the two view experiments CI runs
// both accept: fig2 fits a Zipf law to the top half of the ranking (two
// services at least), fig8 needs Twitter.
const fourServices = "Twitter,Netflix,YouTube,Facebook"

// writeDay writes a one-day snapshot of five services (the four above
// and one the filter drops), both directions, and returns its path.
func writeDay(t *testing.T, dir string, day int) string {
	t.Helper()
	cfg := rollup.Config{
		Start: timeseries.StudyStart.Add(time.Duration(day) * 24 * time.Hour), Step: 15 * time.Minute,
		Bins: 96, Geo: geo.SmallConfig(), Lateness: -1,
	}
	p := &rollup.Partial{Cfg: cfg, Services: []string{"Facebook", "Instagram", "Netflix", "Twitter", "YouTube"}}
	for bin := 0; bin < cfg.Bins; bin += 3 {
		var cells []rollup.Cell
		for dir := uint8(0); dir < 2; dir++ {
			for svc := uint32(0); svc < 5; svc++ {
				cells = append(cells, rollup.Cell{Dir: dir, Svc: svc, Commune: int32((bin*7 + int(svc)*13 + day) % 60),
					Bytes: float64(1000*(int(svc)+1)*(int(svc)+1) + 100*day + bin)})
			}
		}
		p.Epochs = append(p.Epochs, rollup.Epoch{Bin: bin, Cells: cells})
	}
	p.TotalBytes = p.CellTotals()
	p.ClassifiedBytes = p.TotalBytes
	path := filepath.Join(dir, fmt.Sprintf("day-%d.roll", day))
	if err := rollup.WriteFile(path, p); err != nil {
		t.Fatal(err)
	}
	return path
}

func analyze(t *testing.T, want int, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(context.Background(), args, &out, &errb); code != want {
		t.Fatalf("analyze %s: exit %d, want %d\nstderr: %s", strings.Join(args, " "), code, want, &errb)
	}
	return out.String(), errb.String()
}

// TestPlannerMatchesFullScan is CI's catalog-job check in-process: a
// windowed, service-filtered engine run over a directory store through
// the footer-index planner emits the JSON a full sequential decode of
// the merged file emits, byte for byte.
func TestPlannerMatchesFullScan(t *testing.T) {
	store := t.TempDir()
	var days []string
	for day := 0; day < 3; day++ {
		days = append(days, writeDay(t, store, day))
	}
	merged := filepath.Join(t.TempDir(), "week.roll")
	if err := rollup.MergeFiles(merged, days...); err != nil {
		t.Fatal(err)
	}
	view := []string{"-window", "96:288", "-services", fourServices, "-json", "-ids", "fig2,fig8"}
	planned, stats := analyze(t, 0, append([]string{"-snapshot", store}, view...)...)
	scanned, quiet := analyze(t, 0, append([]string{"-snapshot", merged, "-full-scan"}, view...)...)
	if planned != scanned {
		t.Fatalf("planner and -full-scan disagree:\n%s\n---\n%s", planned, scanned)
	}
	if !strings.Contains(planned, `"id": "fig2"`) || !strings.Contains(planned, `"id": "fig8"`) {
		t.Fatalf("JSON lacks the two requested experiments:\n%s", planned)
	}
	if !strings.HasPrefix(stats, "analyze: planner decoded ") || !strings.Contains(stats, "across 3 files (1 pruned)") {
		t.Errorf("planner stats line on stderr: %q", stats)
	}
	if quiet != "" {
		t.Errorf("-full-scan wrote to stderr: %q", quiet)
	}
}

// TestRunExitCodes: 2 is a usage error, 1 a study that could not run
// (an unknown experiment id included).
func TestRunExitCodes(t *testing.T) {
	runExitCases(t, []exitCase{
		{"window-without-snapshot", []string{"-window", "0:96"}, 2, nil, "-window requires -snapshot"},
		{"unknown-flag", []string{"-no-such-flag"}, 2, nil, "flag provided but not defined"},
		{"help", []string{"-h"}, 0, nil, "-full-scan"},
		{"unknown-experiment", []string{"-ids", "fig2,nope"}, 1, nil, "nope"},
		{"missing-snapshot", []string{"-snapshot", filepath.Join(t.TempDir(), "absent.roll")}, 1, nil, "no such file"},
	})
}

// TestRunFigures: figure mode. -list names every registered experiment,
// -ids prints the selected figures (-ids probe runs the packet pipeline
// end to end, rollup included), an unknown figure id exits 1 naming it,
// and a bad flag is a usage error (2).
func TestRunFigures(t *testing.T) {
	var ids []string
	for _, r := range experiments.All() {
		ids = append(ids, r.ID)
	}
	runExitCases(t, []exitCase{
		{"list", []string{"-list"}, 0, ids, ""},
		{"probe", []string{"-ids", "probe"}, 0, []string{"=== probe: ", "classification rate", "Measured downlink ranking"}, ""},
		{"unknown-fig", []string{"-ids", "nope"}, 1, nil, "nope"},
		{"bad-flag", []string{"-ids", "probe", "-no-such-flag"}, 2, nil, "flag provided but not defined"},
	})
}

type exitCase struct {
	name   string
	args   []string
	code   int
	stdout []string
	stderr string
}

// runExitCases runs each case as a subtest: the exit code must match,
// stdout must hold every tc.stdout line and stderr must hold tc.stderr.
func runExitCases(t *testing.T, cases []exitCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr := analyze(t, tc.code, tc.args...)
			for _, want := range tc.stdout {
				if !strings.Contains(stdout, want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout)
				}
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr %q lacks %q", stderr, tc.stderr)
			}
		})
	}
}

// TestRunCancelled: a cancelled context (what the first SIGINT does)
// stops the engine, and the run fails instead of printing a study.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{"-ids", "fig2"}, &stdout, &stderr)
	if code != 1 || strings.Contains(stdout.String(), "===") || !strings.Contains(stderr.String(), "context canceled") {
		t.Errorf("cancelled run: exit %d, stdout %q, stderr %q", code, &stdout, &stderr)
	}
}

// TestSnapshotRateIsTheHeaders: the summary of a whole-file -snapshot
// reports the file's own DPI classification rate, read from its
// header, apart from the probe runner's demo capture; a view, whose
// totals are cell sums, reports none.
func TestSnapshotRateIsTheHeaders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "day0.roll")
	fs := flag.NewFlagSet("capture", flag.ContinueOnError)
	c := daemon.NewCapture(fs)
	if err := fs.Parse([]string{"-sessions", "300", "-shards", "2", "-window", "0:96", "-snapshot", path}); err != nil {
		t.Fatal(err)
	}
	if err := c.Open(io.Discard, io.Discard, "test"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	x, err := rollup.OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	h := x.Header()
	x.Close()
	rate := (h.ClassifiedBytes[0] + h.ClassifiedBytes[1]) / (h.TotalBytes[0] + h.TotalBytes[1])
	if rate <= 0 || rate >= 1 {
		t.Fatalf("header rate %v: the capture should leave some bytes unclassified", rate)
	}

	const label = "  Snapshot DPI classification rate:  "
	stdout, _ := analyze(t, 0, "-snapshot", path, "-concurrency", "2")
	if want := fmt.Sprintf("%s%.1f%% ", label, 100*rate); !strings.Contains(stdout, want) {
		t.Errorf("summary lacks %q:\n%s", want, stdout)
	}
	if !strings.Contains(stdout, "  Demo capture DPI classification:   ") {
		t.Errorf("summary lacks the demo capture's labelled rate:\n%s", stdout)
	}
	if stdout, _ := analyze(t, 0, "-snapshot", path, "-window", "0:96", "-concurrency", "2"); strings.Contains(stdout, label) {
		t.Errorf("a view printed a snapshot rate:\n%s", stdout)
	}
}
