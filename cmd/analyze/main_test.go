package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
	if code := run(args, &out, &errb); code != want {
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
	if !strings.HasPrefix(stats, "analyze: planner decoded ") || !strings.Contains(stats, "across 3 files (1 pruned, 0 v1 fallbacks)") {
		t.Errorf("planner stats line on stderr: %q", stats)
	}
	if quiet != "" {
		t.Errorf("-full-scan wrote to stderr: %q", quiet)
	}
}

// TestRunExitCodes: 2 is a usage error, 1 a study that could not run.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"window-without-snapshot", []string{"-window", "0:96"}, 2, "-window requires -snapshot"},
		{"unknown-flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"help", []string{"-h"}, 0, "-full-scan"},
		{"unknown-experiment", []string{"-ids", "fig2,nope"}, 1, "nope"},
		{"missing-snapshot", []string{"-snapshot", filepath.Join(t.TempDir(), "absent.roll")}, 1, "no such file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, stderr := analyze(t, tc.code, tc.args...); !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr %q lacks %q", stderr, tc.stderr)
			}
		})
	}
}
