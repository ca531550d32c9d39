package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/rollup"
)

// TestRunWritesAVerifiableSnapshot: the collection unit CI builds its
// local references from — one windowed run, one snapshot whose cells
// sum to what the run reported — with the -metrics listener and the
// CPU profile released on return.
func TestRunWritesAVerifiableSnapshot(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	snap := filepath.Join(dir, "day0.roll")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-sessions", "300", "-shards", "2", "-window", "0:96", "-quiet",
		"-snapshot", snap, "-metrics", "127.0.0.1:0", "-cpuprofile", filepath.Join(dir, "cpu.pprof")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, &stderr)
	}
	part, err := rollup.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if part.Cfg.Bins != 99 || part.CellTotals() != part.ClassifiedBytes {
		t.Errorf("snapshot grid %d bins (want the 96-bin window + 3 of spill slack), cells %v vs classified %v",
			part.Cfg.Bins, part.CellTotals(), part.ClassifiedBytes)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "classification rate") ||
		!strings.HasPrefix(lines[1], "wrote rollup snapshot (") || !strings.HasSuffix(lines[1], " to "+snap) {
		t.Errorf("-quiet stdout should be the two essential lines, got:\n%s", &stdout)
	}
}

// TestRunDrainsOnCancel is the SIGINT half of CI's graceful-shutdown
// smoke: a cancelled run still writes a snapshot rollup.ReadFile
// accepts, skips the display ranking, and exits 0.
func TestRunDrainsOnCancel(t *testing.T) {
	leakcheck.Check(t)
	snap := filepath.Join(t.TempDir(), "partial.roll")
	// A 100000-session week takes seconds; the deadline lands mid-stream.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	var stdout, stderr bytes.Buffer
	if code := run(ctx, []string{"-sessions", "100000", "-shards", "2", "-snapshot", snap}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, &stderr)
	}
	if _, err := rollup.ReadFile(snap); err != nil {
		t.Fatalf("snapshot of the cancelled run: %v", err)
	}
	if strings.Contains(stdout.String(), "measured DL share") {
		t.Error("an interrupted run should stop at its snapshot, not rank services")
	}
}

// TestRunExitCodes: 2 is a usage error, 1 a run that could not start;
// every -window rule the two capture binaries share fails here, before
// a frame flows.
func TestRunExitCodes(t *testing.T) {
	leakcheck.Check(t)
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"unknown-flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"help", []string{"-h"}, 0, "-memprofile"},
		{"window-outside-week", []string{"-window", "700:710"}, 1, "outside the 672-bin study week"},
		{"window-not-a-range", []string{"-window", "x"}, 1, "-window wants A:B"},
		{"window-with-trace", []string{"-window", "0:96", "-trace", "t.bin"}, 1, "cannot re-window a recorded -trace"},
		{"missing-trace", []string{"-trace", filepath.Join(t.TempDir(), "absent.bin")}, 1, "no such file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d\nstderr: %s", code, tc.code, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, &stderr)
			}
		})
	}
}
