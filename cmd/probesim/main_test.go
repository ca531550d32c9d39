package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/epochwire"
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
// every -window rule of the capture plane fails here, before a frame
// flows.
func TestRunExitCodes(t *testing.T) {
	leakcheck.Check(t)
	runExitCases(t, []exitCase{
		{"unknown-flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"help", []string{"-h"}, 0, "-memprofile"},
		{"window-outside-week", []string{"-window", "700:710"}, 1, "outside the 672-bin study week"},
		{"window-not-a-range", []string{"-window", "x"}, 1, "-window wants A:B"},
		{"window-with-trace", []string{"-window", "0:96", "-trace", "t.bin"}, 1, "cannot re-window a recorded -trace"},
		{"missing-trace", []string{"-trace", filepath.Join(t.TempDir(), "absent.bin")}, 1, "no such file"},
	})
}

// TestRunAggrExitCodes pins the shipper's contract: -id pairs with
// -aggr, a run that ships fails before a frame flows on a bad -window
// or -chaos, and 0 is never returned unless the run is durable at the
// aggregator.
func TestRunAggrExitCodes(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	unreachable := ln.Addr().String()
	ln.Close()
	spool := filepath.Join(t.TempDir(), "x.spool")

	runExitCases(t, []exitCase{
		{"id-without-aggr", []string{"-id", "x", "-sessions", "10"}, 2, "-id is required with -aggr, and only applies with it"},
		{"missing-id", []string{"-aggr", unreachable}, 2, "-id is required with -aggr"},
		{"unknown-flag", []string{"-aggr", unreachable, "-id", "x", "-no-such-flag"}, 2, "flag provided but not defined"},
		{"help", []string{"-h"}, 0, "-spool-budget"},
		{"window-outside-week", []string{"-aggr", unreachable, "-id", "x", "-window", "700:710"}, 1, "outside the 672-bin study week"},
		{"bad-chaos-spec", []string{"-aggr", unreachable, "-id", "x", "-chaos", "nonsense"}, 1, ""},
		{"unreachable-aggregator", []string{"-aggr", unreachable, "-id", "x", "-spool", spool, "-sessions", "50", "-window", "0:8",
			"-retry-for", "200ms", "-backoff-max", "50ms", "-quiet"}, 1, ""},
	})
}

type exitCase struct {
	name   string
	args   []string
	code   int
	stderr string
}

// runExitCases runs each case as a subtest: the exit code must match,
// stderr must hold tc.stderr, and a run that did not exit 0 must not
// claim durability.
func runExitCases(t *testing.T, cases []exitCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d\nstderr: %s", code, tc.code, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, &stderr)
			}
			if strings.Contains(stdout.String(), "durable") {
				t.Errorf("a run that did not exit 0 claimed durability:\n%s", &stdout)
			}
		})
	}
}

func newAggregator(t *testing.T) *epochwire.Aggregator {
	t.Helper()
	agg, err := epochwire.NewAggregator("127.0.0.1:0", "", epochwire.AggConfig{Probes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agg.Stop)
	return agg
}

// aggregate waits for the aggregator to drain and returns its snapshot
// file's bytes.
func aggregate(t *testing.T, agg *epochwire.Aggregator) []byte {
	t.Helper()
	select {
	case <-agg.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("aggregator never drained: the probe's FIN is not durable")
	}
	path := filepath.Join(t.TempDir(), "agg.roll")
	if err := agg.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	return readFile(t, path)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunAggrIsTheNetworkedTwin executes the sentence in this
// command's usage: a run with -aggr and the same run without it write
// the same snapshot, and so does the aggregator the -aggr run shipped
// to.
func TestRunAggrIsTheNetworkedTwin(t *testing.T) {
	leakcheck.Check(t)
	agg := newAggregator(t)
	dir := t.TempDir()
	source := []string{"-sessions", "300", "-shards", "2", "-window", "0:96", "-quiet"}

	shipped := filepath.Join(dir, "shipped.roll")
	var stdout, stderr bytes.Buffer
	args := append([]string{"-aggr", agg.Addr(), "-id", "twin", "-spool", filepath.Join(dir, "twin.spool"), "-snapshot", shipped}, source...)
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("-aggr run exited %d\nstderr: %s", code, &stderr)
	}
	if !strings.Contains(stdout.String(), `probe "twin": `) || !strings.Contains(stdout.String(), " epochs + fin durable at "+agg.Addr()) {
		t.Errorf("stdout lacks the durable summary line:\n%s", &stdout)
	}

	local := filepath.Join(dir, "local.roll")
	if code := run(context.Background(), append([]string{"-snapshot", local}, source...), io.Discard, &stderr); code != 0 {
		t.Fatalf("local run exited %d\nstderr: %s", code, &stderr)
	}
	want := readFile(t, local)
	if got := readFile(t, shipped); !bytes.Equal(got, want) {
		t.Errorf("-aggr -snapshot (%d bytes) differs from the local run's (%d bytes)", len(got), len(want))
	}
	if got := aggregate(t, agg); !bytes.Equal(got, want) {
		t.Errorf("aggregate (%d bytes) differs from the local run's snapshot (%d bytes)", len(got), len(want))
	}
}

// TestRunAggrDrainsOnCancel is the SIGTERM half of CI's
// graceful-shutdown smoke: cancelling a shipping run mid-stream still
// seals, ships and FINs what was measured, and exits 0.
func TestRunAggrDrainsOnCancel(t *testing.T) {
	leakcheck.Check(t)
	agg := newAggregator(t)
	dir := t.TempDir()
	local := filepath.Join(dir, "partial.roll")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr bytes.Buffer
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, []string{"-aggr", agg.Addr(), "-id", "lone", "-spool", filepath.Join(dir, "lone.spool"),
			"-sessions", "100000", "-shards", "2", "-snapshot", local, "-quiet"}, io.Discard, &stderr)
	}()
	// Mid-run: the aggregator has applied something, the week is far
	// from over.
	for applied := false; !applied; {
		select {
		case c := <-code:
			t.Fatalf("run exited %d before the aggregator applied anything\nstderr: %s", c, &stderr)
		case <-time.After(2 * time.Millisecond):
		}
		for _, p := range agg.StatusNow().Probes {
			applied = applied || p.Applied > 0
		}
	}
	cancel()
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("cancelled run exited %d, want 0\nstderr: %s", c, &stderr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run never returned")
	}
	part, err := rollup.ReadFile(local)
	if err != nil {
		t.Fatalf("snapshot of the cancelled run: %v", err)
	}
	if len(part.Epochs) == 0 {
		t.Error("cancelled run sealed nothing, yet the aggregator had applied an epoch")
	}
	if got, want := aggregate(t, agg), readFile(t, local); !bytes.Equal(got, want) {
		t.Errorf("aggregate of the cancelled run (%d bytes) differs from its local snapshot (%d bytes)", len(got), len(want))
	}
}
