package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/epochwire"
	"repro/internal/leakcheck"
	"repro/internal/rollup"
)

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

// TestRunIsTheNetworkedTwinOfProbesim executes the sentence in this
// command's doc comment: a probed run and the probesim capture plane
// over the same source flags produce the same snapshot, and so does
// the aggregator the probed run shipped to.
func TestRunIsTheNetworkedTwinOfProbesim(t *testing.T) {
	leakcheck.Check(t)
	agg := newAggregator(t)
	dir := t.TempDir()
	source := []string{"-sessions", "300", "-shards", "2", "-window", "0:96"}

	local := filepath.Join(dir, "local.roll")
	var stdout, stderr bytes.Buffer
	args := append([]string{"-aggr", agg.Addr(), "-id", "twin", "-spool", filepath.Join(dir, "twin.spool"), "-snapshot", local}, source...)
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d\nstderr: %s", code, &stderr)
	}
	if !strings.Contains(stdout.String(), `probed "twin": `) || !strings.Contains(stdout.String(), " epochs + fin durable at "+agg.Addr()) {
		t.Errorf("stdout lacks the durable summary line:\n%s", &stdout)
	}

	// probesim's side: the same flags through the same assembly, no hook.
	fs := flag.NewFlagSet("probesim", flag.ContinueOnError)
	c := daemon.NewCapture(fs)
	ref := filepath.Join(dir, "probesim.roll")
	if err := fs.Parse(append([]string{"-snapshot", ref}, source...)); err != nil {
		t.Fatal(err)
	}
	if err := c.Open(io.Discard, io.Discard, "probesim"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}

	want := readFile(t, ref)
	if got := readFile(t, local); !bytes.Equal(got, want) {
		t.Errorf("probed -snapshot (%d bytes) differs from the probesim run's (%d bytes)", len(got), len(want))
	}
	if got := aggregate(t, agg); !bytes.Equal(got, want) {
		t.Errorf("aggregate (%d bytes) differs from the probesim run's snapshot (%d bytes)", len(got), len(want))
	}
}

// TestRunDrainsOnCancel is CI's graceful-shutdown smoke in-process:
// cancelling the context mid-run (what the first SIGTERM does) still
// seals, ships and FINs what was measured, and exits 0.
func TestRunDrainsOnCancel(t *testing.T) {
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

// TestRunExitCodes pins the contract scripts lean on: 2 is a usage
// error, 1 a failed run, and 0 is never returned unless the run is
// durable at the aggregator.
func TestRunExitCodes(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	unreachable := ln.Addr().String()
	ln.Close()
	spool := filepath.Join(t.TempDir(), "x.spool")

	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"missing-aggr-and-id", []string{"-sessions", "10"}, 2, "-aggr and -id are required"},
		{"missing-id", []string{"-aggr", unreachable}, 2, "Runs the same capture plane as probesim"},
		{"unknown-flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"help", []string{"-h"}, 0, "-spool-budget"},
		{"window-outside-week", []string{"-aggr", unreachable, "-id", "x", "-window", "700:710"}, 1, "outside the 672-bin study week"},
		{"bad-chaos-spec", []string{"-aggr", unreachable, "-id", "x", "-chaos", "nonsense"}, 1, ""},
		{"unreachable-aggregator", []string{"-aggr", unreachable, "-id", "x", "-spool", spool, "-sessions", "50", "-window", "0:8",
			"-retry-for", "200ms", "-backoff-max", "50ms", "-quiet"}, 1, ""},
	} {
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
