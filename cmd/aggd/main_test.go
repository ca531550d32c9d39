package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/epochwire"
	"repro/internal/geo"
	"repro/internal/leakcheck"
	"repro/internal/rollup"
	"repro/internal/timeseries"
)

// TestRunDrainsAfterOneProbe starts the daemon on a kernel-picked port,
// finds it the way an operator does — the "aggd: listening on" line —
// ships one probe's run through a real Shipper, and expects what the
// distributed smoke expects: exit 0 by itself after the FIN, and an
// -snapshot holding exactly what was shipped.
func TestRunDrainsAfterOneProbe(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "out.roll")
	pr, pw := io.Pipe()
	var stderr bytes.Buffer
	code := make(chan int, 1)
	go func() {
		code <- run(context.Background(), []string{"-listen", "127.0.0.1:0", "-probes", "1", "-snapshot", out,
			"-state", filepath.Join(dir, "agg.state")}, pw, &stderr)
		pw.Close()
	}()
	stdout := bufio.NewReader(pr)
	line, err := stdout.ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "aggd: listening on ")
	if err != nil || !ok {
		t.Fatalf("first stdout line %q, %v; want the listening line\nstderr: %s", line, err, &stderr)
	}
	rest := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(stdout)
		rest <- string(b)
	}()

	cfg := rollup.Config{Start: timeseries.StudyStart, Step: 15 * time.Minute, Bins: 8, Geo: geo.SmallConfig(), Lateness: 1}
	sh, err := epochwire.NewShipper(epochwire.ShipperConfig{
		Addr: addr, ProbeID: "solo", SpoolPath: filepath.Join(dir, "solo.spool"), Cfg: cfg, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"Facebook", "YouTube"}
	nameOf := func(svc uint32) string { return names[svc] }
	part := &rollup.Partial{Cfg: cfg}
	for bin := 0; bin < 4; bin++ {
		ep := rollup.Epoch{Bin: bin, Cells: []rollup.Cell{{Dir: 0, Svc: uint32(bin % 2), Commune: 3, Bytes: float64(100 + bin)}}}
		sh.SealHook(0, ep, nameOf)
		if err := part.Merge(rollup.SingleEpochPartial(cfg, ep, nameOf)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Finish(part); err != nil {
		t.Fatal(err)
	}

	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("aggd exited %d, want 0\nstderr: %s", c, &stderr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("aggd did not drain after its one probe's FIN")
	}
	if tail := <-rest; !strings.Contains(tail, "aggd: all probes complete, draining") ||
		!strings.Contains(tail, "aggd: wrote aggregate snapshot to "+out) {
		t.Errorf("stdout after the listening line:\n%s", tail)
	}
	got, err := rollup.ReadFile(out)
	if err != nil {
		t.Fatalf("-snapshot does not verify: %v", err)
	}
	if got.CellTotals() != part.CellTotals() || len(got.Epochs) != len(part.Epochs) {
		t.Errorf("aggregate holds %v bytes in %d epochs, shipped %v in %d",
			got.CellTotals(), len(got.Epochs), part.CellTotals(), len(part.Epochs))
	}
}

// TestRunDrainsOnCancel: with no probe count to wait for, cancelling
// the context (the first SIGINT/SIGTERM) is the drain signal; an empty
// aggregate is trivially conserved and the exit is clean.
func TestRunDrainsOnCancel(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	if code := run(ctx, []string{"-listen", "127.0.0.1:0", "-ctl", "127.0.0.1:0", "-quiet"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, &stderr)
	}
	if !strings.HasPrefix(stdout.String(), `aggd: {"probes":null`) {
		t.Errorf("-quiet stdout should be the final status line alone, got:\n%s", &stdout)
	}
}

// TestRunExitCodes: 2 is a usage error, 1 a daemon that could not start
// — and a failed start leaves nothing behind (leakcheck): returning lets
// the deferred Stop and listener closes run, which os.Exit never did.
func TestRunExitCodes(t *testing.T) {
	leakcheck.Check(t)
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"unknown-flag", []string{"-no-such-flag"}, 2},
		{"help", []string{"-h"}, 0},
		{"bad-chaos-spec", []string{"-chaos", "nonsense"}, 1},
		{"unbindable-listen", []string{"-listen", "256.0.0.1:0"}, 1},
		{"unbindable-metrics", []string{"-listen", "127.0.0.1:0", "-metrics", "256.0.0.1:0"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d\nstderr: %s", code, tc.code, &stderr)
			}
		})
	}
}
