package daemon

import (
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/probe"
	"repro/internal/rollup"
	"repro/internal/timeseries"
)

// TestCollectionUnitGrids pins the window arithmetic of every
// collection unit, local or shipping: the generator draws sessions inside [from, to), and the
// probe grid covers that window plus 3 bins of spill slack, clamped to
// the study week.
func TestCollectionUnitGrids(t *testing.T) {
	bin := func(i int) time.Time { return timeseries.StudyStart.Add(time.Duration(i) * timeseries.DefaultStep) }
	for _, tc := range []struct {
		name      string
		from, to  int
		probeBins int
	}{
		{"whole-week", 0, WeekBins, WeekBins},
		{"first-bin", 0, 1, 4},
		{"one-day", 96, 192, 99},
		{"slack-clamped", 600, 670, 72},
		{"last-bin", WeekBins - 1, WeekBins, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := SimConfig(50, 7, tc.from, tc.to)
			if sim.Sessions != 50 || sim.Seed != 7 {
				t.Errorf("sim sessions/seed = %d/%d, want 50/7", sim.Sessions, sim.Seed)
			}
			if !sim.Start.Equal(bin(tc.from)) || !sim.Start.Add(sim.Duration).Equal(bin(tc.to)) {
				t.Errorf("sim window [%v, %v), want [%v, %v)", sim.Start, sim.Start.Add(sim.Duration), bin(tc.from), bin(tc.to))
			}
			pcfg := ProbeConfig(tc.from, tc.to)
			want := probe.DefaultConfig()
			want.Start, want.Bins = bin(tc.from), tc.probeBins
			if pcfg != want {
				t.Errorf("probe grid %+v, want %+v", pcfg, want)
			}
			if end := tc.from + pcfg.Bins; end > WeekBins {
				t.Errorf("probe grid ends at bin %d, past the %d-bin week", end, WeekBins)
			}
		})
	}
}

// open parses args onto a fresh Capture and opens it; a nil error
// registers Close as cleanup.
func open(t *testing.T, args ...string) (*Capture, error) {
	t.Helper()
	fs := flag.NewFlagSet("capture", flag.ContinueOnError)
	c := NewCapture(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	err := c.Open(io.Discard, io.Discard, "test")
	if err == nil {
		t.Cleanup(c.Close)
	}
	return c, err
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestOpenRejectsAndReleases: every flag rule fails Open, and an Open
// that fails after taking the -metrics listener or the trace file gives
// both back — the listener's goroutines end (leakcheck), its address
// binds again, and the file is already closed.
func TestOpenRejectsAndReleases(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.bin")
	if err := os.WriteFile(garbage, []byte("not a trace file"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		err  string
	}{
		{"window-not-a-range", []string{"-window", "x"}, "-window wants A:B"},
		{"window-outside-week", []string{"-window", "700:710"}, "outside the 672-bin study week"},
		{"window-empty", []string{"-window", "5:5"}, "outside the 672-bin study week"},
		{"window-with-trace", []string{"-window", "0:96", "-trace", garbage}, "cannot re-window a recorded -trace"},
		{"missing-trace", []string{"-trace", filepath.Join(dir, "absent.bin")}, "no such file"},
		{"malformed-trace", []string{"-trace", garbage}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := freeAddr(t)
			c, err := open(t, append(tc.args, "-metrics", addr)...)
			if err == nil {
				t.Fatal("Open succeeded")
			}
			if !strings.Contains(err.Error(), tc.err) {
				t.Errorf("error %q lacks %q", err, tc.err)
			}
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatalf("failed Open kept the -metrics listener: %v", err)
			}
			ln.Close()
			if c.trace != nil {
				if err := c.trace.Close(); !errors.Is(err, os.ErrClosed) {
					t.Errorf("failed Open left the trace file open (Close: %v)", err)
				}
			}
		})
	}
}

// TestRunAlwaysCollects: with neither a seal hook nor -snapshot the run
// still returns the sealed partial — the run's only per-service
// aggregate — and its cells sum to the probes' classified counters.
// With -snapshot the file reads back as that partial.
func TestRunAlwaysCollects(t *testing.T) {
	leakcheck.Check(t)
	for _, snapshot := range []bool{false, true} {
		args := []string{"-sessions", "200", "-shards", "2", "-window", "0:96"}
		path := filepath.Join(t.TempDir(), "run.roll")
		if snapshot {
			args = append(args, "-snapshot", path)
		}
		c, err := open(t, args...)
		if err != nil {
			t.Fatal(err)
		}
		rep, part, err := c.Run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if part == nil {
			t.Fatalf("snapshot=%v: Run returned no partial", snapshot)
		}
		if err := part.CheckTotals(); err != nil {
			t.Errorf("snapshot=%v: %v", snapshot, err)
		}
		if part.ClassifiedBytes != rep.ClassifiedBytes || rep.ClassifiedBytes[probe.DL] == 0 {
			t.Errorf("snapshot=%v: partial classified %v, probes counted %v", snapshot, part.ClassifiedBytes, rep.ClassifiedBytes)
		}
		if !snapshot {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("no -snapshot, yet %s exists (%v)", path, err)
			}
			continue
		}
		got, err := rollup.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Ingest diagnostics are reported, never persisted.
		got.LateFrames, got.Cfg.Lateness = part.LateFrames, part.Cfg.Lateness
		if !reflect.DeepEqual(got, part) {
			t.Error("the -snapshot file reads back different from the returned partial")
		}
	}
}
