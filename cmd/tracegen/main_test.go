package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/daemon"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/report"
	"repro/internal/services"
)

// TestRecordedTraceIsTheStream is the binary-level pin that recorded
// traces carry exactly what the generator streams: -trace then -replay
// must report the frame count and byte total of the in-process Stream
// of the same (sessions, seed), and the file must be those frames plus
// the trace format's framing, to the byte.
func TestRecordedTraceIsTheStream(t *testing.T) {
	sim, err := gtpsim.New(geo.Generate(geo.SmallConfig()), services.Catalog(), daemon.SimConfig(500, 1, 0, daemon.WeekBins))
	if err != nil {
		t.Fatal(err)
	}
	var frames, total int
	for st := sim.Stream(); ; frames++ {
		f, err := st.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		total += len(f.Data)
	}

	path := filepath.Join(t.TempDir(), "t.bin")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-trace", path, "-sessions", "500", "-quiet"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-trace: exit %d\nstderr: %s", code, &stderr)
	}
	if want := fmt.Sprintf("recorded %d frames (500 sessions, ", frames); !strings.HasPrefix(stdout.String(), want) {
		t.Errorf("-trace printed %q, want prefix %q", &stdout, want)
	}
	// 8-byte magic, then a 12-byte record header per frame.
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(8+12*frames+total) {
		t.Errorf("trace file: %v, size %d, want %d", err, fi.Size(), 8+12*frames+total)
	}

	stdout.Reset()
	if code := run(context.Background(), []string{"-replay", path, "-quiet"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-replay: exit %d\nstderr: %s", code, &stderr)
	}
	if want := fmt.Sprintf("%s: %d frames, %s on the wire\n", path, frames, report.Bytes(float64(total))); stdout.String() != want {
		t.Errorf("-replay printed %q, want %q", &stdout, want)
	}
}

// TestRunExitCodes: 2 is a usage error, 1 a run that failed, 0 is -h.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"unknown-flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"help", []string{"-h"}, 0, "-replay file"},
		{"replay-missing", []string{"-replay", filepath.Join(t.TempDir(), "absent.bin")}, 1, "no such file"},
		{"trace-no-sessions", []string{"-trace", filepath.Join(t.TempDir(), "t.bin"), "-sessions", "0"}, 1, "non-positive session count"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d", code, tc.code)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not mention %q", &stderr, tc.stderr)
			}
		})
	}
}
