package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestRunExitCodes: -list and a known figure exit 0, an unknown -fig
// id exits 1 naming the valid ids, and a bad flag is a usage error (2).
// -fig probe runs the packet pipeline end to end, rollup included.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout []string
		stderr string
	}{
		{"list", []string{"-list"}, 0, ids(), ""},
		{"probe", []string{"-fig", "probe"}, 0, []string{"classification rate", "Measured downlink ranking"}, ""},
		{"unknown-fig", []string{"-fig", "nope"}, 1, nil, "nope"},
		{"bad-flag", []string{"-no-such-flag"}, 2, nil, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstderr: %s", code, tc.code, &stderr)
			}
			for _, want := range tc.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, &stdout)
				}
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, &stderr)
			}
		})
	}
}

// ids lists every registered experiment id.
func ids() []string {
	var out []string
	for _, r := range experiments.All() {
		out = append(out, r.ID)
	}
	return out
}
