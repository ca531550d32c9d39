package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// vetUnit writes a one-file package and the go vet unit config that
// hands it to the tool, and returns the config's path. The package
// imports nothing, so it type-checks without export data.
func vetUnit(t *testing.T, importPath, src string) string {
	t.Helper()
	dir := t.TempDir()
	file := filepath.Join(dir, "fixture.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := json.Marshal(vetCfg{ID: importPath, Compiler: "gc", Dir: dir, ImportPath: importPath, GoFiles: []string{file}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "unit.cfg")
	if err := os.WriteFile(path, cfg, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunExitCodes pins the analysis-driver contract go vet relies on:
// the -V=full and -flags probes, 0 for a clean unit, 1 for an
// operational error, 2 for findings.
func TestRunExitCodes(t *testing.T) {
	var names []string
	for _, a := range lint.Analyzers() {
		names = append(names, a.Name)
	}
	const clean = "package fixture\n\nfunc Add(a, b int) int { return a + b }\n"
	const malformed = "package fixture\n\n//lint:ignore\nfunc Add(a, b int) int { return a + b }\n"
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout []string
		stderr string
	}{
		{"list", []string{"-list"}, 0, names, ""},
		{"version-probe", []string{"-V=full"}, 0, []string{"repolint version 1\n"}, ""},
		{"flags-probe", []string{"-flags"}, 0, []string{"[]\n"}, ""},
		{"clean-unit", []string{vetUnit(t, "repro/internal/fixture", clean)}, 0, nil, ""},
		{"unreadable-cfg", []string{filepath.Join(t.TempDir(), "absent.cfg")}, 1, nil, "no such file"},
		{"findings", []string{vetUnit(t, "repro/internal/fixture", malformed)}, 2, nil, "[lint] malformed suppression"},
		{"unknown-flag", []string{"-no-such-flag"}, 2, nil, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
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
			if tc.code == 0 && tc.stdout == nil && stderr.Len() > 0 {
				t.Errorf("a clean unit wrote to stderr:\n%s", &stderr)
			}
		})
	}
}
