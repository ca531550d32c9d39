package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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
	cfg, err := json.Marshal(vetCfg{ImportPath: importPath, GoFiles: []string{file}})
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

// TestDriversAgree: on a throwaway module with one errtaxonomy finding
// in a package and one in its external test — which imports a name
// from export_test.go, so it needs the package's test variant — the
// standalone driver and go vet running repolint as its vet tool report
// the same findings at the same positions.
func TestDriversAgree(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":           "module example.com/m\n\ngo 1.24\n",
		"x/x.go":           "package x\n\nimport \"io\"\n\nfunc isEOF(err error) bool { return err == io.EOF }\n",
		"x/export_test.go": "package x\n\nvar IsEOF = isEOF\n",
		"x/x_test.go": "package x_test\n\nimport (\n\t\"io\"\n\t\"testing\"\n\n\t\"example.com/m/x\"\n)\n\n" +
			"func TestEOF(t *testing.T) {\n\tif !x.IsEOF(io.EOF) || io.EOF != io.EOF {\n\t\tt.Fatal()\n\t}\n}\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tool := filepath.Join(t.TempDir(), "repolint")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building repolint: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = root
	vetOut, _ := vet.CombinedOutput()
	var fromVet []string
	for _, line := range strings.Split(string(vetOut), "\n") {
		if strings.Contains(line, "[errtaxonomy]") {
			fromVet = append(fromVet, line)
		}
	}

	t.Chdir(root)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("standalone exit %d, want 2\nstderr: %s", code, &stderr)
	}
	standalone := strings.Split(strings.TrimSpace(strings.ReplaceAll(stdout.String(), root+string(filepath.Separator), "")), "\n")

	slices.Sort(fromVet)
	slices.Sort(standalone)
	if len(standalone) != 2 || !slices.Equal(fromVet, standalone) {
		t.Fatalf("standalone findings %q\nvet findings %q\nvet output:\n%s", standalone, fromVet, vetOut)
	}
}
