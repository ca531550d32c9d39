package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// tempModule writes a throwaway module "example.com/m" holding files
// (slash-separated path → contents) and returns its root. It imports
// nothing outside the standard library, so listing it needs no network.
func tempModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module example.com/m\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// unitFiles maps each unit's path to its files' base names.
func unitFiles(units []*Unit) map[string][]string {
	got := map[string][]string{}
	for _, u := range units {
		got[u.PkgPath] = []string{}
		for _, f := range u.Files {
			got[u.PkgPath] = append(got[u.PkgPath], filepath.Base(u.Fset.Position(f.Package).Filename))
		}
	}
	return got
}

// TestLoadHonorsBuildConstraints: a //go:build ignore generator in
// package main beside package x is no part of x, as the go command
// and go vet see it. A directory holding only an external test is
// that test's unit alone.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	root := tempModule(t, map[string]string{
		"x/x.go":      "package x\n\nfunc X() int { return 1 }\n",
		"x/gen.go":    "//go:build ignore\n\npackage main\n\nfunc main() {}\n",
		"y/y_test.go": "package y_test\n\nimport \"testing\"\n\nfunc TestY(t *testing.T) {}\n",
	})
	units, err := NewLoader().Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{"example.com/m/x": {"x.go"}, "example.com/m/y_test": {"y_test.go"}}
	if got := unitFiles(units); !reflect.DeepEqual(got, want) {
		t.Fatalf("units %v, want %v", got, want)
	}
}

// TestLoadExternalTestSeesExportTest: the export_test.go idiom — an
// in-package test file exporting an internal name to the external
// test — type-checks, because the external test imports the package's
// test variant.
func TestLoadExternalTestSeesExportTest(t *testing.T) {
	root := tempModule(t, map[string]string{
		"x/x.go":           "package x\n\nfunc internal() int { return 1 }\n",
		"x/export_test.go": "package x\n\nvar ExportedForTest = internal\n",
		"x/x_test.go": "package x_test\n\nimport (\n\t\"testing\"\n\n\t\"example.com/m/x\"\n)\n\n" +
			"func TestX(t *testing.T) { _ = x.ExportedForTest() }\n",
	})
	units, err := NewLoader().Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, u := range units {
		paths = append(paths, u.PkgPath)
	}
	if got, want := strings.Join(paths, " "), "example.com/m/x example.com/m/x_test"; got != want {
		t.Fatalf("units %q, want %q", got, want)
	}
	want := map[string][]string{
		"example.com/m/x":      {"x.go", "export_test.go"},
		"example.com/m/x_test": {"x_test.go"},
	}
	if got := unitFiles(units); !reflect.DeepEqual(got, want) {
		t.Fatalf("units %v, want %v", got, want)
	}
}
