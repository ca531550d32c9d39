package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// Unit is one type-checked analysis unit: a package's sources —
// possibly augmented with its in-package test files, or the external
// _test package — parsed and checked against compiled export data.
type Unit struct {
	// PkgPath is the unit's import path ("repro/internal/rollup");
	// external test units carry a "_test" suffix.
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// Check parses filenames (comments kept) and type-checks them as one
// unit, the type-check both drivers share. Imports resolve through
// importMap (when it names the path) and then packageFile, the
// package → export-data map that `go list -export` and the go vet
// driver both provide. pkgPath may carry go's test-variant suffix
// ("p [p.test]"), which the unit drops so analyzers scope on the plain
// path. Parse or type errors fail the whole unit: analyzers only ever
// see packages that compile.
func Check(pkgPath string, filenames []string, importMap, packageFile map[string]string) (*Unit, error) {
	pkgPath, _, _ = strings.Cut(pkgPath, " [")
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: unit %s has no files", pkgPath)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var terrs []string
	cfg := types.Config{
		Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if mapped, ok := importMap[path]; ok {
				path = mapped
			}
			file, ok := packageFile[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}),
		Error: func(err error) {
			if len(terrs) < 10 {
				terrs = append(terrs, err.Error())
			}
		},
	}
	pkg, err := cfg.Check(pkgPath, fset, files, info)
	if len(terrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s:\n\t%s", pkgPath, strings.Join(terrs, "\n\t"))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", pkgPath, err)
	}
	return &Unit{PkgPath: pkgPath, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// Loader type-checks units against the export data of one
// `go list -export` run.
type Loader struct {
	exports map[string]string // package path → export-data file
}

// NewLoader returns a Loader that has listed nothing yet.
func NewLoader() *Loader { return &Loader{} }

// CheckFiles type-checks filenames as one unit named pkgPath, importing
// from the loader's listing. Before any Load that is the listing of
// the whole module enclosing the working directory, made once per
// process: fixture imports must lie in the module's dependency closure.
func (l *Loader) CheckFiles(pkgPath string, filenames []string) (*Unit, error) {
	if l.exports == nil {
		exports, err := moduleExports()
		if err != nil {
			return nil, err
		}
		l.exports = exports
	}
	return Check(pkgPath, filenames, nil, l.exports)
}

// moduleExports lists the module enclosing the working directory once
// per process, so fixture checks, each with its own Loader, share one
// go list run.
var moduleExports = sync.OnceValues(func() (map[string]string, error) {
	root, _, err := ModuleRoot(".")
	if err != nil {
		return nil, err
	}
	_, exports, err := listUnits(root, []string{"./..."})
	return exports, err
})

// Load type-checks every package the patterns match, resolved by the
// go command from root (the module root), into the units go vet
// analyzes: a package's unit holds its in-package test files when it
// has any, and an external _test package is a unit of its own. Units
// come in directory order, each package before its external test.
func (l *Loader) Load(root string, patterns []string) ([]*Unit, error) {
	pkgs, exports, err := listUnits(root, patterns)
	if err != nil {
		return nil, err
	}
	l.exports = exports
	units := make([]*Unit, 0, len(pkgs))
	for _, p := range pkgs {
		files := make([]string, len(p.GoFiles))
		for i, name := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, name)
		}
		u, err := Check(p.ImportPath, files, p.ImportMap, exports)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// listedPackage is the part of a `go list -json` record the loader
// reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	ForTest    string
	DepOnly    bool
}

// listUnits runs one `go list -export -deps -test` over patterns from
// root. It returns the analysis units the patterns match, in order,
// and the export data of every package the run built, test variants
// included. A package with in-package tests is analyzed as its
// "p [p.test]" variant; the "p.test" mains, the dependencies
// recompiled for a test and a package with no files of its own (a
// directory holding only an external test) are not analyzed.
func listUnits(root string, patterns []string) (units []*listedPackage, exports map[string]string, err error) {
	out, err := goList(root, append([]string{"-export", "-deps", "-test",
		"-json=ImportPath,Dir,Export,GoFiles,ImportMap,ForTest,DepOnly"}, patterns...)...)
	if err != nil {
		return nil, nil, err
	}
	exports = map[string]string{}
	hasVariant := map[string]bool{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		exports[p.ImportPath] = p.Export
		path, _, _ := strings.Cut(p.ImportPath, " [")
		switch {
		case p.DepOnly || len(p.GoFiles) == 0 || strings.HasSuffix(p.ImportPath, ".test"):
		case path == p.ForTest:
			hasVariant[path] = true
			units = append(units, p)
		case p.ForTest == "" || path == p.ForTest+"_test":
			units = append(units, p)
		}
	}
	units = slices.DeleteFunc(units, func(p *listedPackage) bool {
		return p.ForTest == "" && hasVariant[p.ImportPath]
	})
	// Directory order (a tree walk's, element by element), the package
	// before its external test.
	slices.SortFunc(units, func(a, b *listedPackage) int {
		sep := string(filepath.Separator)
		if c := slices.Compare(strings.Split(a.Dir, sep), strings.Split(b.Dir, sep)); c != 0 {
			return c
		}
		return strings.Compare(a.ImportPath, b.ImportPath)
	})
	return units, exports, nil
}

// ModuleRoot returns the directory and module path of the main module
// the go command resolves from dir.
func ModuleRoot(dir string) (root, modpath string, err error) {
	out, err := goList(dir, "-m", "-f", "{{.Dir}}\t{{.Path}}")
	root, modpath, _ = strings.Cut(strings.TrimSpace(string(out)), "\t")
	return root, modpath, err
}

// goList runs `go list args...` in dir and returns its standard
// output; a failure carries the go command's standard error.
func goList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
		return nil, fmt.Errorf("lint: go list: %w\n%s", err, bytes.TrimSpace(ee.Stderr))
	} else if err != nil {
		return nil, fmt.Errorf("lint: go list: %w", err)
	}
	return out, nil
}
