// Command repolint runs the repository's machine-checked invariant
// suite (internal/lint): the analyzers that enforce DESIGN.md §8's
// buffer-ownership and hot-path allocation discipline, §12's
// telemetry contracts, §13's durability and error-taxonomy rules, and
// the chaos seams of the wire plane.
//
// Standalone, from anywhere inside the module:
//
//	repolint ./...                 # whole tree (the CI gate)
//	repolint ./internal/epochwire  # one package
//	repolint -list                 # print the analyzers and exit
//
// As a vet tool, sharing go vet's build graph and export data:
//
//	go vet -vettool=$(which repolint) ./...
//
// Exit status: 0 clean, 1 operational error, 2 findings — the same
// contract go vet expects from an analysis driver.
//
// Suppressions (//lint:ignore <analyzer> <reason>) and their policy —
// including the hard "no suppressions in internal/epochwire" rule —
// are documented in DESIGN.md §14.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"repro/internal/daemon"
	"repro/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool, returning its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	// The go vet driver protocol probes the tool before handing it
	// package config files: -V=full must print an identity line, and
	// -flags must list the tool's flag schema (we add none).
	for _, arg := range args {
		switch arg {
		case "-V=full", "--V=full":
			fmt.Fprintln(stdout, "repolint version 1")
			return 0
		case "-flags", "--flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runVetUnit(args[0], stderr)
	}
	return runStandalone(args, stdout, stderr)
}

// runStandalone type-checks packages from source (go/importer's
// source mode) and runs the suite over every matched unit.
func runStandalone(args []string, stdout, stderr io.Writer) int {
	fs := daemon.NewFlagSet("repolint", "usage: repolint [packages]\n       go vet -vettool=$(which repolint) [packages]\n\n", stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := daemon.Parse(fs, args); err != nil {
		return daemon.Exit(stderr, err)
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, _, err := lint.ModuleRoot(".")
	// The source importer resolves module import paths through the go
	// command, which needs the working directory inside the module.
	if err == nil {
		err = os.Chdir(root)
	}
	var units []*lint.Unit
	if err == nil {
		units, err = lint.NewLoader().Load(root, patterns)
	}
	if err != nil {
		fmt.Fprintln(stderr, "repolint:", err)
		return 1
	}
	found := 0
	for _, u := range units {
		for _, d := range lint.RunUnit(u, lint.Analyzers()) {
			fmt.Fprintln(stdout, d)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(stderr, "repolint: %d finding(s)\n", found)
		return 2
	}
	return 0
}

// vetCfg is the package-unit description the go vet driver hands a
// vettool: the file set to analyze plus the import universe as
// compiled export data, so no re-building is needed.
type vetCfg struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetUnit analyzes one go vet package unit described by cfgPath.
func runVetUnit(cfgPath string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(stderr, "repolint:", err)
		return 1
	}
	var cfg vetCfg
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "repolint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The driver always expects the facts file, even though repolint
	// carries no cross-package facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	unit := &lint.Unit{PkgPath: unitPath(cfg.ImportPath), Fset: fset}
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return typecheckFailed(cfg, err, stderr)
		}
		unit.Files = append(unit.Files, f)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	unit.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tcfg := types.Config{Importer: imp}
	unit.Pkg, err = tcfg.Check(cfg.ImportPath, fset, unit.Files, unit.Info)
	if err != nil {
		return typecheckFailed(cfg, err, stderr)
	}
	diags := lint.RunUnit(unit, lint.Analyzers())
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s:%d:%d: [%s] %s\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Msg)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// unitPath strips go vet's test-variant suffix ("pkg [pkg.test]") so
// analyzer scoping sees the plain import path.
func unitPath(p string) string {
	if i := strings.Index(p, " ["); i >= 0 {
		return p[:i]
	}
	return p
}

func typecheckFailed(cfg vetCfg, err error, stderr io.Writer) int {
	if cfg.SucceedOnTypecheckFailure {
		return 0
	}
	fmt.Fprintf(stderr, "repolint: %s: %v\n", cfg.ImportPath, err)
	return 1
}
