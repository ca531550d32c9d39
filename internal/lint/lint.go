// Package lint is the repository's machine-checked invariant suite:
// a dependency-free analyzer framework (stdlib go/parser + go/types,
// imports resolved from the go command's export data) plus the
// repo-specific analyzers that enforce the contracts DESIGN.md states
// in prose — §8's buffer-ownership and hot-path allocation discipline,
// §12's nil-safe metrics bundles and lock-free gauge evaluation, §13's
// fsync-before-rename durability points and transient/fatal error
// taxonomy, and the chaos seams every epochwire I/O must route through.
//
// The suite runs standalone (`repolint ./...`) and as a vet tool
// (`go vet -vettool=$(which repolint) ./...`); cmd/repolint is the
// driver for both. Diagnostics may be suppressed, one finding at a
// time, with a justified marker on the flagged line or the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// A marker without a reason is itself a diagnostic, and any marker in
// internal/epochwire is rejected outright: the hardened core takes
// fixes, not suppressions (DESIGN.md §14).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run inspects a single
// type-checked package unit and reports findings through the Pass.
type Analyzer struct {
	// Name is the analyzer's identifier: the tag diagnostics carry and
	// the token //lint:ignore markers name.
	Name string
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// Run inspects one package unit.
	Run func(*Pass)
}

// Pass is the per-(analyzer, package) analysis state handed to Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the unit's parsed sources, comments included.
	Files []*ast.File
	// Pkg and Info are the unit's type-check results.
	Pkg  *types.Package
	Info *types.Info
	// PkgPath is the unit's import path (fixture packages use their
	// path under the fixture's src/ root), with the " [tests]" marker
	// stripped — analyzers scope on it.
	PkgPath string

	diags *[]Diagnostic
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Msg      string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Msg)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Msg:      fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// CalleeFunc resolves a call expression to the package-level function
// or method it invokes, or nil for indirect calls (function values,
// builtins, conversions).
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether fn is the package-level function (not a
// method) pkgPath.name, for any of the given names.
func IsPkgFunc(fn *types.Func, pkgPath string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorValue reports whether t is an interface type satisfying
// error — the static type of a value that should be matched with
// errors.Is rather than ==. Concrete types implementing error are
// excluded: comparing those is deliberate identity.
func isErrorValue(t types.Type) bool {
	return t != nil && types.IsInterface(t) && types.Implements(t, errorIface)
}

// Analyzers is the full repolint suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ChaosSeam,
		Durability,
		ErrTaxonomy,
		FrameOwnership,
		HotPathAlloc,
		ObsDiscipline,
	}
}

// suppression is one parsed //lint:ignore marker.
type suppression struct {
	name   string
	reason string
	pos    token.Position
}

const ignorePrefix = "lint:ignore"

// hardenedCore marks the import-path subtree where suppressions are
// forbidden: invariant violations in the wire plane's durability core
// must be fixed, never waved through (DESIGN.md §14).
func hardenedCore(pkgPath string) bool {
	return pkgPath == "internal/epochwire" ||
		strings.HasSuffix(pkgPath, "/internal/epochwire") ||
		strings.Contains(pkgPath, "/internal/epochwire/")
}

// applySuppressions filters diags through the unit's //lint:ignore
// markers. A marker suppresses diagnostics of the named analyzer on
// its own line and the line directly below (so it can ride above the
// flagged statement or trail it). Malformed markers, and any marker
// at all inside internal/epochwire, come back as fresh diagnostics
// from the pseudo-analyzer "lint".
func applySuppressions(pkgPath string, fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	type key struct {
		file string
		line int
		name string
	}
	sup := map[key]*suppression{}
	var meta []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				if hardenedCore(pkgPath) {
					meta = append(meta, Diagnostic{
						Analyzer: "lint",
						Pos:      pos,
						Msg:      "suppression in internal/epochwire: the hardened core takes fixes, not //lint:ignore markers",
					})
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
				if len(fields) < 2 {
					meta = append(meta, Diagnostic{
						Analyzer: "lint",
						Pos:      pos,
						Msg:      "malformed suppression: want //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				s := &suppression{name: fields[0], reason: strings.Join(fields[1:], " "), pos: pos}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					sup[key{pos.Filename, line, s.name}] = s
				}
			}
		}
	}
	kept := meta
	for _, d := range diags {
		if sup[key{d.Pos.Filename, d.Pos.Line, d.Analyzer}] != nil {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// RunUnit runs every analyzer over one type-checked unit and returns
// the surviving diagnostics, suppressions applied, sorted by position.
func RunUnit(u *Unit, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     u.Fset,
			Files:    u.Files,
			Pkg:      u.Pkg,
			Info:     u.Info,
			PkgPath:  u.PkgPath,
			diags:    &diags,
		}
		a.Run(pass)
	}
	diags = applySuppressions(u.PkgPath, u.Fset, u.Files, diags)
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders diags by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// wantRe matches the expectation syntax of the golden-comment harness
// (see fixture.go): a comment of the form
//
//	// want "pattern" `pattern` ...
var wantRe = regexp.MustCompile("^want(\\s|$)")
