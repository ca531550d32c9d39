package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestAnalyzerFixtures is the golden proof for every analyzer in the
// suite: each fixture seeds the violations (want-marked) next to
// their corrected forms (unmarked), and the harness fails on any
// diagnostic drift in either direction.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			RunFixture(t, a, filepath.Join("testdata", a.Name))
		})
	}
}

func TestParseWantComment(t *testing.T) {
	pats, err := parseWantComment("want \"a b\" `c+`")
	if err != nil {
		t.Fatalf("parseWantComment: %v", err)
	}
	if len(pats) != 2 || pats[0] != "a b" || pats[1] != "c+" {
		t.Fatalf("parseWantComment = %q, want [a b, c+]", pats)
	}
	for _, bad := range []string{"want", "want notquoted", "want \"unterminated"} {
		if _, err := parseWantComment(bad); err == nil {
			t.Errorf("parseWantComment(%q) accepted a malformed marker", bad)
		}
	}
}

// TestMalformedWantMarkers: a fixture with broken markers must fail
// loudly — a marker that silently expects nothing would let a
// regressed analyzer pass its own golden test.
func TestMalformedWantMarkers(t *testing.T) {
	problems, err := CheckFixture(ErrTaxonomy, filepath.Join("testdata", "selftest", "malformed"))
	if err != nil {
		t.Fatal(err)
	}
	assertProblem(t, problems, "want pattern must be a quoted string")
	assertProblem(t, problems, "unterminated want pattern")
}

// TestFixtureDiffs: the harness reports both diff directions — an
// unexpected diagnostic and an unmatched expectation.
func TestFixtureDiffs(t *testing.T) {
	problems, err := CheckFixture(ErrTaxonomy, filepath.Join("testdata", "selftest", "diffs"))
	if err != nil {
		t.Fatal(err)
	}
	assertProblem(t, problems, "unexpected diagnostic")
	assertProblem(t, problems, "no diagnostic matching")
}

// TestSuppressionFixture: justified //lint:ignore markers silence
// exactly the named analyzer on the marked line, nothing more.
func TestSuppressionFixture(t *testing.T) {
	RunFixture(t, ErrTaxonomy, filepath.Join("testdata", "selftest", "suppress"))
}

// TestMalformedSuppressionMarker: a reason-less marker is itself a
// diagnostic and suppresses nothing.
func TestMalformedSuppressionMarker(t *testing.T) {
	u, err := NewLoader().CheckFiles("internal/markers",
		[]string{filepath.Join("testdata", "selftest", "markers", "malformed.go")})
	if err != nil {
		t.Fatal(err)
	}
	diags := RunUnit(u, []*Analyzer{ErrTaxonomy})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics %v, want 2", len(diags), diags)
	}
	assertDiag(t, diags, "lint", "malformed suppression")
	assertDiag(t, diags, "errtaxonomy", "misses wrapped sentinels")
}

// TestHardenedCoreRejectsSuppressions: inside internal/epochwire even
// a justified marker is rejected, and the finding it tried to hide
// survives — the hardened core takes fixes, not waivers.
func TestHardenedCoreRejectsSuppressions(t *testing.T) {
	u, err := NewLoader().CheckFiles("internal/epochwire",
		[]string{filepath.Join("testdata", "selftest", "markers", "hardened.go")})
	if err != nil {
		t.Fatal(err)
	}
	diags := RunUnit(u, []*Analyzer{ErrTaxonomy})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics %v, want 2", len(diags), diags)
	}
	assertDiag(t, diags, "lint", "suppression in internal/epochwire")
	assertDiag(t, diags, "errtaxonomy", "misses wrapped sentinels")
}

// TestExportDataResolvesModulePackages: fixture units type-check
// against real module packages through the module's export data — the
// frameownership fixture needs the genuine capture.Frame named type.
func TestExportDataResolvesModulePackages(t *testing.T) {
	u, err := NewLoader().CheckFiles("internal/pipe",
		[]string{filepath.Join("testdata", "frameownership", "src", "internal", "pipe", "pipe.go")})
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range u.Pkg.Imports() {
		if imp.Path() == "repro/internal/capture" {
			return
		}
	}
	t.Fatalf("unit imports %v, want repro/internal/capture among them", u.Pkg.Imports())
}

// TestLoadModulePackage: Load resolves module-qualified unit paths
// from the real tree, and the suite holds on what it loads.
func TestLoadModulePackage(t *testing.T) {
	root, modpath, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	units, err := NewLoader().Load(root, []string{"./internal/obs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) == 0 {
		t.Fatal("Load returned no units for ./internal/obs")
	}
	wantPath := modpath + "/internal/obs"
	found := false
	for _, u := range units {
		if u.PkgPath == wantPath {
			found = true
		}
		if ds := RunUnit(u, Analyzers()); len(ds) != 0 {
			t.Errorf("unit %s: unexpected diagnostics %v", u.PkgPath, ds)
		}
	}
	if !found {
		t.Fatalf("no unit with path %s", wantPath)
	}
}

func assertProblem(t *testing.T, problems []string, frag string) {
	t.Helper()
	for _, p := range problems {
		if strings.Contains(p, frag) {
			return
		}
	}
	t.Errorf("no problem mentioning %q in %q", frag, problems)
}

func assertDiag(t *testing.T, diags []Diagnostic, analyzer, frag string) {
	t.Helper()
	for _, d := range diags {
		if d.Analyzer == analyzer && strings.Contains(d.Msg, frag) {
			return
		}
	}
	t.Errorf("no %s diagnostic mentioning %q in %v", analyzer, frag, diags)
}
