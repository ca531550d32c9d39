package lint

import (
	"go/ast"
)

// ChaosSeam enforces the §13 injection seams inside the wire plane and
// the ctl plane: every I/O internal/epochwire and internal/ctl perform
// must route through the seams their configs already carry —
// ShipperConfig.Dial / ctl.Client.Dial for the network, chaos.FS for
// the disk, AggConfig.WrapConn for accepted connections. A direct os.*
// or net.* call is traffic the chaos plane cannot fault, which silently
// shrinks the convergence oracle's coverage: chaos can't fault what
// doesn't go through the seam.
//
// The seam *defaults* (a raw &net.Dialer{} stored into a nil
// cfg.Dial) are fine — the analyzer flags direct calls to the
// bypassing package functions, not the construction of fallbacks.
var ChaosSeam = &Analyzer{
	Name: "chaosseam",
	Doc:  "direct os/net I/O in internal/epochwire or internal/ctl bypasses the chaos injection seams (DESIGN.md §13)",
	Run:  runChaosSeam,
}

// seamBypass maps forbidden package functions to the seam that must
// carry the operation instead.
var seamBypass = map[[2]string]string{
	{"os", "OpenFile"}:     "chaos.FS",
	{"os", "Open"}:         "chaos.FS",
	{"os", "Create"}:       "chaos.FS",
	{"os", "ReadFile"}:     "chaos.FS",
	{"os", "WriteFile"}:    "chaos.FS",
	{"os", "Rename"}:       "chaos.FS",
	{"os", "Remove"}:       "chaos.FS",
	{"net", "Dial"}:        "the Dial seam",
	{"net", "DialTimeout"}: "the Dial seam",
	{"net", "DialTCP"}:     "the Dial seam",
}

// net.Listen is deliberately absent: the aggregator and the ctl server
// listen directly and the seam is per connection (AggConfig.WrapConn on
// each accepted probe connection; ctl.Client.Dial on the operator's
// side of a ctl exchange) — faulting the listener would kill the
// daemon, not model a flaky link.

func runChaosSeam(pass *Pass) {
	if !pathWithinAny(pass.PkgPath, "internal/epochwire", "internal/ctl") {
		return
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			// Tests exercise the seams from outside and may touch the
			// real filesystem for scaffolding.
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.CalleeFunc(call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			seam, hit := seamBypass[[2]string{fn.Pkg().Path(), fn.Name()}]
			if !hit || !IsPkgFunc(fn, fn.Pkg().Path(), fn.Name()) {
				return true
			}
			pass.Reportf(call.Pos(), "direct %s.%s bypasses %s: chaos can't fault what doesn't go through the seam", fn.Pkg().Path(), fn.Name(), seam)
			return true
		})
	}
}
