package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Durability enforces the §13 fsync-before-rename discipline at every
// durability point of the storage planes:
//
//   - a rename onto a durable path must follow a Sync of the renamed
//     file's contents and be followed by a directory sync, or a crash
//     can leave a zero-length "committed" file (the torn-rename fault
//     chaos injects);
//   - bare os.WriteFile on the durable planes (spool, aggregator
//     state, snapshots) never fsyncs at all;
//   - a store plane creates no file in place: os.Create, or os.OpenFile
//     with O_CREATE, writes under the final name, so a crash or a
//     failed write leaves a truncated file there. Whole files go
//     through chaos.WriteAtomic; the append-only logs open through the
//     chaos.FS seam.
//
// internal/chaos is exempt — it *implements* the seam the discipline
// is injected through.
var Durability = &Analyzer{
	Name: "durability",
	Doc:  "durable-path writes need write+fsync before rename and a dir-sync after (DESIGN.md §13)",
	Run:  runDurability,
}

// durablePlanes are the packages whose files survive a process on
// purpose: wire spool + aggregator state, rollup snapshots, the
// catalog over them, and the daemons/CLI that write them (the capture
// binary's -snapshot write lives in internal/daemon).
var durablePlanes = []string{
	"internal/epochwire", "internal/rollup", "internal/catalog", "internal/daemon",
	"cmd/aggd", "cmd/probesim", "cmd/rollupctl",
}

// storePlanes create no file in place: every file they write is a
// store file, a fetched reply or a trace whose truncation is data
// loss. aggd's metrics dump and probesim's profiles are diagnostics.
var storePlanes = []string{
	"internal/epochwire", "internal/rollup", "internal/catalog", "internal/daemon",
	"cmd/rollupctl", "cmd/tracegen",
}

func runDurability(pass *Pass) {
	if pathWithin(pass.PkgPath, "internal/chaos") {
		return
	}
	inDurable := pathWithinAny(pass.PkgPath, durablePlanes...)
	inStore := pathWithinAny(pass.PkgPath, storePlanes...)
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		forEachFunc(file, func(fd *ast.FuncDecl) {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := pass.CalleeFunc(call)
				switch {
				case inDurable && IsPkgFunc(fn, "os", "WriteFile"):
					pass.Reportf(call.Pos(), "bare os.WriteFile on a durable plane skips fsync; write, Sync, then rename into place")
				case inStore && (IsPkgFunc(fn, "os", "Create") ||
					IsPkgFunc(fn, "os", "OpenFile") && len(call.Args) == 3 && opensCreate(pass, fn.Pkg(), call.Args[1])):
					pass.Reportf(call.Pos(), "file created in place on a store plane: a crash leaves it truncated under its final name; write it through chaos.WriteAtomic")
				case isRenameCall(pass, call):
					if !hasCallNamed(fd.Body, "Sync", token.NoPos, call.Pos()) {
						pass.Reportf(call.Pos(), "rename onto a durable path without a preceding fsync of the new contents")
					}
					if !hasCallNamed(fd.Body, "SyncDir", call.End(), token.NoPos) {
						pass.Reportf(call.Pos(), "rename is not durable until the directory is synced: follow with SyncDir")
					}
				}
				return true
			})
		})
	}
}

// isRenameCall matches os.Rename and Rename on the chaos.FS seam.
func isRenameCall(pass *Pass, call *ast.CallExpr) bool {
	fn := pass.CalleeFunc(call)
	if fn == nil {
		return false
	}
	if IsPkgFunc(fn, "os", "Rename") {
		return true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || fn.Name() != "Rename" {
		return false
	}
	return isNamed(pass.typeOf(sel.X), "internal/chaos", "FS")
}

// opensCreate reports whether an os.OpenFile flag includes O_CREATE:
// by value when the flag is a constant, else by naming os.O_CREATE.
func opensCreate(pass *Pass, osPkg *types.Package, flag ast.Expr) bool {
	create, ok := osPkg.Scope().Lookup("O_CREATE").(*types.Const)
	if !ok {
		return false
	}
	if v := pass.Info.Types[flag].Value; v != nil {
		return constant.Sign(constant.BinaryOp(v, token.AND, create.Val())) != 0
	}
	found := false
	ast.Inspect(flag, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == create {
			found = true
		}
		return !found
	})
	return found
}
