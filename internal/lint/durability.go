package lint

import (
	"go/ast"
	"go/token"
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
//   - a file created on a snapshot/spool plane must be fsynced before
//     close, or aggd's exit-0 durability certificate is a lie under
//     power loss.
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

// storePlanes additionally require every created file to be synced:
// these packages only ever create files whose loss is data loss.
var storePlanes = []string{"internal/epochwire", "internal/rollup"}

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
				case inStore && IsPkgFunc(fn, "os", "Create"):
					if !hasCallNamed(fd.Body, "Sync", token.NoPos, token.NoPos) {
						pass.Reportf(call.Pos(), "file created on a durable plane is never fsynced: call Sync before Close")
					}
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
