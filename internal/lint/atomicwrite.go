package lint

import (
	"go/ast"
	"go/token"
	"sort"
)

// AtomicWrite enforces the crash-safety write discipline in persistence
// packages (PersistencePackages in policy.go): durable replacement is
// write-temp → fsync → rename, and durable.WriteFile is the one
// implementation the others call. Per function it flags, lexically:
//
//   - os.WriteFile — it never fsyncs, so a crash can leave an empty or torn
//     file that a later rename would happily publish;
//   - os.Rename of a file written earlier in the same function with no
//     Sync call in between — the classic silently-dropped-fsync regression;
//   - `defer f.Close()` on a file opened writable — the deferred Close
//     discards the write-back error, so ENOSPC at close time is lost.
//
// The analysis is per-function and syntactic: a helper that renames a file
// synced by its caller should carry a //lint:ignore with that justification.
type AtomicWrite struct{}

// Name implements Analyzer.
func (AtomicWrite) Name() string { return "atomicwrite" }

// Doc implements Analyzer.
func (AtomicWrite) Doc() string {
	return "in persistence packages, require the write-temp → fsync → rename idiom and checked Close on writable files"
}

// Check implements Analyzer.
func (AtomicWrite) Check(pkg *Package) []Finding {
	persistent := false
	for _, p := range PersistencePackages {
		if matchPkg(pkg.Rel, p) {
			persistent = true
			break
		}
	}
	if !persistent {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			out = append(out, checkWriteDiscipline(pkg, fn)...)
		}
	}
	return out
}

// checkWriteDiscipline runs the per-function lexical pass.
func checkWriteDiscipline(pkg *Package, fn *ast.FuncDecl) []Finding {
	var out []Finding
	var writes, syncs []token.Pos // positions of write-opens and Sync calls
	writable := make(map[string]bool)

	// First pass: classify events in the function body.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// f, err := os.Create(...) / os.OpenFile(..., write flags, ...)
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if p, name, ok := pkg.qualifiedCall(call); ok && p == "os" && isWriteOpen(pkg, name, call) {
				writes = append(writes, call.Pos())
				if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					writable[id.Name] = true
				}
			}
		case *ast.CallExpr:
			p, name, ok := pkg.qualifiedCall(n)
			if ok && p == "os" {
				switch name {
				case "WriteFile":
					out = append(out, Finding{
						Pos:      pkg.Fset.Position(n.Pos()),
						Analyzer: "atomicwrite",
						Message:  "os.WriteFile never fsyncs; persistence packages must use durable.WriteFile",
					})
				case "Create", "OpenFile":
					// Write-opens whose result is not assigned (rare) still
					// count as writes for the rename rule.
					if isWriteOpen(pkg, name, n) {
						writes = append(writes, n.Pos())
					}
				}
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sync" && len(n.Args) == 0 {
				syncs = append(syncs, n.Pos())
			}
		}
		return true
	})
	sort.Slice(writes, func(i, j int) bool { return writes[i] < writes[j] })
	sort.Slice(syncs, func(i, j int) bool { return syncs[i] < syncs[j] })

	// Second pass: renames and deferred closes, judged against the events.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if p, name, ok := pkg.qualifiedCall(n); ok && p == "os" && name == "Rename" {
				if hasBefore(writes, n.Pos()) && !hasBefore(syncs, n.Pos()) {
					out = append(out, Finding{
						Pos:      pkg.Fset.Position(n.Pos()),
						Analyzer: "atomicwrite",
						Message:  "rename of a file written in this function with no Sync before it; a crash can publish a torn file — fsync before rename (see durable.WriteFile)",
					})
				}
			}
		case *ast.DeferStmt:
			if sel, ok := n.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
				if id, ok := sel.X.(*ast.Ident); ok && writable[id.Name] {
					out = append(out, Finding{
						Pos:      pkg.Fset.Position(n.Pos()),
						Analyzer: "atomicwrite",
						Message:  "deferred Close on a writable file discards the write-back error; close explicitly and check the error",
					})
				}
			}
		}
		return true
	})
	return out
}

// isWriteOpen reports whether an os.Create/os.OpenFile call opens for
// writing. os.Create always truncates for writing; os.OpenFile counts when
// its flag expression mentions a writing flag (syntactic — flags built in a
// variable elsewhere are out of reach and fail open).
func isWriteOpen(pkg *Package, name string, call *ast.CallExpr) bool {
	if name == "Create" {
		return true
	}
	if name != "OpenFile" || len(call.Args) < 2 {
		return false
	}
	writing := false
	ast.Inspect(call.Args[1], func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && pkg.pkgOf(id) == "os" {
				switch sel.Sel.Name {
				case "O_WRONLY", "O_RDWR", "O_APPEND", "O_CREATE", "O_TRUNC":
					writing = true
				}
			}
		}
		return true
	})
	return writing
}

// hasBefore reports whether the sorted position list has an entry before pos.
func hasBefore(sorted []token.Pos, pos token.Pos) bool {
	return len(sorted) > 0 && sorted[0] < pos
}
