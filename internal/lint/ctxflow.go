package lint

import (
	"fmt"
	"go/ast"
)

// CtxFlow enforces PR 6's context-propagation discipline: request identity
// and cancellation flow from the HTTP edge through the engine via
// context.Context, so a library function minting its own ambient context
// silently severs tracing (and makes future deadline propagation
// impossible). It flags, in non-main packages:
//
//   - context.Background() / context.TODO() calls — except the stdlib's own
//     convenience-wrapper idiom, where the fresh context is passed directly
//     to the Context-suffixed variant of the same operation (e.g.
//     Explain delegating to ExplainContext(context.Background(), ...));
//   - exported functions that accept a context.Context parameter and never
//     use it — callers believe their deadline and request ID propagate, but
//     the function drops them on the floor.
type CtxFlow struct{}

// Name implements Analyzer.
func (CtxFlow) Name() string { return "ctxflow" }

// Doc implements Analyzer.
func (CtxFlow) Doc() string {
	return "forbid ambient context.Background()/TODO() in library code (convenience wrappers delegating to a *Context variant excepted) and exported functions that drop a ctx parameter"
}

// Check implements Analyzer.
func (CtxFlow) Check(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		if file.Name.Name == "main" {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			out = append(out, checkAmbientContexts(pkg, fn)...)
			out = append(out, checkDroppedContext(pkg, fn)...)
		}
	}
	return out
}

// checkAmbientContexts flags context.Background()/TODO() outside the
// convenience-wrapper idiom. The walk keeps the enclosing-call chain so "is
// this a direct argument to a *Context call" is answerable.
func checkAmbientContexts(pkg *Package, fn *ast.FuncDecl) []Finding {
	var out []Finding
	var stack []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		p, name, ok := pkg.qualifiedCall(call)
		if !ok || p != "context" || (name != "Background" && name != "TODO") {
			return true
		}
		if wrapperArg(stack, call) {
			return true
		}
		out = append(out, Finding{
			Pos:      pkg.Fset.Position(call.Pos()),
			Analyzer: "ctxflow",
			Message:  fmt.Sprintf("context.%s() in library code severs request tracing and cancellation; accept a ctx from the caller (or delegate to the *Context variant)", name),
		})
		return true
	})
	return out
}

// wrapperArg reports whether the call (context.Background/TODO) is a direct
// argument of an enclosing call whose callee name ends in "Context" — the
// non-Context convenience wrapper pattern.
func wrapperArg(stack []ast.Node, call *ast.CallExpr) bool {
	if len(stack) < 2 {
		return false
	}
	parent, ok := stack[len(stack)-2].(*ast.CallExpr)
	if !ok {
		return false
	}
	arg := false
	for _, a := range parent.Args {
		if a == ast.Expr(call) {
			arg = true
			break
		}
	}
	if !arg {
		return false
	}
	name := ""
	switch f := parent.Fun.(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	}
	return len(name) > len("Context") && name[len(name)-len("Context"):] == "Context"
}

// checkDroppedContext flags exported functions that take a named
// context.Context parameter and never reference it.
func checkDroppedContext(pkg *Package, fn *ast.FuncDecl) []Finding {
	if !fn.Name.IsExported() || fn.Type.Params == nil {
		return nil
	}
	var out []Finding
	for _, field := range fn.Type.Params.List {
		if !isContextType(pkg, field.Type) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if !identUsed(fn.Body, name.Name) {
				out = append(out, Finding{
					Pos:      pkg.Fset.Position(name.Pos()),
					Analyzer: "ctxflow",
					Message:  fmt.Sprintf("exported %s accepts %s context.Context but never uses it; callers expect their deadline and request ID to propagate", fn.Name.Name, name.Name),
				})
			}
		}
	}
	return out
}

// isContextType matches the syntactic type context.Context.
func isContextType(pkg *Package, t ast.Expr) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && pkg.pkgOf(id) == "context"
}

// identUsed reports whether the body references the named identifier.
func identUsed(body *ast.BlockStmt, name string) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			used = true
		}
		return !used
	})
	return used
}
