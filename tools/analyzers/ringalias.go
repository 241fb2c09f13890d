package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// RingAlias enforces the mailbox window protocol's aliasing rule: the
// slice windows handed out by Peek and Reserve point straight into the
// mailbox's own storage (ring slots, the batch in hand) and stay valid
// only until the matching Consume / Publish — after the release the
// producer (or the next reservation) reuses the slots under the window.
// The pass flags, per function:
//
//   - any use of a window lexically after a matching release on the same
//     mailbox and before the window is rebound (len/cap are exempt: they
//     read the slice header, never the slots);
//   - any escape of the window or a subslice of it out of the local
//     scope — returned, sent on a channel, stored into a field, index,
//     global or composite literal, or captured by a go/defer closure —
//     because nothing bounds the retention of an escaped alias.
//
// The order is purely lexical — the station and source loops release each
// window at one point, after its last use — so a release inside a branch
// poisons the code below the branch too. Passing the window (or a slot
// pointer) as a plain call argument is allowed: calls return before the
// caller releases.
var RingAlias = &Analyzer{
	Name: "ringalias",
	Doc:  "flag retention of SPSC Peek/Reserve windows past the matching Consume/Publish",
	Run:  runRingAlias,
}

// ringBindMethods pairs each window-producing method with its release.
var ringBindMethods = map[string]string{
	"Peek":    "Consume",
	"Reserve": "Publish",
}

// ringCall reports whether call invokes a mailbox-package method named
// name on some receiver, returning the receiver expression's string form
// (the pass's notion of "the same mailbox").
func ringCall(info *types.Info, call *ast.CallExpr, names map[string]string, wantRelease bool) (method, recv string, ok bool) {
	sel, selOk := call.Fun.(*ast.SelectorExpr)
	if !selOk {
		return "", "", false
	}
	m := sel.Sel.Name
	matched := false
	if wantRelease {
		for _, rel := range names {
			if rel == m {
				matched = true
			}
		}
	} else {
		_, matched = names[m]
	}
	if !matched {
		return "", "", false
	}
	selection, selOk := info.Selections[sel]
	if !selOk || selection.Kind() != types.MethodVal {
		return "", "", false
	}
	r := selection.Recv()
	if ptr, isPtr := r.(*types.Pointer); isPtr {
		r = ptr.Elem()
	}
	named, isNamed := r.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || pkg.Path() != mailboxPkgPath {
		return "", "", false
	}
	return m, types.ExprString(sel.X), true
}

// ringWindow is one window variable with every position that (re)binds
// it — a loop typically rebinds the same variable each iteration, and a
// release only poisons uses after it up to the next rebind.
type ringWindow struct {
	obj     types.Object // the window variable
	bindPos []token.Pos  // where Peek/Reserve (re)bound it
	recv    string       // mailbox receiver expression
	release string       // Consume or Publish
}

// ringRelease is one Consume/Publish call site.
type ringRelease struct {
	pos    token.Pos
	recv   string
	method string
}

func runRingAlias(pass *Pass) []Diagnostic {
	if strings.HasPrefix(pass.Pkg.Path(), mailboxPkgPath) {
		return nil // the ring implementation manipulates its own slots
	}
	var diags []Diagnostic
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			diags = append(diags, ringAliasFunc(pass, fn)...)
		}
	}
	return diags
}

// ringAliasFunc analyzes one function body.
func ringAliasFunc(pass *Pass, fn *ast.FuncDecl) []Diagnostic {
	info := pass.Info

	// Pass 1: window bindings (`win, ok := m.Peek(done)`; first LHS is
	// the window), plus local aliases of already-tracked windows.
	windows := map[types.Object]*ringWindow{}
	collectBindings := func() bool {
		added := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				return true
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				return true
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				return true
			}
			if call, isCall := as.Rhs[0].(*ast.CallExpr); isCall {
				if m, recv, isRing := ringCall(info, call, ringBindMethods, false); isRing {
					if w := windows[obj]; w != nil {
						for _, p := range w.bindPos {
							if p == id.Pos() {
								return true
							}
						}
						w.bindPos = append(w.bindPos, id.Pos())
						return true
					}
					windows[obj] = &ringWindow{obj: obj, bindPos: []token.Pos{id.Pos()}, recv: recv, release: ringBindMethods[m]}
					added = true
					return true
				}
			}
			if windows[obj] != nil {
				return true
			}
			// Alias: `w2 := win` or `w2 := win[1:]` joins win's binding.
			if root := ringAliasRoot(info, as.Rhs[0], windows); root != nil {
				windows[obj] = &ringWindow{obj: obj, bindPos: append([]token.Pos(nil), root.bindPos...), recv: root.recv, release: root.release}
				added = true
			}
			return true
		})
		return added
	}
	for collectBindings() {
	}
	if len(windows) == 0 {
		return nil
	}

	// Pass 2: releases.
	var releases []ringRelease
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if m, recv, isRing := ringCall(info, call, ringBindMethods, true); isRing {
				releases = append(releases, ringRelease{pos: call.Pos(), recv: recv, method: m})
			}
		}
		return true
	})

	// Pass 3: uses, walked with the ancestor path in hand.
	var diags []Diagnostic
	var path []ast.Node
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		if n == nil {
			return
		}
		path = append(path, n)
		defer func() { path = path[:len(path)-1] }()
		if id, ok := n.(*ast.Ident); ok {
			obj := info.Uses[id]
			if obj != nil && windows[obj] != nil {
				diags = append(diags, ringCheckUse(pass, fn, windows[obj], releases, id, path)...)
			}
		}
		for _, c := range childNodes(n) {
			visit(c)
		}
	}
	visit(fn.Body)
	return diags
}

// ringAliasRoot returns the tracked window an expression aliases: the
// expression must be a tracked ident or a chain of slice expressions
// over one (indexing yields a value, not an alias).
func ringAliasRoot(info *types.Info, e ast.Expr, windows map[types.Object]*ringWindow) *ringWindow {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return windows[obj]
			}
			return nil
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// ringCheckUse reports the protocol violations one window use commits.
func ringCheckUse(pass *Pass, fn *ast.FuncDecl, w *ringWindow, releases []ringRelease, id *ast.Ident, path []ast.Node) []Diagnostic {
	var diags []Diagnostic
	use := id.Pos()

	// Use-after-release: a matching release between the latest binding
	// and the use.
	var bind token.Pos
	for _, p := range w.bindPos {
		if p < use && p > bind {
			bind = p
		}
	}
	if bind != token.NoPos && !ringLenCapArg(path, id) {
		for _, rel := range releases {
			if rel.method != w.release || rel.recv != w.recv || rel.pos <= bind || rel.pos >= use {
				continue
			}
			diags = append(diags, Diagnostic{Pos: use, Message: fmt.Sprintf(
				"use of ring window %q after %s.%s: the slots may already be reused (window is valid only until the release)",
				id.Name, w.recv, w.release)})
			break
		}
	}

	// Escapes: the window (or a subslice alias) leaving the local scope.
	if how := ringEscape(pass.Info, id, path); how != "" {
		diags = append(diags, Diagnostic{Pos: use, Message: fmt.Sprintf(
			"ring window %q escapes (%s): slots handed out by %s are reused after %s and must not be retained",
			id.Name, how, w.recv, w.release)})
	}
	return diags
}

// ringLenCapArg reports whether the use is an argument of len or cap —
// slice-header reads that never touch the slots.
func ringLenCapArg(path []ast.Node, id *ast.Ident) bool {
	for i := len(path) - 2; i >= 0; i-- {
		call, ok := path[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		if f, isIdent := call.Fun.(*ast.Ident); isIdent && (f.Name == "len" || f.Name == "cap") {
			return true
		}
	}
	return false
}

// ringEscape classifies the escape a window use commits, or "" when the
// use is local. The alias expression is the outermost slice/paren chain
// the ident roots; its parent context decides.
func ringEscape(info *types.Info, id *ast.Ident, path []ast.Node) string {
	// Find the outermost expression that still aliases the slots: the
	// ident itself, extended through slice and paren expressions.
	top := len(path) - 1 // index of id in path
	for top > 0 {
		switch p := path[top-1].(type) {
		case *ast.SliceExpr:
			if p.X == path[top] {
				top--
				continue
			}
		case *ast.ParenExpr:
			top--
			continue
		}
		break
	}
	alias := path[top].(ast.Expr)
	if top == 0 {
		return ""
	}
	// Captured by a go/defer closure anywhere up the path: the capture
	// itself is the escape — the closure reads the slots after the
	// enclosing function may have released them. The FuncLit is the
	// CallExpr's Fun in `go func() { ... }()`, so step over the call to
	// reach the statement.
	for i := top - 1; i > 0; i-- {
		if _, ok := path[i].(*ast.FuncLit); !ok {
			continue
		}
		j := i - 1
		if call, ok := path[j].(*ast.CallExpr); ok && j > 0 && call.Fun == path[i] {
			j--
		}
		switch path[j].(type) {
		case *ast.GoStmt:
			return "captured by a go closure"
		case *ast.DeferStmt:
			return "captured by a defer closure"
		}
	}
	switch parent := path[top-1].(type) {
	case *ast.ReturnStmt:
		return "returned"
	case *ast.SendStmt:
		if parent.Value == alias {
			return "sent on a channel"
		}
	case *ast.CompositeLit:
		return "stored in a composite literal"
	case *ast.KeyValueExpr:
		return "stored in a composite literal"
	case *ast.AssignStmt:
		for i, rhs := range parent.Rhs {
			if rhs != alias || i >= len(parent.Lhs) {
				continue
			}
			switch lhs := parent.Lhs[i].(type) {
			case *ast.Ident:
				if lhs.Name == "_" {
					return ""
				}
				if obj := info.Defs[lhs]; obj != nil {
					return "" // new local alias: tracked separately
				}
				if obj := info.Uses[lhs]; obj != nil && obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
					return "assigned to a package-level variable"
				}
				return "" // existing local: tracked separately
			default:
				return "stored through " + types.ExprString(parent.Lhs[i])
			}
		}
	}
	return ""
}

// childNodes returns the direct AST children of n, in source order.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}
