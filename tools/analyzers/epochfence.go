package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// EpochFence enforces the live-reconfiguration protocol of
// internal/runtime: the epoch tables (routing plan, transport bindings,
// observability cells, fault streams, retirement marks) and operator
// keyed state may only change under a pause fence — the runtime's
// correctness argument is exactly "every mutation is dominated by a
// fence acquire, and the atomic table swap publishes it" — and a
// demotion path must never hand a station back a fresh SPSC ring.
//
// The deployment and every live change reach the tables through one
// function, applyDiff(f *fence, d diff), which pauses the stations the
// diff names and then clones, grows, retires and publishes the tables;
// the helpers it hands the fence to (quiesce, demoteTransports,
// allocStations, migrateKeys) are the only other fence holders. No code
// builds or stores tables outside a fence, so the pass has no exemption.
//
// Per function, a mutation is considered fence-dominated when one holds:
//
//   - the function receives a *fence (parameter or receiver) — a static
//     capability only fence-holding callers can supply;
//   - a .pause(...) call on a fence lexically precedes the mutation in
//     the same function body.
//
// Checked mutations: assignments (element or whole-field) reached
// through a tables-typed expression, ImportKey calls (keyed-state
// migration), and Store calls publishing a *tables. Additionally,
// element writes into X.mailboxes[i] must assign a
// demoteInbox call directly — the constructor that resolves every inbox
// as multi-producer — so a demoted edge cannot be re-promoted to a ring
// whose single-producer proof no longer holds.
var EpochFence = &Analyzer{
	Name: "epochfence",
	Doc:  "require pause-fence domination for epoch-table and keyed-state mutations; demotions never re-promote a ring",
	Run:  runEpochFence,
}

const runtimePkgPath = "spinstreams/internal/runtime"

// tablesFields are the epoch-table fields the pass guards.
var tablesFields = map[string]bool{
	"epoch":     true,
	"p":         true,
	"mailboxes": true,
	"senders":   true,
	"st":        true,
	"stFaults":  true,
	"retired":   true,
}

func runEpochFence(pass *Pass) []Diagnostic {
	if !strings.HasPrefix(pass.Pkg.Path(), runtimePkgPath) {
		return nil
	}
	var diags []Diagnostic
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			diags = append(diags, epochFenceFunc(pass, fn)...)
		}
	}
	return diags
}

// isNamed reports whether t (after pointer indirection) is the named
// type name declared in a runtime package.
func isNamed(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != name {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && strings.HasPrefix(pkg.Path(), runtimePkgPath)
}

func epochFenceFunc(pass *Pass, fn *ast.FuncDecl) []Diagnostic {
	info := pass.Info

	// A *fence parameter or receiver is the static capability.
	hasFence := false
	fields := []*ast.FieldList{fn.Type.Params}
	if fn.Recv != nil {
		fields = append(fields, fn.Recv)
	}
	for _, fl := range fields {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			if isNamed(info.Types[f.Type].Type, "fence") {
				hasFence = true
			}
		}
	}

	// Lexically preceding fence.pause(...) calls.
	var pausePos []token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if x, ok := n.(*ast.CallExpr); ok {
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "pause" {
				if isNamed(info.Types[sel.X].Type, "fence") {
					pausePos = append(pausePos, x.Pos())
				}
			}
		}
		return true
	})

	fenced := func(pos token.Pos) bool {
		if hasFence {
			return true
		}
		for _, p := range pausePos {
			if p < pos {
				return true
			}
		}
		return false
	}
	unfenced := func(field string) string {
		return fmt.Sprintf("epoch-table field %s mutated outside a pause fence: pass the *fence in or pause before mutating", field)
	}

	var diags []Diagnostic
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				field, element, ok := tablesFieldWrite(info, lhs)
				if !ok {
					continue
				}
				if !fenced(lhs.Pos()) {
					diags = append(diags, Diagnostic{Pos: lhs.Pos(), Message: unfenced(field)})
				}
				if field == "mailboxes" && element && !fromDemoteInbox(x, lhs) {
					diags = append(diags, Diagnostic{Pos: lhs.Pos(), Message: "replacing a live station's inbox must go through demoteInbox: a demoted edge may never be re-promoted to an SPSC ring"})
				}
			}
		case *ast.IncDecStmt:
			if field, _, ok := tablesFieldWrite(info, x.X); ok && !fenced(x.Pos()) {
				diags = append(diags, Diagnostic{Pos: x.Pos(), Message: unfenced(field)})
			}
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || fenced(x.Pos()) {
				return true
			}
			switch sel.Sel.Name {
			case "ImportKey":
				diags = append(diags, Diagnostic{Pos: x.Pos(), Message: "keyed-state migration (ImportKey) outside a pause fence: the owning station must be paused and drained first"})
			case "Store":
				if len(x.Args) == 1 && isNamed(info.Types[x.Args[0]].Type, "tables") {
					diags = append(diags, Diagnostic{Pos: x.Pos(), Message: "publishing epoch tables outside a pause fence: the swap's ordering guarantees need the fence"})
				}
			}
		}
		return true
	})
	return diags
}

// tablesFieldWrite decodes an lvalue that reaches through a tables-typed
// expression: the guarded field name, and whether the write indexes into
// the field (element write) rather than replacing it.
func tablesFieldWrite(info *types.Info, lhs ast.Expr) (field string, element bool, ok bool) {
	e := lhs
	indexed := false
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			indexed = true
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if tv, has := info.Types[x.X]; has && isNamed(tv.Type, "tables") && tablesFields[x.Sel.Name] {
				return x.Sel.Name, indexed, true
			}
			indexed = false
			e = x.X
		default:
			return "", false, false
		}
	}
}

// fromDemoteInbox reports whether the value assigned into a mailboxes
// slot is a demoteInbox call.
func fromDemoteInbox(as *ast.AssignStmt, lhs ast.Expr) bool {
	rhs := as.Rhs[0] // a lone call may feed several targets (v, err = f())
	for i, l := range as.Lhs {
		if l == lhs && i < len(as.Rhs) {
			rhs = as.Rhs[i]
		}
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name == "demoteInbox"
	case *ast.SelectorExpr:
		return f.Sel.Name == "demoteInbox"
	}
	return false
}
