package lint

import (
	"go/ast"
	"go/types"
)

// ArenaRelease checks that every spill arena created with Disk.NewArena /
// Disk.NewArenaTapped — and every sort row store created with
// xsort.newRowStore, the owner of a list of sort-memory blocks — is either
// released in a defer or has its ownership transferred (returned, stored in
// a struct, passed to another function).
//
// An arena whose only Release calls are inline is flagged even though some
// path releases it: a panic or early return between creation and the
// inline Release leaks the arena's temp files — exactly the MRS adopt leak
// PR 8's fault sweep caught dynamically. The fix shape the analyzer
// accepts is the one adopt now uses: release in a defer, guarded by an
// ownership flag if the happy path hands the arena off. A row store dropped
// the same way leaks its blocks: the pool never gets them back and
// Disk.LiveBlocks never returns to zero.
var ArenaRelease = &Analyzer{
	Name: "arenarelease",
	Doc: "spill arenas and sort row stores must be released in a defer or have ownership transferred; " +
		"inline-only release leaks on panic and early-return paths",
	Run: runArenaRelease,
}

// ownedKind is one kind of resource the analyzer tracks: how a creation is
// recognised, the method that gives it back, and the words for both.
type ownedKind struct {
	noun    string // "arena"
	release string // releasing method
	leaks   string // what an unreleased one leaves behind
	// creation reports whether call creates one, and how to name the call.
	creation func(info *types.Info, call *ast.CallExpr) (string, bool)
}

var ownedKinds = []*ownedKind{
	{noun: "arena", release: "Release", leaks: "the arena's temp files", creation: isArenaNew},
	{noun: "row store", release: "release", leaks: "the store's sort-memory blocks", creation: isRowStoreNew},
}

// arenaTracked records what the analyzer has learned about one local
// variable holding a freshly created resource.
type arenaTracked struct {
	kind     *ownedKind
	obj      types.Object
	pos      ast.Node
	deferred bool // released from a defer
	inline   bool // released on a non-defer path only
	escaped  bool // ownership transferred
}

func runArenaRelease(pass *Pass) error {
	info := pass.TypesInfo()
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkArenaUse(pass, info, fn.Body)
		}
	}
	return nil
}

// checkArenaUse analyzes one function body: finds arena creations bound to
// local variables and classifies every use of each such variable.
func checkArenaUse(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	// Pass 1: find creations. Creations assigned to locals are tracked;
	// creations immediately discarded are flagged; creations whose result
	// feeds directly into a larger expression (composite literal, call
	// argument, return, field assignment) transfer ownership at birth.
	var locals []*arenaTracked
	byObj := make(map[types.Object]*arenaTracked)

	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var kind *ownedKind
		var newName string
		for _, k := range ownedKinds {
			if name, ok := k.creation(info, call); ok {
				kind, newName = k, name
				break
			}
		}
		if kind == nil {
			return true
		}
		parent := ast.Node(nil)
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		switch p := parent.(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "result of %s is discarded: the %s can never be released", newName, kind.noun)
		case *ast.AssignStmt:
			// Find which LHS this call feeds (parallel assignment).
			for i, rhs := range p.Rhs {
				if rhs != call || i >= len(p.Lhs) {
					continue
				}
				switch lhs := p.Lhs[i].(type) {
				case *ast.Ident:
					if lhs.Name == "_" {
						pass.Reportf(call.Pos(), "result of %s is discarded: the %s can never be released", newName, kind.noun)
						break
					}
					obj := info.Defs[lhs]
					if obj == nil {
						obj = info.Uses[lhs]
					}
					if obj == nil || !isLocalVar(obj, body) {
						// Assignment to a package-level variable:
						// ownership lives beyond this function.
						break
					}
					t := &arenaTracked{kind: kind, obj: obj, pos: call}
					locals = append(locals, t)
					byObj[obj] = t
				default:
					// s.arena = d.NewArenaTapped(...) — ownership stored
					// in a structure whose lifecycle owns the release.
				}
			}
		default:
			// Composite literal value, call argument, return value:
			// ownership transfers at birth.
		}
		return true
	})

	if len(locals) == 0 {
		return
	}

	// Pass 2: classify every use of each tracked variable.
	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if t := byObj[info.Uses[id]]; t != nil {
			classifyArenaUse(t, id, stack)
		}
		return true
	})

	for _, t := range locals {
		if t.deferred || t.escaped {
			continue
		}
		k := t.kind
		if t.inline {
			pass.Reportf(t.pos.Pos(), "%s %s is not deferred: a panic or early return before the inline %s leaks %s (use `defer a.%s()`, guarded by an ownership flag if the %s is handed off)",
				k.noun, k.release, k.release, k.leaks, k.release, k.noun)
		} else {
			pass.Reportf(t.pos.Pos(), "%s is never released and never escapes this function", k.noun)
		}
	}
}

// classifyArenaUse inspects one use of a tracked arena variable given its
// ancestor stack and updates the tracking flags.
func classifyArenaUse(t *arenaTracked, id *ast.Ident, stack []ast.Node) {
	if len(stack) == 0 {
		return
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		if p.X != ast.Expr(id) {
			return
		}
		// a.Method(...) or a.Method as a value.
		isCall := false
		if len(stack) >= 2 {
			if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == ast.Expr(p) {
				isCall = true
			}
		}
		if !isCall {
			// Method value escapes with the receiver inside it.
			t.escaped = true
			return
		}
		if p.Sel.Name != t.kind.release {
			return // other methods on the resource neither release nor escape
		}
		if hasAncestor(stack, func(n ast.Node) bool { _, ok := n.(*ast.DeferStmt); return ok }) {
			t.deferred = true
		} else {
			t.inline = true
		}
	case *ast.CallExpr:
		// Arena passed as an argument: ownership transferred.
		if p.Fun != ast.Expr(id) {
			t.escaped = true
		}
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.SendStmt, *ast.UnaryExpr:
		t.escaped = true
	case *ast.KeyValueExpr:
		if p.Value == ast.Expr(id) {
			t.escaped = true
		}
	case *ast.AssignStmt:
		for _, rhs := range p.Rhs {
			if rhs == ast.Expr(id) {
				// Aliased or stored somewhere else; assume the new owner
				// releases it.
				t.escaped = true
			}
		}
	}
}

// isArenaNew reports whether call invokes storage.Disk.NewArena or
// NewArenaTapped (matched by method name plus defining package and
// receiver type, so the analyzer works against both the real storage
// package and test fixtures).
func isArenaNew(info *types.Info, call *ast.CallExpr) (string, bool) {
	recv, name, ok := methodCall(info, call, "NewArena", "NewArenaTapped")
	if !ok || !namedFrom(recv, "internal/storage", "Disk") {
		return "", false
	}
	return "Disk." + name, true
}

// isRowStoreNew reports whether call invokes xsort's newRowStore, the one
// constructor of a sort's block-owning row store.
func isRowStoreNew(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok || fn.Name() != "newRowStore" || !pathWithin(pkgPathOf(fn), "internal/xsort") {
		return "", false
	}
	return "newRowStore", true
}

// isLocalVar reports whether obj is a variable declared inside body.
func isLocalVar(obj types.Object, body *ast.BlockStmt) bool {
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	return obj.Pos() >= body.Pos() && obj.Pos() <= body.End()
}
