package lint

import (
	"go/ast"
	"go/types"
)

// AbortPoll checks that unbounded loops in the sort and execution engines
// poll the cancellation guard. The streaming contract (PR 4) promises that
// a context cancellation, a query deadline or an early cursor Close
// reaches the engine within a bounded amount of work; that promise holds
// only if every loop that can run for an input-sized number of iterations
// consults iter.Guard.Check (or invokes the iter.Binding.Abort poll directly).
//
// Scope: internal/xsort and internal/exec. Flagged loop shapes are the
// unbounded ones — `for { ... }` with no condition, and ranges over
// channels. A loop that is genuinely bounded (heap sift, fan-in scan) is
// annotated //pyro:bounded(reason); the driver rejects empty reasons and
// flags stale annotations.
var AbortPoll = &Analyzer{
	Name: "abortpoll",
	Doc: "unbounded loops in internal/xsort and internal/exec must poll the abort " +
		"guard (iter.Guard.Check / iter.Binding.Abort) or carry //pyro:bounded(reason)",
	Run: runAbortPoll,
}

func runAbortPoll(pass *Pass) error {
	if !pathWithin(pass.Path(), "internal/xsort") && !pathWithin(pass.Path(), "internal/exec") {
		return nil
	}
	info := pass.TypesInfo()
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				if loop.Init != nil || loop.Cond != nil || loop.Post != nil {
					return true // bounded by its condition clause
				}
				body = loop.Body
			case *ast.RangeStmt:
				tv, ok := info.Types[loop.X]
				if !ok {
					return true
				}
				if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
					return true // ranging over finite data
				}
				body = loop.Body
			default:
				return true
			}
			// Consume the annotation even when the loop also polls, so a
			// stale //pyro:bounded on a polling loop is not reported as
			// unattached (the poll is the stronger property).
			_, annotated := pass.Annotation(n.Pos(), "bounded")
			if annotated || pollsAbort(info, body) {
				return true
			}
			pass.Reportf(n.Pos(), "unbounded loop does not poll the abort guard: call iter.Guard.Check (or iter.Binding.Abort) in the loop body, or annotate //pyro:bounded(reason)")
			return true
		})
	}
	return nil
}

// pollsAbort reports whether the loop body contains a guard poll on a path
// that runs every iteration — a call to iter.Guard.Check or to an Abort
// field/method. Nested function literals are excluded: a poll inside a
// closure only helps if the closure runs, which the analyzer cannot
// assume.
func pollsAbort(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, name, ok := methodCall(info, call, "Check", "Abort"); ok {
			switch name {
			case "Check":
				if namedFrom(recv, "internal/iter", "Guard") {
					found = true
				}
			case "Abort":
				// b.Abort() — invoking the abort poll is itself a poll.
				found = true
			}
		}
		return true
	})
	return found
}
