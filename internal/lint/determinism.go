package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Determinism keeps the planner and sort engine bit-reproducible. The
// bench gate diffs deterministic work counters (comparisons, radix passes,
// page I/O) against a checked-in baseline, golden tests pin run/pass
// structure across parallelism levels, and plan choice must not depend on
// anything but the query and the catalog. Three nondeterminism sources are
// banned in internal/core, internal/cost and internal/xsort:
//
//   - time.Now / time.Since: wall-clock feeding a decision or a counter
//   - math/rand (and rand/v2): unseeded or globally seeded randomness
//   - ranging over a map: iteration order varies run to run; iterate
//     sorted keys instead, or annotate //pyro:unordered(reason) when the
//     loop provably cannot influence counters or plan choice (for
//     example, it only drains resources)
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "no time.Now, math/rand or map-iteration-order dependence in internal/core, " +
		"internal/cost, internal/xsort: counters and plan choice must be bit-reproducible",
	Run: runDeterminism,
}

// determinismScope lists the packages whose outputs feed the pinned work
// counters or plan choice.
var determinismScope = []string{"internal/core", "internal/cost", "internal/xsort"}

func runDeterminism(pass *Pass) error {
	scoped := false
	for _, s := range determinismScope {
		if pathWithin(pass.Path(), s) {
			scoped = true
			break
		}
	}
	if !scoped {
		return nil
	}
	info := pass.TypesInfo()
	for _, file := range pass.Files() {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s in a determinism-scoped package: randomness would make the gated counters and plan choice irreproducible", path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.CallExpr:
				obj := calleeObject(info, stmt)
				if obj != nil && pkgPathOf(obj) == "time" && (obj.Name() == "Now" || obj.Name() == "Since") {
					pass.Reportf(stmt.Pos(), "time.%s in a determinism-scoped package: wall-clock must not feed counters or plan choice (measure in the harness or cursor layer instead)", obj.Name())
				}
			case *ast.RangeStmt:
				tv, ok := info.Types[stmt.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if _, annotated := pass.Annotation(stmt.Pos(), "unordered"); annotated {
					return true
				}
				pass.Reportf(stmt.Pos(), "map iteration order is nondeterministic: iterate key-sorted (collect keys, sort, range the slice) or annotate //pyro:unordered(reason) if the loop cannot influence counters or plan choice")
			}
			return true
		})
	}
	return nil
}
