package core

import (
	"fmt"

	"pyro/internal/exec"
	"pyro/internal/iter"
	"pyro/internal/storage"
	"pyro/internal/types"
	"pyro/internal/xsort"
)

// BuildConfig carries the execution resources for compiling a plan.
type BuildConfig struct {
	Disk *storage.Disk
	// SortMemoryBlocks is M, the static memory budget of every sort and of
	// a nested-loops join's outer block; it must be positive. Under a live
	// Query.Budget, Build takes M as the budget's value at build time when
	// that is lower, which also fixes what is structural — a merge's fan-in.
	SortMemoryBlocks int
	// SortParallelism bounds concurrent MRS segment sorts per enforcer
	// (0 = GOMAXPROCS, 1 = serial).
	SortParallelism int
	// Query is the query's run-time binding — its context's abort, its I/O
	// tap, its governor grant as the live budget — which Build hands to the
	// tree through exec.Bind. The zero value builds an unbound tree: no
	// abort, no tap, the static budget.
	Query iter.Binding
}

// Build compiles a physical plan into an executable operator tree.
func Build(p *Plan, cfg BuildConfig) (exec.Operator, error) {
	if cfg.Disk == nil {
		return nil, fmt.Errorf("core: BuildConfig.Disk is nil")
	}
	cfg.SortMemoryBlocks = cfg.Query.MemoryBlocks(cfg.SortMemoryBlocks)
	root, err := build(p, cfg)
	if err != nil {
		return nil, err
	}
	exec.Bind(root, cfg.Query)
	return root, nil
}

func build(p *Plan, cfg BuildConfig) (exec.Operator, error) {
	children := make([]exec.Operator, len(p.Children))
	for i, c := range p.Children {
		op, err := build(c, cfg)
		if err != nil {
			return nil, err
		}
		children[i] = op
	}
	xcfg := xsort.Config{
		Disk:         cfg.Disk,
		MemoryBlocks: cfg.SortMemoryBlocks,
		Parallelism:  cfg.SortParallelism,
		BatchSize:    types.DefaultChunkCapacity,
		Limit:        p.Sort.Limit,
	}

	switch p.Kind {
	case OpTableScan:
		return exec.NewTableScan(p.Table), nil
	case OpIndexScan:
		return exec.NewIndexScan(p.Index), nil
	case OpFilter:
		return exec.NewFilter(children[0], p.Pred)
	case OpProject:
		cols := make([]exec.ProjCol, len(p.Cols))
		for i, c := range p.Cols {
			cols[i] = exec.ProjCol{Name: c.Name, Expr: c.Expr}
		}
		return exec.NewProject(children[0], cols)
	case OpSort:
		return exec.NewSortMRS(children[0], p.SortTarget, p.SortGiven, xcfg)
	case OpMergeJoin:
		return exec.NewMergeJoin(children[0], children[1], p.LeftKey, p.RightKey, p.JoinType)
	case OpHashJoin:
		return exec.NewHashJoin(children[0], children[1], p.LeftKeys, p.RightKeys, p.JoinType)
	case OpNLJoin:
		return exec.NewNLJoin(children[0], children[1], p.Pred, p.JoinType, cfg.Disk, cfg.SortMemoryBlocks)
	case OpGroupAgg:
		return exec.NewGroupAggregate(children[0], p.GroupCols, p.Aggs)
	case OpHashAgg:
		return exec.NewHashAggregate(children[0], p.GroupCols, p.Aggs)
	case OpMergeUnion:
		return exec.NewMergeUnion(children[0], children[1], p.UnionOrder)
	case OpUnionAll:
		return exec.NewUnionAll(children[0], children[1])
	case OpLimit:
		if len(children) == 0 {
			// LIMIT 0: planned without a child (defined semantics — an
			// empty result at zero cost), compiled to an empty leaf so no
			// degenerate sort pipeline is ever built or opened.
			return exec.NewValues(p.Schema, nil)
		}
		return exec.NewLimit(children[0], p.LimitK)
	case OpFetch:
		return exec.NewFetch(children[0], p.Table, p.FetchKeys)
	default:
		return nil, fmt.Errorf("core: cannot build operator for %v", p.Kind)
	}
}
