package core

import (
	"fmt"

	"pyro/internal/exec"
	"pyro/internal/storage"
	"pyro/internal/types"
	"pyro/internal/xsort"
)

// BuildConfig carries the execution resources for compiling a plan.
type BuildConfig struct {
	Disk *storage.Disk
	// SortMemoryBlocks is the per-sort memory budget (M).
	SortMemoryBlocks int
	// SortParallelism bounds concurrent MRS segment sorts per enforcer
	// (0 = GOMAXPROCS, 1 = serial).
	SortParallelism int
	// SortAbort, when non-nil, is polled by the sort enforcers'
	// long-running loops (input consumption, segment collection, spill
	// merges); its first error aborts the enforcer, which surfaces it from
	// Open or NextChunk. Streaming execution supplies the query context's Err
	// here so a cancellation reaches a sort that would otherwise block for
	// its entire input. Must be safe for concurrent use.
	SortAbort func() error
	// IOTap, when non-nil, receives a copy of every I/O charge this plan's
	// operators cause — scans, deferred fetches, nested-loops spools, and
	// sort spill arenas all charge it alongside the device ledger. The
	// streaming cursor hands each query its own tap, so concurrent queries
	// on one Database get exact, disjoint I/O attribution instead of
	// overlapping windows over the shared device counters.
	IOTap *storage.Tap
	// SortBudget, when non-nil, is the query's live sort-memory allowance:
	// every sort enforcer re-reads it at its buffering decisions, so a
	// global governor can shrink a running query's memory and its sorts
	// spill at the new bound. SortMemoryBlocks still fixes the structural
	// decisions (merge fan-in) and should be set to the allowance's initial
	// value. Nil means the static SortMemoryBlocks budget.
	SortBudget xsort.Budget
}

// Build compiles a physical plan into an executable operator tree.
func Build(p *Plan, cfg BuildConfig) (exec.Operator, error) {
	if cfg.Disk == nil {
		return nil, fmt.Errorf("core: BuildConfig.Disk is nil")
	}
	if cfg.SortMemoryBlocks <= 0 {
		cfg.SortMemoryBlocks = 1000
	}
	root, err := build(p, cfg)
	if err != nil {
		return nil, err
	}
	// Sort enforcers receive the abort hook through xsort.Config.Abort;
	// every other operator whose tuple loops can outlive a NextChunk call
	// (filters, joins, aggregates, unions) polls the same hook through its
	// own strided guard.
	exec.InstallAbort(root, cfg.SortAbort)
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
		Budget:       cfg.SortBudget,
		Parallelism:  cfg.SortParallelism,
		Abort:        cfg.SortAbort,
		Tap:          cfg.IOTap,
		BatchSize:    types.DefaultChunkCapacity,
		Limit:        p.SortLimit,
	}

	switch p.Kind {
	case OpTableScan:
		scan := exec.NewTableScan(p.Table)
		scan.SetIOTap(cfg.IOTap)
		return scan, nil
	case OpIndexScan:
		scan := exec.NewIndexScan(p.Index)
		scan.SetIOTap(cfg.IOTap)
		return scan, nil
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
		nl, err := exec.NewNLJoin(children[0], children[1], p.Pred, p.JoinType, cfg.Disk, cfg.SortMemoryBlocks)
		if err != nil {
			return nil, err
		}
		nl.SetIOTap(cfg.IOTap)
		return nl, nil
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
		fetch, err := exec.NewFetch(children[0], p.Table, p.FetchKeys)
		if err != nil {
			return nil, err
		}
		fetch.SetIOTap(cfg.IOTap)
		return fetch, nil
	default:
		return nil, fmt.Errorf("core: cannot build operator for %v", p.Kind)
	}
}
