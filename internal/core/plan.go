// Package core implements PYRO, the Volcano-style cost-based optimizer with
// the paper's extensions: partial-sort enforcers (§3.2), favorable-order
// driven interesting-order selection (§5.2.1, phase 1) and post-optimization
// plan refinement via the 2-approximate tree algorithm (§5.2.2, phase 2).
//
// The optimizer takes a logical tree (join order fixed, as in the paper),
// a heuristic variant (PYRO, PYRO-O⁻, PYRO-P, PYRO-O, PYRO-E) and a cost
// model, and produces a physical Plan annotated with guaranteed sort
// orders and estimated costs. Plans can be rendered for inspection and
// compiled to executable operator trees.
package core

import (
	"fmt"
	"strings"

	"pyro/internal/catalog"
	"pyro/internal/cost"
	"pyro/internal/exec"
	"pyro/internal/expr"
	"pyro/internal/logical"
	"pyro/internal/sortord"
	"pyro/internal/types"
)

// OpKind enumerates physical operators.
type OpKind uint8

// Physical operator kinds.
const (
	OpTableScan OpKind = iota
	OpIndexScan
	OpFilter
	OpProject
	OpSort
	OpMergeJoin
	OpHashJoin
	OpNLJoin
	OpGroupAgg
	OpHashAgg
	OpMergeUnion
	OpUnionAll
	OpLimit
	OpFetch
)

func (k OpKind) String() string {
	switch k {
	case OpTableScan:
		return "TableScan"
	case OpIndexScan:
		return "CoveringIndexScan"
	case OpFilter:
		return "Filter"
	case OpProject:
		return "Project"
	case OpSort:
		return "Sort"
	case OpMergeJoin:
		return "MergeJoin"
	case OpHashJoin:
		return "HashJoin"
	case OpNLJoin:
		return "NestedLoopsJoin"
	case OpGroupAgg:
		return "GroupAggregate"
	case OpHashAgg:
		return "HashAggregate"
	case OpMergeUnion:
		return "MergeUnion"
	case OpUnionAll:
		return "UnionAll"
	case OpLimit:
		return "Limit"
	case OpFetch:
		return "Fetch"
	}
	return fmt.Sprintf("Op(%d)", uint8(k))
}

// Plan is a physical plan node. Cost is cumulative (node + inputs) and
// two-phase: Cost.Startup is the blocking work before this node's first
// output row, Cost.Total the full-drain cost (the scalar the pre-prefix
// model reported). OutOrder is the sort order the node guarantees on its
// output.
type Plan struct {
	Kind     OpKind
	Children []*Plan

	// Operator parameters (fields used depend on Kind).
	Table      *catalog.Table
	Index      *catalog.Index
	Pred       expr.Expr
	Cols       []logical.ProjCol
	SortTarget sortord.Order // OpSort: order to produce
	SortGiven  sortord.Order // OpSort: known input prefix (ε => full sort)
	LeftKey    sortord.Order // OpMergeJoin
	RightKey   sortord.Order // OpMergeJoin
	LeftKeys   []string      // OpHashJoin
	RightKeys  []string      // OpHashJoin
	JoinType   exec.JoinType
	GroupCols  []string
	Aggs       []exec.AggSpec
	UnionOrder sortord.Order // OpMergeUnion
	LimitK     int64         // OpLimit
	FetchKeys  []string      // OpFetch: child columns carrying the cluster key
	// Sort is an OpSort's price: its segment count D, estimated from the
	// given prefix, and its row bound. The bound is set only for a sort a
	// Limit reads directly or through order- and cardinality-preserving
	// nodes (Project): nobody will ever read past its first Sort.Limit rows,
	// so Build hands it to the enforcer as xsort.Config.Limit and the node
	// is priced, and counted in Rows, as the bounded sort it runs as. A
	// row-target hint never sets it — that consumer may read on.
	Sort cost.SortPrice

	// Derived annotations.
	Schema   *types.Schema
	OutOrder sortord.Order
	Rows     int64
	Blocks   int64
	Cost     cost.Cost
	// Logical links the plan node back to the logical node it implements
	// (nil for enforcers injected by the optimizer).
	Logical logical.Node
}

// PrefixCost estimates the cost of producing this node's first k output
// rows. A sort enforcer's is its price's (cost.SortPrice.PrefixCost), which
// steps one segment sort at a time through a partial sort — the §3.1
// pipelining benefit the two-phase model exists to price; a Limit adds no
// work to its child's first K rows, so its prefix is the child's; every
// other node interpolates its cumulative Cost. PrefixCost(k ≥ Rows) equals
// Cost.Total, so unlimited plan comparisons are exactly the full-drain
// comparisons of the scalar model.
func (p *Plan) PrefixCost(k int64) float64 {
	switch p.Kind {
	case OpSort:
		in := p.Children[0]
		return p.Sort.PrefixCost(k, in.Cost, in.PrefixCost)
	case OpLimit:
		if len(p.Children) == 1 { // LIMIT 0 is planned without a child
			return p.Children[0].PrefixCost(min(k, p.LimitK))
		}
	}
	return p.Cost.Prefix(k)
}

// IsPartialSort reports whether p is a partial-sort enforcer.
func (p *Plan) IsPartialSort() bool {
	return p.Kind == OpSort && !p.SortGiven.IsEmpty()
}

// Walk visits the plan tree pre-order.
func (p *Plan) Walk(fn func(*Plan)) {
	fn(p)
	for _, c := range p.Children {
		c.Walk(fn)
	}
}

// CountKind returns the number of nodes of the given kind in the tree.
func (p *Plan) CountKind(k OpKind) int {
	n := 0
	p.Walk(func(q *Plan) {
		if q.Kind == k {
			n++
		}
	})
	return n
}

// describe renders the node's single-line summary.
func (p *Plan) describe() string {
	var b strings.Builder
	b.WriteString(p.Kind.String())
	switch p.Kind {
	case OpTableScan:
		fmt.Fprintf(&b, " %s", p.Table.Name)
	case OpIndexScan:
		fmt.Fprintf(&b, " %s.%s %v", p.Index.Table.Name, p.Index.Name, p.Index.KeyOrder)
	case OpFilter:
		fmt.Fprintf(&b, " [%s]", p.Pred)
	case OpProject:
		names := make([]string, len(p.Cols))
		for i, c := range p.Cols {
			names[i] = c.Name
		}
		fmt.Fprintf(&b, " [%s]", strings.Join(names, ", "))
	case OpSort:
		if p.IsPartialSort() {
			fmt.Fprintf(&b, "(partial) %v -> %v", p.SortGiven, p.SortTarget)
		} else {
			fmt.Fprintf(&b, " %v", p.SortTarget)
		}
		if p.Sort.Limit > 0 {
			fmt.Fprintf(&b, " limit=%d", p.Sort.Limit)
		}
	case OpMergeJoin:
		fmt.Fprintf(&b, "[%s] %v = %v", p.JoinType, p.LeftKey, p.RightKey)
	case OpHashJoin:
		fmt.Fprintf(&b, "[%s] %v = %v", p.JoinType, p.LeftKeys, p.RightKeys)
	case OpNLJoin:
		fmt.Fprintf(&b, "[%s]", p.JoinType)
		if p.Pred != nil {
			fmt.Fprintf(&b, " [%s]", p.Pred)
		}
	case OpGroupAgg, OpHashAgg:
		fmt.Fprintf(&b, " by (%s)", strings.Join(p.GroupCols, ", "))
	case OpMergeUnion:
		fmt.Fprintf(&b, " on %v", p.UnionOrder)
	case OpLimit:
		fmt.Fprintf(&b, " %d", p.LimitK)
	case OpFetch:
		fmt.Fprintf(&b, " %s via %v", p.Table.Name, p.FetchKeys)
	}
	return b.String()
}

// Format renders the plan tree with costs, cardinalities and orders — the
// representation used to reproduce the paper's plan figures (10, 11, 14).
// Both cost phases are printed: cost is the full-drain total, startup the
// blocking work before the node's first output row (a pipelined plan shows
// a startup far below its cost; a blocking plan shows them equal).
func (p *Plan) Format() string {
	var b strings.Builder
	var rec func(n *Plan, depth int)
	rec = func(n *Plan, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s  (cost=%.0f startup=%.0f rows=%d", n.describe(), n.Cost.Total, n.Cost.Startup, n.Rows)
		if !n.OutOrder.IsEmpty() {
			fmt.Fprintf(&b, " order=%v", n.OutOrder)
		}
		b.WriteString(")\n")
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(p, 0)
	return b.String()
}

// Signature returns a compact structural fingerprint (operator kinds in
// pre-order), useful for asserting plan shapes in tests.
func (p *Plan) Signature() string {
	var parts []string
	p.Walk(func(q *Plan) {
		s := q.Kind.String()
		if q.IsPartialSort() {
			s = "PartialSort"
		}
		parts = append(parts, s)
	})
	return strings.Join(parts, ">")
}
