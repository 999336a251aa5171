// Package exec implements the demand-driven execution engine: scans over
// tables and covering indices, filters, projections, sort enforcers
// (standard and partial-order-exploiting), merge and hash joins, merge full
// outer join, nested-loops join, sort- and hash-based aggregation (which
// are also DISTINCT and UNION: a group-by over every column), merge and
// concatenating union, deferred fetch and limit.
//
// Every operator implements one protocol, iter.Iterator: NextChunk fills the
// chunk its consumer hands it, and sizes the chunks it pulls from its own
// inputs from that chunk's capacity — except a Sort, which reads its input
// before it is asked for output and pulls it in chunks of its
// xsort.Config.BatchSize. A NextChunk does the work its first row
// needs and, for the rest, only free work — once its chunk holds a row an
// operator stops before pulling a child chunk, reading a page, collecting a
// sort segment or fetching a row — so a consumer that stops mid-stream has
// done the I/O a consumer pulling one row at a time would have done. Next is
// a row view derived from NextChunk (rowView), for callers that read rows.
//
// A query's run-time state — its context's abort, its I/O tap, its live
// memory budget (iter.Binding) — reaches the tree in one walk, Bind, before
// Open; an operator built and run without it never aborts, taps nothing and
// holds its static budget.
//
// Operators carry the schema of the tuples they produce. Physical
// properties (the sort order an operator guarantees) are tracked by the
// optimizer, not the operators; operators that require sorted inputs
// document the requirement and the optimizer's plan builder is responsible
// for satisfying it.
package exec

import (
	"pyro/internal/expr"
	"pyro/internal/iter"
	"pyro/internal/types"
)

// Operator is an executable chunk iterator with a known output schema.
type Operator interface {
	iter.Iterator
	Schema() *types.Schema
	// Next lends the next row, valid until the next call (rowView).
	Next() (types.Tuple, bool, error)
}

// inferKind derives the result kind of a scalar expression against a schema,
// used to type aggregate and projection output columns.
func inferKind(e expr.Expr, s *types.Schema) types.Kind {
	switch n := e.(type) {
	case expr.ColRef:
		if i, ok := s.Ordinal(n.Name); ok {
			return s.Col(i).Kind
		}
		return types.KindNull
	case expr.Const:
		return n.Value.Kind()
	case expr.Cmp:
		return types.KindBool
	case expr.And, expr.Or, expr.Not:
		return types.KindBool
	case expr.Arith:
		lk, rk := inferKind(n.L, s), inferKind(n.R, s)
		if lk == types.KindInt && rk == types.KindInt {
			return types.KindInt
		}
		return types.KindFloat
	default:
		return types.KindNull
	}
}

// posZero is +0.0 as a one-column tuple: the key every float zero hashes as.
var posZero = types.Tuple{types.NewFloat(0)}

// appendHashKey appends the hash-table key of t's columns ords to buf: their
// Tuple.Encode bytes, with -0.0 written as +0.0. Datum.Compare and the sort
// key (keys.appendFloat) treat the two zeros as equal, so a hash plan must
// too, or a hash and a sort plan of one grouping or join disagree.
func appendHashKey(buf []byte, t types.Tuple, ords []int) []byte {
	for _, o := range ords {
		if d := t[o]; d.Kind() == types.KindFloat && d.Float() == 0 {
			buf = posZero.Encode(buf)
			continue
		}
		buf = t[o : o+1].Encode(buf)
	}
	return buf
}

// Drain pulls all tuples from an operator (helper for tests and tools).
func Drain(op Operator) ([]types.Tuple, error) {
	return iter.Drain(op, op.Schema().Len())
}

// Bind hands one query's binding to its operator tree, and is the one place
// that knows which operator takes which part of it:
//   - the abort, through a strided iter.Guard, to every loop that can
//     outlive one NextChunk — a filter rejecting every row, a hash build or
//     ingest, a giant group, a merge join or union over disjoint keys, a
//     nested-loops spool, a fetch — since the cursor checks its context only
//     between calls;
//   - the tap to every operator that charges I/O: scans, fetches, the
//     nested-loops spool and the sorts' spill arenas;
//   - the live budget to the sorts' row stores and the nested-loops join's
//     outer block.
//
// A sort takes all three through xsort.MRS.Bind. Must be called before Open;
// an unbound tree never aborts, taps nothing and holds its static budgets.
func Bind(root Operator, b iter.Binding) {
	guard := iter.NewGuard(b.Abort)
	Walk(root, func(op Operator) {
		switch o := op.(type) {
		case *TableScan:
			o.SetIOTap(b.Tap)
		case *IndexScan:
			o.tap = b.Tap
		case *Fetch:
			o.tap, o.guard = b.Tap, guard
		case *NLJoin:
			o.bind, o.guard = b, guard
		case *Sort:
			o.impl.Bind(b)
		case *Filter:
			o.guard = guard
		case *HashJoin:
			o.guard = guard
		case *HashAggregate:
			o.guard = guard
		case *GroupAggregate:
			o.guard = guard
		case *MergeJoin:
			o.guard = guard
		case *MergeUnion:
			o.guard = guard
		}
	})
}

// Children returns the operator's direct inputs, left to right, or nil for
// a leaf. Every operator in this package implements the underlying
// Children() method; operators from outside (test doubles) are treated as
// leaves rather than breaking the walk.
func Children(op Operator) []Operator {
	if p, ok := op.(interface{ Children() []Operator }); ok {
		return p.Children()
	}
	return nil
}

// Walk visits op and all its descendants in pre-order (parent before
// children, left subtree before right) — the same order Plan.Format lists
// operators, so positions line up with an Explain rendering.
func Walk(op Operator, visit func(Operator)) {
	if op == nil {
		return
	}
	visit(op)
	for _, c := range Children(op) {
		Walk(c, visit)
	}
}

// CollectSorts returns every sort enforcer in the tree in pre-order. The
// streaming cursor uses it to expose per-query SortStats without the
// operators having to push counters anywhere.
func CollectSorts(root Operator) []*Sort {
	var sorts []*Sort
	Walk(root, func(op Operator) {
		if s, ok := op.(*Sort); ok {
			sorts = append(sorts, s)
		}
	})
	return sorts
}
