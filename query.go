package pyro

import (
	"fmt"

	"pyro/internal/exec"
	"pyro/internal/expr"
	"pyro/internal/logical"
	"pyro/internal/sortord"
)

// Expr is a scalar expression in the public API.
type Expr = expr.Expr

// Col references a column by name.
func Col(name string) Expr { return expr.Col(name) }

// Int is an integer literal.
func Int(v int64) Expr { return expr.IntLit(v) }

// Float is a float literal.
func Float(v float64) Expr { return expr.FloatLit(v) }

// Str is a string literal.
func Str(v string) Expr { return expr.StrLit(v) }

// Eq builds l = r.
func Eq(l, r Expr) Expr { return expr.Eq(l, r) }

// Ne builds l <> r.
func Ne(l, r Expr) Expr { return expr.Compare(expr.NE, l, r) }

// Lt builds l < r.
func Lt(l, r Expr) Expr { return expr.Compare(expr.LT, l, r) }

// Le builds l <= r.
func Le(l, r Expr) Expr { return expr.Compare(expr.LE, l, r) }

// Gt builds l > r.
func Gt(l, r Expr) Expr { return expr.Compare(expr.GT, l, r) }

// Ge builds l >= r.
func Ge(l, r Expr) Expr { return expr.Compare(expr.GE, l, r) }

// And conjoins predicates.
func And(es ...Expr) Expr { return expr.AndOf(es...) }

// Or disjoins predicates.
func Or(es ...Expr) Expr { return expr.OrOf(es...) }

// Not negates a predicate.
func Not(e Expr) Expr { return expr.Not{Child: e} }

// Add, Sub, Mul, Div build arithmetic expressions.
func Add(l, r Expr) Expr { return expr.Arith{Op: expr.Add, L: l, R: r} }
func Sub(l, r Expr) Expr { return expr.Arith{Op: expr.Sub, L: l, R: r} }
func Mul(l, r Expr) Expr { return expr.Arith{Op: expr.Mul, L: l, R: r} }
func Div(l, r Expr) Expr { return expr.Arith{Op: expr.Div, L: l, R: r} }

// Agg describes one aggregate output column.
type Agg struct {
	Name string
	Func AggFunc
	Arg  Expr // nil for COUNT(*)
}

// AggFunc re-exports the aggregate functions.
type AggFunc = exec.AggFunc

// Aggregate functions.
const (
	Count = exec.AggCount
	Sum   = exec.AggSum
	Min   = exec.AggMin
	Max   = exec.AggMax
	Avg   = exec.AggAvg
)

// Proj is one projected output column.
type Proj struct {
	Name string
	Expr Expr
}

// Query is an immutable logical query under construction. Builder methods
// return new queries; the first error sticks and is reported by Optimize.
type Query struct {
	db   *Database
	node logical.Node
	err  error
}

// Scan starts a query from a base table.
func (db *Database) Scan(table string) *Query {
	tb, err := db.cat.Table(table)
	if err != nil {
		return &Query{db: db, err: err}
	}
	return &Query{db: db, node: logical.NewScan(tb)}
}

func (q *Query) fail(err error) *Query {
	return &Query{db: q.db, err: err}
}

// Err returns the first construction error, if any.
func (q *Query) Err() error { return q.err }

// Filter applies a predicate.
func (q *Query) Filter(pred Expr) *Query {
	if q.err != nil {
		return q
	}
	return &Query{db: q.db, node: logical.NewSelect(q.node, pred)}
}

// Project computes output columns.
func (q *Query) Project(cols ...Proj) *Query {
	if q.err != nil {
		return q
	}
	pc := make([]logical.ProjCol, len(cols))
	for i, c := range cols {
		pc[i] = logical.ProjCol{Name: c.Name, Expr: c.Expr}
	}
	return &Query{db: q.db, node: logical.NewProject(q.node, pc)}
}

// Select projects existing columns by name.
func (q *Query) Select(names ...string) *Query {
	if q.err != nil {
		return q
	}
	for _, n := range names {
		if !q.node.Schema().Has(n) {
			return q.fail(fmt.Errorf("pyro: column %q not in %v", n, q.node.Schema().Names()))
		}
	}
	return &Query{db: q.db, node: logical.NewProjectNames(q.node, names)}
}

// As prefixes every column name — the query-builder equivalent of a SQL
// table alias, needed for self-joins.
func (q *Query) As(prefix string) *Query {
	if q.err != nil {
		return q
	}
	schema := q.node.Schema()
	cols := make([]logical.ProjCol, schema.Len())
	for i := 0; i < schema.Len(); i++ {
		n := schema.Col(i).Name
		cols[i] = logical.ProjCol{Name: prefix + n, Expr: expr.Col(n)}
	}
	return &Query{db: q.db, node: logical.NewProject(q.node, cols)}
}

// Join builds an inner join with the given predicate.
func (q *Query) Join(other *Query, on Expr) *Query {
	return q.join(other, on, exec.InnerJoin)
}

// LeftOuterJoin preserves unmatched left rows.
func (q *Query) LeftOuterJoin(other *Query, on Expr) *Query {
	return q.join(other, on, exec.LeftOuterJoin)
}

// FullOuterJoin preserves unmatched rows from both sides. Join-key columns
// of padded rows are coalesced (USING semantics) so merge plans keep their
// sort orders; see the engine documentation.
func (q *Query) FullOuterJoin(other *Query, on Expr) *Query {
	return q.join(other, on, exec.FullOuterJoin)
}

func (q *Query) join(other *Query, on Expr, jt exec.JoinType) *Query {
	if q.err != nil {
		return q
	}
	if other.err != nil {
		return q.fail(other.err)
	}
	if q.db != other.db {
		return q.fail(fmt.Errorf("pyro: cannot join queries from different databases"))
	}
	return &Query{db: q.db, node: logical.NewJoin(q.node, other.node, on, jt)}
}

// GroupBy aggregates over the given grouping columns.
func (q *Query) GroupBy(cols []string, aggs ...Agg) *Query {
	if q.err != nil {
		return q
	}
	for _, c := range cols {
		if !q.node.Schema().Has(c) {
			return q.fail(fmt.Errorf("pyro: group column %q not in %v", c, q.node.Schema().Names()))
		}
	}
	specs := make([]logical.AggSpec, len(aggs))
	for i, a := range aggs {
		specs[i] = logical.AggSpec{Name: a.Name, Func: a.Func, Arg: a.Arg}
	}
	return &Query{db: q.db, node: logical.NewGroupBy(q.node, cols, specs)}
}

// Distinct eliminates duplicate rows. It is a GROUP BY over every column
// with no aggregates, so it is planned and run as one: a sort-based or a
// hash-based aggregate.
func (q *Query) Distinct() *Query {
	if q.err != nil {
		return q
	}
	return &Query{db: q.db, node: logical.NewGroupBy(q.node, q.node.Schema().Names(), nil)}
}

// Union combines two queries, eliminating duplicates: DISTINCT over UNION
// ALL.
func (q *Query) Union(other *Query) *Query { return q.UnionAll(other).Distinct() }

// UnionAll combines two queries, keeping duplicates.
func (q *Query) UnionAll(other *Query) *Query {
	if q.err != nil {
		return q
	}
	if other.err != nil {
		return q.fail(other.err)
	}
	ls, rs := q.node.Schema(), other.node.Schema()
	if ls.Len() != rs.Len() {
		return q.fail(fmt.Errorf("pyro: union arity mismatch: %d vs %d", ls.Len(), rs.Len()))
	}
	return &Query{db: q.db, node: logical.NewUnion(q.node, other.node)}
}

// OrderBy requires the output sorted on the given columns.
func (q *Query) OrderBy(cols ...string) *Query {
	if q.err != nil {
		return q
	}
	for _, c := range cols {
		if !q.node.Schema().Has(c) {
			return q.fail(fmt.Errorf("pyro: order column %q not in %v", c, q.node.Schema().Names()))
		}
	}
	return &Query{db: q.db, node: logical.NewOrderBy(q.node, sortord.New(cols...))}
}

// Limit caps the result at k rows. Placed above OrderBy this is the Top-K
// pattern: with a pipelined partial sort below, the first k results arrive
// without sorting the whole input (§3.1 benefit 2 / §7 of the paper). The
// optimizer plans the subtree under a row budget of k — candidates are
// compared by the cost of their first k rows, so a small k flips blocking
// full-sort/hash plans to pipelined partial-sort ones — and the executor's
// Limit operator closes its input the moment the k-th row is out,
// abandoning unsorted segments and unread spill runs without waiting for
// the consumer.
//
// k must be non-negative. k = 0 has defined semantics: a valid query with
// an empty result, planned at zero cost with no child pipeline at all (no
// degenerate sort is built or opened).
func (q *Query) Limit(k int64) *Query {
	if q.err != nil {
		return q
	}
	if k < 0 {
		return q.fail(fmt.Errorf("pyro: negative limit %d", k))
	}
	return &Query{db: q.db, node: logical.NewLimit(q.node, k)}
}

// LogicalString renders the logical tree (debugging aid).
func (q *Query) LogicalString() string {
	if q.err != nil {
		return "error: " + q.err.Error()
	}
	return logical.Format(q.node)
}
