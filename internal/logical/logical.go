// Package logical defines the logical query algebra the optimizer works on:
// scans, selections, projections, (outer) joins, grouping (duplicate
// elimination is grouping over every column), union and order-by. Each node
// derives an output schema and estimated properties (cardinality, width,
// per-column distinct counts) under the uniformity and independence
// assumptions of the paper's cost model (§3.2).
//
// Queries are built programmatically (the paper's workloads are fixed
// query shapes); the join order is taken as given — the paper optimizes
// sort-order choices for a fixed join tree, not join order.
package logical

import (
	"fmt"
	"strings"

	"pyro/internal/catalog"
	"pyro/internal/exec"
	"pyro/internal/expr"
	"pyro/internal/sortord"
	"pyro/internal/types"
)

// Node is a logical operator.
type Node interface {
	// Schema is the node's output schema.
	Schema() *types.Schema
	// Children returns input nodes (nil for leaves).
	Children() []Node
	// Props returns estimated output properties.
	Props() Props
	// describe returns the node's one-line description for tree rendering.
	describe() string
}

// Props carries derived estimates for a logical node's output.
type Props struct {
	Rows     int64            // estimated cardinality N(e)
	Width    int              // average tuple width in bytes
	Distinct map[string]int64 // per-column distinct estimates
	FDs      []FD             // exact functional dependencies (see fd.go)
}

// Blocks returns B(e) for a given page size.
func (p Props) Blocks(pageSize int) int64 {
	if p.Rows == 0 {
		return 0
	}
	perPage := int64(pageSize) / int64(p.Width)
	if perPage <= 0 {
		perPage = 1
	}
	b := p.Rows / perPage
	if p.Rows%perPage != 0 || b == 0 {
		b++
	}
	return b
}

// DistinctOn estimates D(e, attrs) with the independence assumption.
func (p Props) DistinctOn(attrs []string) int64 {
	st := catalog.Stats{NumRows: p.Rows, Distinct: p.Distinct}
	return st.DistinctOn(attrs)
}

// capDistinct clamps inherited distinct counts at the new row count.
func capDistinct(src map[string]int64, rows int64) map[string]int64 {
	out := make(map[string]int64, len(src))
	for k, v := range src {
		if v > rows {
			v = rows
		}
		out[k] = v
	}
	return out
}

// Scan is a base-table leaf.
type Scan struct {
	Table *catalog.Table
	props Props
}

// NewScan builds a scan leaf.
func NewScan(t *catalog.Table) *Scan {
	var fds []FD
	if len(t.Stats.KeyCols) > 0 {
		fds = append(fds, FD{
			Det: sortord.NewAttrSet(t.Stats.KeyCols...),
			Dep: t.Schema.AttrSet(),
		})
	}
	return &Scan{
		Table: t,
		props: Props{
			Rows:     t.Stats.NumRows,
			Width:    t.Schema.AvgTupleWidth(),
			Distinct: t.Stats.Distinct,
			FDs:      fds,
		},
	}
}

func (s *Scan) Schema() *types.Schema { return s.Table.Schema }
func (s *Scan) Children() []Node      { return nil }
func (s *Scan) Props() Props          { return s.props }
func (s *Scan) describe() string      { return "Scan " + s.Table.Name }

// Select filters its child by a predicate.
type Select struct {
	Child Node
	Pred  expr.Expr
	props Props
}

// NewSelect derives selectivity with textbook heuristics: equality against
// a constant contributes 1/D(col), other comparisons 1/3, conjuncts
// multiply, everything else 1/3.
func NewSelect(child Node, pred expr.Expr) *Select {
	cp := child.Props()
	sel := selectivity(pred, cp)
	rows := int64(float64(cp.Rows) * sel)
	if rows < 1 && cp.Rows > 0 {
		rows = 1
	}
	return &Select{
		Child: child,
		Pred:  pred,
		props: Props{Rows: rows, Width: cp.Width, Distinct: capDistinct(cp.Distinct, rows), FDs: cp.FDs},
	}
}

func selectivity(pred expr.Expr, cp Props) float64 {
	sel := 1.0
	for _, c := range expr.Conjuncts(pred) {
		sel *= conjunctSelectivity(c, cp)
	}
	return sel
}

func conjunctSelectivity(c expr.Expr, cp Props) float64 {
	cmp, ok := c.(expr.Cmp)
	if !ok {
		return 1.0 / 3
	}
	col, colOK := cmp.L.(expr.ColRef)
	_, constOK := cmp.R.(expr.Const)
	if !colOK || !constOK {
		// try reversed orientation
		if rc, rOK := cmp.R.(expr.ColRef); rOK {
			if _, lConst := cmp.L.(expr.Const); lConst {
				col, colOK, constOK = rc, true, true
			}
		}
	}
	if colOK && constOK && cmp.Op == expr.EQ {
		if d := cp.Distinct[col.Name]; d > 0 {
			return 1.0 / float64(d)
		}
		return 0.1
	}
	return 1.0 / 3
}

func (s *Select) Schema() *types.Schema { return s.Child.Schema() }
func (s *Select) Children() []Node      { return []Node{s.Child} }
func (s *Select) Props() Props          { return s.props }
func (s *Select) describe() string      { return "Select " + s.Pred.String() }

// ProjCol mirrors exec.ProjCol at the logical level.
type ProjCol struct {
	Name string
	Expr expr.Expr
}

// Project computes named output expressions.
type Project struct {
	Child  Node
	Cols   []ProjCol
	schema *types.Schema
	props  Props
}

// NewProject derives the projection schema; panics on unresolvable
// expressions (queries are assembled by code, so this is a bug, not input).
func NewProject(child Node, cols []ProjCol) *Project {
	outCols := make([]types.Column, len(cols))
	for i, c := range cols {
		kind := inferKindLogical(c.Expr, child.Schema())
		width := 8
		if ref, ok := c.Expr.(expr.ColRef); ok {
			j := child.Schema().MustOrdinal(ref.Name)
			width = child.Schema().Col(j).DefaultWidth()
		}
		outCols[i] = types.Column{Name: c.Name, Kind: kind, Width: width}
	}
	schema := types.NewSchema(outCols...)
	cp := child.Props()
	dist := make(map[string]int64, len(cols))
	rename := make(map[string]string)
	for _, c := range cols {
		if ref, ok := c.Expr.(expr.ColRef); ok {
			if _, taken := rename[ref.Name]; !taken {
				rename[ref.Name] = c.Name
			}
			if d, found := cp.Distinct[ref.Name]; found {
				dist[c.Name] = d
				continue
			}
		}
		dist[c.Name] = cp.Rows
	}
	fds := renameFDs(cp.FDs, rename)
	// A computed column is determined by its (projected) source columns.
	for _, c := range cols {
		if _, plain := c.Expr.(expr.ColRef); plain {
			continue
		}
		det := sortord.NewAttrSet()
		ok := true
		for src := range expr.Columns(c.Expr) {
			n, found := rename[src]
			if !found {
				ok = false
				break
			}
			det.Add(n)
		}
		if ok && !det.IsEmpty() {
			fds = append(fds, FD{Det: det, Dep: sortord.NewAttrSet(c.Name)})
		}
	}
	return &Project{
		Child: child, Cols: cols, schema: schema,
		props: Props{Rows: cp.Rows, Width: schema.AvgTupleWidth(), Distinct: dist, FDs: fds},
	}
}

// NewProjectNames projects existing columns by name.
func NewProjectNames(child Node, names []string) *Project {
	cols := make([]ProjCol, len(names))
	for i, n := range names {
		cols[i] = ProjCol{Name: n, Expr: expr.Col(n)}
	}
	return NewProject(child, cols)
}

func inferKindLogical(e expr.Expr, s *types.Schema) types.Kind {
	switch n := e.(type) {
	case expr.ColRef:
		return s.Col(s.MustOrdinal(n.Name)).Kind
	case expr.Const:
		return n.Value.Kind()
	case expr.Cmp, expr.And, expr.Or, expr.Not:
		return types.KindBool
	case expr.Arith:
		if inferKindLogical(n.L, s) == types.KindInt && inferKindLogical(n.R, s) == types.KindInt {
			return types.KindInt
		}
		return types.KindFloat
	default:
		return types.KindNull
	}
}

func (p *Project) Schema() *types.Schema { return p.schema }
func (p *Project) Children() []Node      { return []Node{p.Child} }
func (p *Project) Props() Props          { return p.props }
func (p *Project) describe() string {
	names := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		names[i] = c.Name
	}
	return "Project " + strings.Join(names, ", ")
}

// Join combines two inputs under a predicate. Only conjunctive equality
// predicates participate in merge/hash keys; residual conjuncts are applied
// after the join.
type Join struct {
	Left, Right Node
	Pred        expr.Expr
	Type        exec.JoinType
	// EquiPairs are the column=column conjuncts spanning the inputs; the
	// paper's join attribute set S is the pair list (canonical name: the
	// left column).
	EquiPairs []expr.EquiPair
	Residual  []expr.Expr
	schema    *types.Schema
	props     Props
}

// NewJoin derives the equijoin structure and estimates output cardinality
// as |L||R| / Π max(D_L(ai), D_R(ai)).
func NewJoin(left, right Node, pred expr.Expr, jt exec.JoinType) *Join {
	pairs, residual := expr.SplitJoinPredicate(pred, left.Schema(), right.Schema())
	lp, rp := left.Props(), right.Props()
	card := float64(lp.Rows) * float64(rp.Rows)
	for _, pr := range pairs {
		dl, dr := lp.Distinct[pr.Left], rp.Distinct[pr.Right]
		d := dl
		if dr > d {
			d = dr
		}
		if d > 0 {
			card /= float64(d)
		}
	}
	rows := int64(card)
	if jt == exec.FullOuterJoin || jt == exec.LeftOuterJoin {
		// Outer joins emit at least the preserved side(s).
		if rows < lp.Rows {
			rows = lp.Rows
		}
		if jt == exec.FullOuterJoin && rows < rp.Rows {
			rows = rp.Rows
		}
	}
	if rows < 1 && lp.Rows > 0 && rp.Rows > 0 {
		rows = 1
	}
	schema := left.Schema().Concat(right.Schema())
	dist := make(map[string]int64, len(lp.Distinct)+len(rp.Distinct))
	for k, v := range lp.Distinct {
		dist[k] = min64(v, rows)
	}
	for k, v := range rp.Distinct {
		dist[k] = min64(v, rows)
	}
	fds := append(append([]FD{}, lp.FDs...), rp.FDs...)
	if jt == exec.InnerJoin {
		// Equijoin equalities hold on every inner-join output row; outer
		// joins pad one side with NULLs, voiding the equality.
		fds = append(fds, equiPairFDs(pairs)...)
	}
	return &Join{
		Left: left, Right: right, Pred: pred, Type: jt,
		EquiPairs: pairs, Residual: residual, schema: schema,
		props: Props{Rows: rows, Width: lp.Width + rp.Width, Distinct: dist, FDs: fds},
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// JoinAttrSetLeft returns S in left-column names.
func (j *Join) JoinAttrSetLeft() sortord.AttrSet {
	s := sortord.NewAttrSet()
	for _, p := range j.EquiPairs {
		s.Add(p.Left)
	}
	return s
}

// JoinAttrSetRight returns S in right-column names.
func (j *Join) JoinAttrSetRight() sortord.AttrSet {
	s := sortord.NewAttrSet()
	for _, p := range j.EquiPairs {
		s.Add(p.Right)
	}
	return s
}

// RightName maps a left join column to its right-side pair name.
func (j *Join) RightName(left string) (string, bool) {
	for _, p := range j.EquiPairs {
		if p.Left == left {
			return p.Right, true
		}
	}
	return "", false
}

// LeftName maps a right join column to its left-side pair name.
func (j *Join) LeftName(right string) (string, bool) {
	for _, p := range j.EquiPairs {
		if p.Right == right {
			return p.Left, true
		}
	}
	return "", false
}

// CanonicalizeOrder rewrites an order over join columns (either side's
// names) into left-side names; non-join attributes pass through unchanged.
func (j *Join) CanonicalizeOrder(o sortord.Order) sortord.Order {
	out := make(sortord.Order, len(o))
	for i, a := range o {
		if l, ok := j.LeftName(a); ok {
			out[i] = l
		} else {
			out[i] = a
		}
	}
	return out.Dedup()
}

func (j *Join) Schema() *types.Schema { return j.schema }
func (j *Join) Children() []Node      { return []Node{j.Left, j.Right} }
func (j *Join) Props() Props          { return j.props }
func (j *Join) describe() string {
	return fmt.Sprintf("Join[%s] %s", j.Type, j.Pred)
}

// AggSpec mirrors exec.AggSpec at the logical level.
type AggSpec = exec.AggSpec

// GroupBy groups by columns and computes aggregates.
type GroupBy struct {
	Child     Node
	GroupCols []string
	Aggs      []AggSpec
	schema    *types.Schema
	props     Props
}

// NewGroupBy derives the aggregate output schema and D(child, groupCols)
// output cardinality.
func NewGroupBy(child Node, groupCols []string, aggs []AggSpec) *GroupBy {
	cp := child.Props()
	cols := make([]types.Column, 0, len(groupCols)+len(aggs))
	for _, g := range groupCols {
		cols = append(cols, child.Schema().Col(child.Schema().MustOrdinal(g)))
	}
	for _, a := range aggs {
		kind := types.KindFloat
		switch a.Func {
		case exec.AggCount:
			kind = types.KindInt
		case exec.AggSum, exec.AggMin, exec.AggMax:
			if a.Arg != nil {
				kind = inferKindLogical(a.Arg, child.Schema())
			}
		}
		cols = append(cols, types.Column{Name: a.Name, Kind: kind})
	}
	schema := types.NewSchema(cols...)
	rows := cp.DistinctOn(groupCols)
	if rows == 0 && cp.Rows > 0 {
		rows = 1
	}
	dist := make(map[string]int64, len(groupCols))
	for _, g := range groupCols {
		dist[g] = min64(cp.Distinct[g], rows)
	}
	for _, a := range aggs {
		dist[a.Name] = rows
	}
	outAttrs := schema.AttrSet()
	fds := restrictFDs(cp.FDs, outAttrs)
	// The group columns determine every aggregate output.
	fds = append(fds, FD{Det: sortord.NewAttrSet(groupCols...), Dep: outAttrs})
	return &GroupBy{
		Child: child, GroupCols: append([]string(nil), groupCols...), Aggs: aggs,
		schema: schema,
		props:  Props{Rows: rows, Width: schema.AvgTupleWidth(), Distinct: dist, FDs: fds},
	}
}

func (g *GroupBy) Schema() *types.Schema { return g.schema }
func (g *GroupBy) Children() []Node      { return []Node{g.Child} }
func (g *GroupBy) Props() Props          { return g.props }
func (g *GroupBy) describe() string {
	return "GroupBy " + strings.Join(g.GroupCols, ", ")
}

// Union is UNION ALL: it combines two union-compatible inputs and keeps
// duplicates. UNION is a GroupBy over every column above it.
type Union struct {
	Left, Right Node
	props       Props
}

// NewUnion builds a bag union.
func NewUnion(left, right Node) *Union {
	lp, rp := left.Props(), right.Props()
	rows := lp.Rows + rp.Rows
	dist := make(map[string]int64)
	for i, name := range left.Schema().Names() {
		rightName := right.Schema().Col(i).Name
		dist[name] = min64(lp.Distinct[name]+rp.Distinct[rightName], rows)
	}
	return &Union{
		Left: left, Right: right,
		props: Props{Rows: rows, Width: lp.Width, Distinct: dist},
	}
}

func (u *Union) Schema() *types.Schema { return u.Left.Schema() }
func (u *Union) Children() []Node      { return []Node{u.Left, u.Right} }
func (u *Union) Props() Props          { return u.props }
func (u *Union) describe() string      { return "UnionAll" }

// Limit caps the result at K rows. Combined with an order requirement this
// is the Top-K pattern of the paper's §7: with a pipelined partial sort
// below it, the first K results arrive without sorting the whole input.
type Limit struct {
	Child Node
	K     int64
	props Props
}

// NewLimit builds a row-count cap.
func NewLimit(child Node, k int64) *Limit {
	cp := child.Props()
	rows := cp.Rows
	if k < rows {
		rows = k
	}
	return &Limit{Child: child, K: k,
		props: Props{Rows: rows, Width: cp.Width, Distinct: capDistinct(cp.Distinct, rows), FDs: cp.FDs}}
}

func (l *Limit) Schema() *types.Schema { return l.Child.Schema() }
func (l *Limit) Children() []Node      { return []Node{l.Child} }
func (l *Limit) Props() Props          { return l.props }
func (l *Limit) describe() string      { return fmt.Sprintf("Limit %d", l.K) }

// OrderBy is the root-level sort requirement.
type OrderBy struct {
	Child Node
	Order sortord.Order
}

// NewOrderBy attaches a required output order.
func NewOrderBy(child Node, o sortord.Order) *OrderBy {
	return &OrderBy{Child: child, Order: o.Clone()}
}

func (o *OrderBy) Schema() *types.Schema { return o.Child.Schema() }
func (o *OrderBy) Children() []Node      { return []Node{o.Child} }
func (o *OrderBy) Props() Props          { return o.Child.Props() }
func (o *OrderBy) describe() string      { return "OrderBy " + o.Order.String() }

// Format renders the logical tree, one node per line.
func Format(n Node) string {
	var b strings.Builder
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.describe())
		b.WriteString("\n")
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}
