package exec

import (
	"fmt"

	"pyro/internal/expr"
	"pyro/internal/iter"
	"pyro/internal/types"
)

// AggFunc enumerates aggregate functions.
type AggFunc uint8

const (
	// AggCount counts non-NULL argument values; with a nil argument it
	// counts rows (COUNT(*)).
	AggCount AggFunc = iota
	// AggSum sums numeric arguments.
	AggSum
	// AggMin takes the minimum argument.
	AggMin
	// AggMax takes the maximum argument.
	AggMax
	// AggAvg averages numeric arguments.
	AggAvg
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	}
	return "?"
}

// AggSpec is one aggregate output column.
type AggSpec struct {
	Name string
	Func AggFunc
	Arg  expr.Expr // nil for COUNT(*)
}

// accumulator folds datums for one (group, aggregate) pair.
type accumulator struct {
	fn       AggFunc
	count    int64
	sumInt   int64
	sumFloat float64
	sawFloat bool
	minMax   types.Datum
	seen     bool
}

func (a *accumulator) add(v types.Datum) {
	if v.IsNull() {
		return
	}
	a.count++
	switch a.fn {
	case AggSum, AggAvg:
		if v.Kind() == types.KindFloat {
			a.sawFloat = true
			a.sumFloat += v.Float()
		} else {
			a.sumInt += v.Int()
		}
	case AggMin:
		if !a.seen || v.Compare(a.minMax) < 0 {
			a.minMax = v
		}
	case AggMax:
		if !a.seen || v.Compare(a.minMax) > 0 {
			a.minMax = v
		}
	}
	a.seen = true
}

func (a *accumulator) addRow() { a.count++ } // COUNT(*)

func (a *accumulator) result() types.Datum {
	switch a.fn {
	case AggCount:
		return types.NewInt(a.count)
	case AggSum:
		if !a.seen {
			return types.Null
		}
		if a.sawFloat {
			return types.NewFloat(a.sumFloat + float64(a.sumInt))
		}
		return types.NewInt(a.sumInt)
	case AggAvg:
		if a.count == 0 {
			return types.Null
		}
		return types.NewFloat((a.sumFloat + float64(a.sumInt)) / float64(a.count))
	case AggMin, AggMax:
		if !a.seen {
			return types.Null
		}
		return a.minMax
	}
	return types.Null
}

// aggSchema derives the output schema: group columns then aggregates.
func aggSchema(child *types.Schema, groupCols []string, aggs []AggSpec) (*types.Schema, error) {
	cols := make([]types.Column, 0, len(groupCols)+len(aggs))
	for _, g := range groupCols {
		i, ok := child.Ordinal(g)
		if !ok {
			return nil, fmt.Errorf("exec: group column %q not in %v", g, child.Names())
		}
		cols = append(cols, child.Col(i))
	}
	for _, a := range aggs {
		var kind types.Kind
		switch a.Func {
		case AggCount:
			kind = types.KindInt
		case AggAvg:
			kind = types.KindFloat
		default:
			if a.Arg == nil {
				return nil, fmt.Errorf("exec: aggregate %s requires an argument", a.Func)
			}
			kind = inferKind(a.Arg, child)
		}
		cols = append(cols, types.Column{Name: a.Name, Kind: kind})
	}
	return types.NewSchema(cols...), nil
}

// boundAgg is a compiled aggregate spec.
type boundAgg struct {
	fn AggFunc
	ev expr.Evaluator // nil for COUNT(*)
}

func bindAggs(child *types.Schema, aggs []AggSpec) ([]boundAgg, error) {
	out := make([]boundAgg, len(aggs))
	for i, a := range aggs {
		out[i].fn = a.Func
		if a.Arg != nil {
			ev, err := expr.Bind(a.Arg, child)
			if err != nil {
				return nil, err
			}
			out[i].ev = ev
		} else if a.Func != AggCount {
			return nil, fmt.Errorf("exec: aggregate %s requires an argument", a.Func)
		}
	}
	return out, nil
}

// GroupAggregate is the sort-based aggregate: the input must arrive sorted
// so that each group's tuples are contiguous (i.e. sorted on any permutation
// of the group columns). It is pipelined — one group's result is emitted as
// soon as the next group begins — which is why feeding it a merge join's
// output order is profitable (the paper's Query 3 plan).
type GroupAggregate struct {
	rowView
	child     Operator
	groupCols []string
	groupOrds []int
	aggs      []AggSpec
	bound     []boundAgg
	schema    *types.Schema

	in    rowReader
	first types.Tuple // the current group's first row, owned; nil before the first row
	accs  []accumulator
	out   types.Tuple // output row scratch
	guard iter.Guard  // strided abort poll for the group-fold loop
}

// NewGroupAggregate builds a sort-based aggregate over contiguous groups.
func NewGroupAggregate(child Operator, groupCols []string, aggs []AggSpec) (*GroupAggregate, error) {
	schema, err := aggSchema(child.Schema(), groupCols, aggs)
	if err != nil {
		return nil, err
	}
	bound, err := bindAggs(child.Schema(), aggs)
	if err != nil {
		return nil, err
	}
	ords := make([]int, len(groupCols))
	for i, g := range groupCols {
		ords[i] = child.Schema().MustOrdinal(g)
	}
	return lend(&GroupAggregate{
		child: child, groupCols: append([]string(nil), groupCols...), groupOrds: ords,
		aggs: aggs, bound: bound, schema: schema, in: rowReader{src: child},
		accs: make([]accumulator, len(bound)),
	}), nil
}

// Schema returns group columns followed by aggregate columns.
func (g *GroupAggregate) Schema() *types.Schema { return g.schema }

// Children returns the aggregated input.
func (g *GroupAggregate) Children() []Operator { return []Operator{g.child} }

// GroupCols returns the grouping columns.
func (g *GroupAggregate) GroupCols() []string { return g.groupCols }

// Open opens the input.
func (g *GroupAggregate) Open() error { return g.child.Open() }

func (g *GroupAggregate) sameGroup(a, b types.Tuple) bool {
	for _, o := range g.groupOrds {
		if a[o].Compare(b[o]) != 0 {
			return false
		}
	}
	return true
}

// NextChunk fills c with the rows of the next groups. A group's row is
// emitted when the next group's first row (or the input's end) is read, and
// once c holds a row the aggregate ends the chunk rather than pull an input
// chunk: a group may be folded across calls.
func (g *GroupAggregate) NextChunk(c *types.Chunk) error {
	c.Reset()
	for !c.Full() {
		if err := g.guard.Check(); err != nil {
			return err
		}
		if c.Rows() > 0 && !g.in.buffered() {
			return nil
		}
		t, ok, err := g.in.next(c.Cap())
		if err != nil {
			return err
		}
		if g.first != nil && (!ok || !g.sameGroup(g.first, t)) {
			g.emit(c)
		}
		if !ok {
			g.first = nil
			return nil
		}
		if g.first == nil || !g.sameGroup(g.first, t) {
			g.first = append(g.first[:0], t...)
			for i := range g.accs {
				g.accs[i] = accumulator{fn: g.bound[i].fn}
			}
		}
		for i, b := range g.bound {
			if b.ev == nil {
				g.accs[i].addRow()
			} else {
				g.accs[i].add(b.ev(t))
			}
		}
	}
	return nil
}

// emit appends the current group's row to c.
func (g *GroupAggregate) emit(c *types.Chunk) {
	g.out = g.out[:0]
	for _, o := range g.groupOrds {
		g.out = append(g.out, g.first[o])
	}
	for i := range g.accs {
		g.out = append(g.out, g.accs[i].result())
	}
	c.AppendRow(g.out)
}

// Close closes the input.
func (g *GroupAggregate) Close() error {
	g.in.release()
	return g.child.Close()
}

// HashAggregate accumulates all groups in a hash table and emits them after
// the input is exhausted (blocking). Output group order is the groups'
// first-seen order, which carries no guarantee — the reason the paper's
// Query 3 Postgres plan needed an extra sort above its hash aggregate.
type HashAggregate struct {
	rowView
	child     Operator
	groupCols []string
	groupOrds []int
	aggs      []AggSpec
	bound     []boundAgg
	schema    *types.Schema

	groups []*groupState // first-seen order; nil until the first NextChunk ingests
	pos    int
	out    types.Tuple // output row scratch
	guard  iter.Guard  // strided abort poll for the ingest loop
}

// groupState is one hash-aggregate group: its first-seen row, owned, and its
// accumulators.
type groupState struct {
	rep  types.Tuple
	accs []accumulator
}

// NewHashAggregate builds a hash aggregate; input order is irrelevant.
func NewHashAggregate(child Operator, groupCols []string, aggs []AggSpec) (*HashAggregate, error) {
	schema, err := aggSchema(child.Schema(), groupCols, aggs)
	if err != nil {
		return nil, err
	}
	bound, err := bindAggs(child.Schema(), aggs)
	if err != nil {
		return nil, err
	}
	ords := make([]int, len(groupCols))
	for i, g := range groupCols {
		ords[i] = child.Schema().MustOrdinal(g)
	}
	return lend(&HashAggregate{
		child: child, groupCols: append([]string(nil), groupCols...), groupOrds: ords,
		aggs: aggs, bound: bound, schema: schema,
	}), nil
}

// Schema returns group columns followed by aggregate columns.
func (h *HashAggregate) Schema() *types.Schema { return h.schema }

// Children returns the aggregated input.
func (h *HashAggregate) Children() []Operator { return []Operator{h.child} }

// Open opens the child.
func (h *HashAggregate) Open() error { return h.child.Open() }

// ingest consumes the entire input, pulled in chunks of the given capacity,
// building all groups. It folds chunk row views directly (consuming any
// selection) and clones a row only for each group's first-seen
// representative — one allocation per group instead of one per input row.
func (h *HashAggregate) ingest(capacity int) error {
	h.groups = []*groupState{}
	index := make(map[string]*groupState)
	var keyBuf []byte
	c := types.GetChunk(h.child.Schema().Len(), capacity)
	defer types.PutChunk(c)
	var view types.Tuple
	for {
		if err := h.guard.Check(); err != nil {
			return err
		}
		if err := h.child.NextChunk(c); err != nil {
			return err
		}
		if c.Rows() == 0 {
			return nil
		}
		for i := 0; i < c.Rows(); i++ {
			view = c.CopyRow(view, i)
			keyBuf = appendHashKey(keyBuf[:0], view, h.groupOrds)
			gs, found := index[string(keyBuf)]
			if !found {
				gs = &groupState{rep: view.Clone(), accs: make([]accumulator, len(h.bound))}
				for j := range gs.accs {
					gs.accs[j].fn = h.bound[j].fn
				}
				index[string(keyBuf)] = gs
				h.groups = append(h.groups, gs)
			}
			for j, b := range h.bound {
				if b.ev == nil {
					gs.accs[j].addRow()
				} else {
					gs.accs[j].add(b.ev(view))
				}
			}
		}
	}
}

// NextChunk fills c with the next group rows; the first call ingests the
// whole input.
func (h *HashAggregate) NextChunk(c *types.Chunk) error {
	c.Reset()
	if h.groups == nil {
		if err := h.ingest(c.Cap()); err != nil {
			return err
		}
	}
	for ; h.pos < len(h.groups) && !c.Full(); h.pos++ {
		gs := h.groups[h.pos]
		h.out = h.out[:0]
		for _, o := range h.groupOrds {
			h.out = append(h.out, gs.rep[o])
		}
		for j := range gs.accs {
			h.out = append(h.out, gs.accs[j].result())
		}
		c.AppendRow(h.out)
	}
	return nil
}

// Close drops the groups and closes the child.
func (h *HashAggregate) Close() error {
	h.groups = nil
	return h.child.Close()
}
