package exec

import (
	"fmt"
	"sort"

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
	child     Operator
	groupCols []string
	groupOrds []int
	aggs      []AggSpec
	bound     []boundAgg
	schema    *types.Schema

	pending types.Tuple
	done    bool
	opened  bool

	// in is the stream the aggregate actually pulls: the child itself, or
	// a rowAdapter over it when it serves chunks (the aggregate retains its
	// lookahead, so it needs owned rows either way).
	in iter.Iterator

	guard iter.Guard // strided abort poll for the group-fold loop
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
	return &GroupAggregate{
		child: child, groupCols: append([]string(nil), groupCols...), groupOrds: ords,
		aggs: aggs, bound: bound, schema: schema, in: rowInput(child),
	}, nil
}

// Schema returns group columns followed by aggregate columns.
func (g *GroupAggregate) Schema() *types.Schema { return g.schema }

// Children returns the aggregated input.
func (g *GroupAggregate) Children() []Operator { return []Operator{g.child} }

// GroupCols returns the grouping columns.
func (g *GroupAggregate) GroupCols() []string { return g.groupCols }

// SetAbort installs the abort hook the group-fold loop polls: one giant
// group is folded inside a single Next call.
func (g *GroupAggregate) SetAbort(poll func() error) { g.guard = iter.NewGuard(poll) }

// Open opens the input and primes the lookahead.
func (g *GroupAggregate) Open() error {
	g.opened = true
	if err := g.in.Open(); err != nil {
		return err
	}
	t, ok, err := g.in.Next()
	if err != nil {
		return err
	}
	if !ok {
		g.done = true
		return nil
	}
	g.pending = t
	return nil
}

func (g *GroupAggregate) sameGroup(a, b types.Tuple) bool {
	for _, o := range g.groupOrds {
		if a[o].Compare(b[o]) != 0 {
			return false
		}
	}
	return true
}

// Next aggregates one group and returns its row.
func (g *GroupAggregate) Next() (types.Tuple, bool, error) {
	if g.done && g.pending == nil {
		return nil, false, nil
	}
	first := g.pending
	accs := make([]accumulator, len(g.bound))
	for i := range accs {
		accs[i].fn = g.bound[i].fn
	}
	fold := func(t types.Tuple) {
		for i, b := range g.bound {
			if b.ev == nil {
				accs[i].addRow()
			} else {
				accs[i].add(b.ev(t))
			}
		}
	}
	fold(first)
	for {
		if err := g.guard.Check(); err != nil {
			return nil, false, err
		}
		t, ok, err := g.in.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			g.done = true
			g.pending = nil
			break
		}
		if !g.sameGroup(first, t) {
			g.pending = t
			break
		}
		fold(t)
	}
	out := make(types.Tuple, 0, g.schema.Len())
	for _, o := range g.groupOrds {
		out = append(out, first[o])
	}
	for i := range accs {
		out = append(out, accs[i].result())
	}
	return out, true, nil
}

// Close closes the input (an adapter closes the child).
func (g *GroupAggregate) Close() error { return g.in.Close() }

// HashAggregate accumulates all groups in a hash table and emits them after
// the input is exhausted (blocking). Output group order is the groups'
// first-seen order, which carries no guarantee — the reason the paper's
// Query 3 Postgres plan needed an extra sort above its hash aggregate.
type HashAggregate struct {
	child     Operator
	groupCols []string
	groupOrds []int
	aggs      []AggSpec
	bound     []boundAgg
	schema    *types.Schema

	results []types.Tuple
	pos     int
	guard   iter.Guard // strided abort poll for the ingest loops
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
	return &HashAggregate{
		child: child, groupCols: append([]string(nil), groupCols...), groupOrds: ords,
		aggs: aggs, bound: bound, schema: schema,
	}, nil
}

// Schema returns group columns followed by aggregate columns.
func (h *HashAggregate) Schema() *types.Schema { return h.schema }

// Children returns the aggregated input.
func (h *HashAggregate) Children() []Operator { return []Operator{h.child} }

// SetAbort installs the abort hook the ingest loops poll: the hash
// aggregate drains its whole input inside Open.
func (h *HashAggregate) SetAbort(poll func() error) { h.guard = iter.NewGuard(poll) }

// Open consumes the entire input, building all groups. Over a chunk-capable
// child it folds chunk row views directly (consuming any selection) and
// clones a tuple only for each group's first-seen representative — one
// allocation per group instead of one per input row.
func (h *HashAggregate) Open() error {
	if err := h.child.Open(); err != nil {
		return err
	}
	type groupState struct {
		rep  types.Tuple
		accs []accumulator
		seq  int
	}
	groups := make(map[string]*groupState)
	var keyBuf []byte
	seq := 0
	// ingest folds one row; owned says whether t may be retained as a
	// group representative or must be cloned first (chunk views are
	// overwritten on refill).
	ingest := func(t types.Tuple, owned bool) {
		keyBuf = keyBuf[:0]
		for _, o := range h.groupOrds {
			keyBuf = t[o : o+1].Encode(keyBuf)
		}
		gs, found := groups[string(keyBuf)]
		if !found {
			rep := t
			if !owned {
				rep = t.Clone()
			}
			gs = &groupState{rep: rep, accs: make([]accumulator, len(h.bound)), seq: seq}
			seq++
			for i := range gs.accs {
				gs.accs[i].fn = h.bound[i].fn
			}
			groups[string(keyBuf)] = gs
		}
		for i, b := range h.bound {
			if b.ev == nil {
				gs.accs[i].addRow()
			} else {
				gs.accs[i].add(b.ev(t))
			}
		}
	}
	if ChunkCapable(h.child) {
		child := h.child.(ChunkOperator)
		c := types.GetChunk(h.child.Schema().Len(), types.DefaultChunkCapacity)
		defer types.PutChunk(c)
		var view types.Tuple
		for {
			if err := h.guard.Check(); err != nil {
				return err
			}
			if err := child.NextChunk(c); err != nil {
				return err
			}
			live := c.Rows()
			if live == 0 {
				break
			}
			for i := 0; i < live; i++ {
				view = c.CopyRow(view, i)
				ingest(view, false)
			}
		}
	} else {
		for {
			if err := h.guard.Check(); err != nil {
				return err
			}
			t, ok, err := h.child.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			ingest(t, true)
		}
	}
	ordered := make([]*groupState, 0, len(groups))
	for _, gs := range groups {
		ordered = append(ordered, gs)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].seq < ordered[j].seq })
	h.results = make([]types.Tuple, len(ordered))
	for i, gs := range ordered {
		out := make(types.Tuple, 0, h.schema.Len())
		for _, o := range h.groupOrds {
			out = append(out, gs.rep[o])
		}
		for j := range gs.accs {
			out = append(out, gs.accs[j].result())
		}
		h.results[i] = out
	}
	h.pos = 0
	return nil
}

// Next emits the next group row.
func (h *HashAggregate) Next() (types.Tuple, bool, error) {
	if h.pos >= len(h.results) {
		return nil, false, nil
	}
	t := h.results[h.pos]
	h.pos++
	return t, true, nil
}

// Close closes the child.
func (h *HashAggregate) Close() error {
	h.results = nil
	return h.child.Close()
}
