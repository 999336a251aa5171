package exec

import (
	"pyro/internal/expr"
	"pyro/internal/iter"
	"pyro/internal/types"
)

// Filter passes through tuples satisfying a predicate. Order-preserving.
type Filter struct {
	rowView
	child   Operator
	pred    func(types.Tuple) bool
	text    string
	in      int64
	out     int64
	scratch types.Tuple // row view, reused across rows
	guard   iter.Guard  // strided abort poll for the reject-all drain
}

// NewFilter compiles pred against the child schema.
func NewFilter(child Operator, pred expr.Expr) (*Filter, error) {
	p, err := expr.BindPredicate(pred, child.Schema())
	if err != nil {
		return nil, err
	}
	return lend(&Filter{child: child, pred: p, text: pred.String()}), nil
}

// Schema returns the child schema (filtering is schema-preserving).
func (f *Filter) Schema() *types.Schema { return f.child.Schema() }

// Children returns the filtered input.
func (f *Filter) Children() []Operator { return []Operator{f.child} }

// Predicate returns the predicate text (for plan display).
func (f *Filter) Predicate() string { return f.text }

// Selectivity returns observed rows out / rows in (valid after execution).
func (f *Filter) Selectivity() float64 {
	if f.in == 0 {
		return 0
	}
	return float64(f.out) / float64(f.in)
}

// Open opens the child.
func (f *Filter) Open() error { return f.child.Open() }

// NextChunk pulls child chunks into c and marks the survivors in a
// selection vector — rows are never moved. It pulls again only while a batch
// has zero survivors, exactly the pages a one-row consumer would have read
// before its next qualifying row, so stopping after any served row charges
// identical I/O.
func (f *Filter) NextChunk(c *types.Chunk) error {
	for {
		if err := f.guard.Check(); err != nil {
			return err
		}
		if err := f.child.NextChunk(c); err != nil {
			return err
		}
		live := c.Rows()
		if live == 0 {
			return nil
		}
		f.in += int64(live)
		// Writing survivor j of the scratch selection while reading live
		// row i is safe even when c's selection already aliases the same
		// scratch: j <= i always (survivors are a subsequence).
		sel := c.SelScratch()
		for i := 0; i < live; i++ {
			f.scratch = c.CopyRow(f.scratch, i)
			if f.pred(f.scratch) {
				sel = append(sel, int32(c.RowIndex(i)))
			}
		}
		f.out += int64(len(sel))
		if len(sel) > 0 {
			c.SetSel(sel)
			return nil
		}
	}
}

// Close closes the child.
func (f *Filter) Close() error { return f.child.Close() }

// Project computes output columns from input tuples. Each output column is
// a named scalar expression; plain column references make it a classical
// projection (which preserves any input order on surviving columns).
type Project struct {
	rowView
	child  Operator
	schema *types.Schema
	evals  []expr.Evaluator

	// The child's chunk (lazily pooled, at the capacity of the chunk the
	// projection fills), an input row view and an output row, all reused so
	// projection allocates nothing per row.
	in         *types.Chunk
	inScratch  types.Tuple
	outScratch types.Tuple
}

// ProjCol is one output column of a projection.
type ProjCol struct {
	Name string
	Expr expr.Expr
}

// NewProject compiles the projection against the child schema.
func NewProject(child Operator, cols []ProjCol) (*Project, error) {
	outCols := make([]types.Column, len(cols))
	evals := make([]expr.Evaluator, len(cols))
	for i, c := range cols {
		ev, err := expr.Bind(c.Expr, child.Schema())
		if err != nil {
			return nil, err
		}
		evals[i] = ev
		kind := inferKind(c.Expr, child.Schema())
		width := 0
		if ref, ok := c.Expr.(expr.ColRef); ok {
			if j, found := child.Schema().Ordinal(ref.Name); found {
				width = child.Schema().Col(j).Width
			}
		}
		outCols[i] = types.Column{Name: c.Name, Kind: kind, Width: width}
	}
	return lend(&Project{child: child, schema: types.NewSchema(outCols...), evals: evals}), nil
}

// NewProjectNames is a convenience for plain column projections keeping the
// original names.
func NewProjectNames(child Operator, names []string) (*Project, error) {
	cols := make([]ProjCol, len(names))
	for i, n := range names {
		cols[i] = ProjCol{Name: n, Expr: expr.Col(n)}
	}
	return NewProject(child, cols)
}

// Schema returns the projection's output schema.
func (p *Project) Schema() *types.Schema { return p.schema }

// Children returns the projected input.
func (p *Project) Children() []Operator { return []Operator{p.child} }

// Open opens the child.
func (p *Project) Open() error { return p.child.Open() }

// NextChunk pulls one child chunk and evaluates the projection into c's
// column vectors, consuming the child's selection: the output chunk is
// dense.
func (p *Project) NextChunk(c *types.Chunk) error {
	if p.in == nil {
		p.in = types.GetChunk(p.child.Schema().Len(), c.Cap())
	}
	if err := p.child.NextChunk(p.in); err != nil {
		return err
	}
	c.Reset()
	if cap(p.outScratch) < len(p.evals) {
		p.outScratch = make(types.Tuple, len(p.evals))
	}
	out := p.outScratch[:len(p.evals)]
	live := p.in.Rows()
	for i := 0; i < live; i++ {
		p.inScratch = p.in.CopyRow(p.inScratch, i)
		for j, ev := range p.evals {
			out[j] = ev(p.inScratch)
		}
		c.AppendRow(out)
	}
	return nil
}

// Close returns the input chunk to the pool and closes the child.
func (p *Project) Close() error {
	if p.in != nil {
		types.PutChunk(p.in)
		p.in = nil
	}
	return p.child.Close()
}
