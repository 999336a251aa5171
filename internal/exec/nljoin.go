package exec

import (
	"fmt"

	"pyro/internal/expr"
	"pyro/internal/iter"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// NLJoin is a block nested-loops join: the inner (right) input is spooled
// to a temporary file once, then rescanned for each memory-sized block of
// outer tuples, charging the rescan I/O the classical cost model predicts
// (B(R) + ceil(B(R)/M)·B(S)). It accepts an arbitrary join predicate, which
// is what makes it the fallback for non-equijoins. Output has no order: for
// each inner row the join scans the whole outer block, so rows come out
// inner-major within a block even when the outer fits in one, and the
// optimizer claims no order for it.
type NLJoin struct {
	rowView
	left, right Operator
	pred        func(types.Tuple) bool
	predText    string
	joinType    JoinType // InnerJoin or LeftOuterJoin
	schema      *types.Schema
	disk        *storage.Disk
	bind        iter.Binding // the spool's tap and the outer block's live budget (Bind)
	memBlocks   int
	rightWidth  int

	spool    *storage.File // nil until the first NextChunk spools the inner
	phase    nlPhase
	outer    rowReader
	block    []types.Tuple // the outer block, carved from slab
	slab     []types.Datum
	leftDone bool
	rreader  *storage.TupleReader // the block's pass over the spool
	rt       types.Tuple          // the inner row being joined, against block[bi:]
	bi       int
	pads     []types.Tuple // left outer: the block's unmatched rows, emitted from pi on
	pi       int
	out      types.Tuple // output row scratch
	guard    iter.Guard  // strided abort poll for the spool, join and pad loops
}

// nlPhase is where a nested-loops join is within its current outer block.
type nlPhase uint8

const (
	nlLoad nlPhase = iota // load the next outer block
	nlJoin                // pass over the spool, joining each inner row to the block
	nlPad                 // left outer: find and emit the block's unmatched rows
)

// NewNLJoin builds a block nested-loops join with an arbitrary predicate
// (nil means cross join). memBlocks bounds the outer block buffer, or the
// query's live budget while it is lower (Bind).
func NewNLJoin(left, right Operator, pred expr.Expr, jt JoinType, disk *storage.Disk, memBlocks int) (*NLJoin, error) {
	if jt == FullOuterJoin {
		return nil, fmt.Errorf("exec: nested-loops join does not support full outer join")
	}
	if disk == nil || memBlocks <= 0 {
		return nil, fmt.Errorf("exec: nested-loops join needs a disk and positive memory")
	}
	schema := left.Schema().Concat(right.Schema())
	var p func(types.Tuple) bool
	text := "true"
	if pred != nil {
		bp, err := expr.BindPredicate(pred, schema)
		if err != nil {
			return nil, err
		}
		p = bp
		text = pred.String()
	}
	return lend(&NLJoin{
		left: left, right: right, pred: p, predText: text, joinType: jt,
		schema: schema, disk: disk, memBlocks: memBlocks,
		rightWidth: right.Schema().Len(),
		outer:      rowReader{src: left},
	}), nil
}

// Schema returns the concatenated output schema.
func (n *NLJoin) Schema() *types.Schema { return n.schema }

// Children returns the outer and inner inputs.
func (n *NLJoin) Children() []Operator { return []Operator{n.left, n.right} }

// Open opens both inputs.
func (n *NLJoin) Open() error {
	if err := n.left.Open(); err != nil {
		return err
	}
	return n.right.Open()
}

// spoolInner writes the inner input to a temp file, pulling it in chunks of
// the given capacity.
func (n *NLJoin) spoolInner(capacity int) error {
	n.spool = n.disk.CreateTemp("nljoin", storage.KindRun).Tapped(n.bind.Tap)
	w := storage.NewTupleWriter(n.spool)
	in := types.GetChunk(n.rightWidth, capacity)
	defer types.PutChunk(in)
	var row types.Tuple
	for {
		if err := n.guard.Check(); err != nil {
			return err
		}
		if err := n.right.NextChunk(in); err != nil {
			return err
		}
		if in.Rows() == 0 {
			return w.Close()
		}
		for i := 0; i < in.Rows(); i++ {
			row = in.CopyRow(row, i)
			if err := w.Write(row); err != nil {
				return err
			}
		}
	}
}

// loadBlock buffers the next block of outer rows and starts a pass over the
// spool; it reports false when the outer input has no rows left.
func (n *NLJoin) loadBlock(capacity int) (bool, error) {
	n.block, n.slab = n.block[:0], n.slab[:0]
	budget := int64(n.bind.MemoryBlocks(n.memBlocks)) * int64(n.disk.PageSize())
	var used int64
	for used < budget && !n.leftDone {
		t, ok, err := n.outer.next(capacity)
		if err != nil {
			return false, err
		}
		if !ok {
			n.leftDone = true
			break
		}
		n.block = append(n.block, carve(&n.slab, t, capacity))
		used += int64(t.MemSize())
	}
	if len(n.block) == 0 {
		return false, nil
	}
	n.rreader = storage.NewTupleReader(n.spool)
	n.rt, n.bi = nil, len(n.block)
	return true, nil
}

// NextChunk fills c with joined rows. The iteration order is: for each
// inner row, scan the current outer block (classical block NL), so the
// inner is read once per outer block. The first call spools the inner. Once
// c holds a row the join ends the chunk rather than read a new spool page,
// load a block or start a padding pass.
func (n *NLJoin) NextChunk(c *types.Chunk) error {
	c.Reset()
	if n.spool == nil {
		if err := n.spoolInner(c.Cap()); err != nil {
			return err
		}
	}
	for !c.Full() {
		if err := n.guard.Check(); err != nil {
			return err
		}
		switch n.phase {
		case nlLoad:
			if n.leftDone || c.Rows() > 0 {
				return nil
			}
			if ok, err := n.loadBlock(c.Cap()); !ok {
				return err
			}
			n.phase = nlJoin
		case nlJoin:
			if n.bi < len(n.block) {
				n.out = append(append(n.out[:0], n.block[n.bi]...), n.rt...)
				if n.pred == nil || n.pred(n.out) {
					c.AppendRow(n.out)
				}
				n.bi++
				continue
			}
			if c.Rows() > 0 && !n.rreader.Buffered() {
				return nil
			}
			rt, ok, err := n.rreader.Next()
			if err != nil {
				return err
			}
			if ok {
				n.rt, n.bi = rt, 0
				continue
			}
			// Inner exhausted for this block.
			n.phase, n.pads = nlLoad, nil
			if n.joinType == LeftOuterJoin {
				n.phase = nlPad
			}
		case nlPad:
			if n.pads == nil {
				if c.Rows() > 0 {
					return nil
				}
				if err := n.findUnmatched(); err != nil {
					return err
				}
			}
			if n.pi == len(n.pads) {
				n.phase = nlLoad
				continue
			}
			n.out = padNulls(append(n.out[:0], n.pads[n.pi]...), n.rightWidth)
			c.AppendRow(n.out)
			n.pi++
		}
	}
	return nil
}

// findUnmatched rescans the spool to find the current block's outer rows
// that match no inner row, and queues them for NULL padding. This extra pass
// is charged honestly — left-outer block NL pays for it.
func (n *NLJoin) findUnmatched() error {
	matched := make([]bool, len(n.block))
	r := storage.NewTupleReader(n.spool)
	for {
		if err := n.guard.Check(); err != nil {
			return err
		}
		rt, ok, err := r.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for i, lt := range n.block {
			if matched[i] {
				continue
			}
			n.out = append(append(n.out[:0], lt...), rt...)
			if n.pred == nil || n.pred(n.out) {
				matched[i] = true
			}
		}
	}
	n.pads, n.pi = make([]types.Tuple, 0, len(n.block)), 0
	for i, lt := range n.block {
		if !matched[i] {
			n.pads = append(n.pads, lt)
		}
	}
	return nil
}

// Close removes the spool and closes both inputs.
func (n *NLJoin) Close() error {
	if n.spool != nil {
		n.disk.Remove(n.spool.Name())
		n.spool = nil
	}
	n.outer.release()
	return closeBoth(n.left, n.right)
}
