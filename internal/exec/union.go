package exec

import (
	"fmt"

	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/types"
)

// MergeUnion is a sorted UNION ALL: it merges two inputs sorted on the same
// order and preserves that order — the "requirement of same sort order from
// multiple inputs" operator class from §1 of the paper. Duplicate
// elimination is not its job: UNION is a GroupAggregate or HashAggregate
// over every column above it.
type MergeUnion struct {
	rowView
	left, right Operator
	order       sortord.Order
	ks          types.KeySpec
	schema      *types.Schema

	l, r  lookahead
	guard iter.Guard // strided abort poll for the merge loop
}

// NewMergeUnion builds a merge union over inputs sorted on order. Schemas
// must have identical arity and kinds; the left schema names the output.
func NewMergeUnion(left, right Operator, order sortord.Order) (*MergeUnion, error) {
	ls, rs := left.Schema(), right.Schema()
	if ls.Len() != rs.Len() {
		return nil, fmt.Errorf("exec: union arity mismatch: %d vs %d", ls.Len(), rs.Len())
	}
	for i := 0; i < ls.Len(); i++ {
		if ls.Col(i).Kind != rs.Col(i).Kind {
			return nil, fmt.Errorf("exec: union column %d kind mismatch: %v vs %v",
				i, ls.Col(i).Kind, rs.Col(i).Kind)
		}
	}
	ks, err := types.MakeKeySpec(ls, order)
	if err != nil {
		return nil, err
	}
	return lend(&MergeUnion{left: left, right: right, order: order.Clone(), ks: ks, schema: ls,
		l: lookahead{rows: rowReader{src: left}}, r: lookahead{rows: rowReader{src: right}}}), nil
}

// Schema returns the output schema (the left input's).
func (u *MergeUnion) Schema() *types.Schema { return u.schema }

// Children returns the two unioned inputs.
func (u *MergeUnion) Children() []Operator { return []Operator{u.left, u.right} }

// Order returns the shared input/output sort order.
func (u *MergeUnion) Order() sortord.Order { return u.order }

// Open opens both inputs.
func (u *MergeUnion) Open() error {
	if err := u.left.Open(); err != nil {
		return err
	}
	return u.right.Open()
}

// NextChunk fills c with the next rows in the shared order.
func (u *MergeUnion) NextChunk(c *types.Chunk) error {
	c.Reset()
	for !c.Full() {
		if err := u.guard.Check(); err != nil {
			return err
		}
		if ok, err := loadBoth(c, &u.l, &u.r); !ok {
			return err
		}
		in := &u.l
		switch {
		case u.l.done && u.r.done:
			return nil
		case u.l.done:
			in = &u.r
		case u.r.done:
		case u.ks.Compare(u.l.row, u.r.row) > 0:
			in = &u.r
		}
		c.AppendRow(in.take())
	}
	return nil
}

// Close closes both inputs.
func (u *MergeUnion) Close() error {
	u.l.rows.release()
	u.r.rows.release()
	return closeBoth(u.left, u.right)
}

// UnionAll concatenates two union-compatible inputs: all left tuples, then
// all right tuples. No order guarantee.
type UnionAll struct {
	rowView
	left, right Operator
	onRight     bool
}

// NewUnionAll builds a bag union; schemas must be kind-compatible.
func NewUnionAll(left, right Operator) (*UnionAll, error) {
	ls, rs := left.Schema(), right.Schema()
	if ls.Len() != rs.Len() {
		return nil, fmt.Errorf("exec: union-all arity mismatch: %d vs %d", ls.Len(), rs.Len())
	}
	for i := 0; i < ls.Len(); i++ {
		if ls.Col(i).Kind != rs.Col(i).Kind {
			return nil, fmt.Errorf("exec: union-all column %d kind mismatch", i)
		}
	}
	return lend(&UnionAll{left: left, right: right}), nil
}

// Schema returns the left input's schema.
func (u *UnionAll) Schema() *types.Schema { return u.left.Schema() }

// Children returns the two concatenated inputs.
func (u *UnionAll) Children() []Operator { return []Operator{u.left, u.right} }

// Open opens both inputs.
func (u *UnionAll) Open() error {
	u.onRight = false
	if err := u.left.Open(); err != nil {
		return err
	}
	return u.right.Open()
}

// NextChunk drains the left input's chunks, then the right's. Detecting
// left EOF and pulling the first right chunk happen in one call.
func (u *UnionAll) NextChunk(c *types.Chunk) error {
	if !u.onRight {
		if err := u.left.NextChunk(c); err != nil {
			return err
		}
		if c.Rows() > 0 {
			return nil
		}
		u.onRight = true
	}
	return u.right.NextChunk(c)
}

// Close closes both inputs.
func (u *UnionAll) Close() error { return closeBoth(u.left, u.right) }

// closeBoth closes a binary operator's inputs, reporting the left's error
// first.
func closeBoth(left, right Operator) error {
	errL := left.Close()
	errR := right.Close()
	if errL != nil {
		return errL
	}
	return errR
}

// Limit passes through the first K tuples (LIMIT / the paper's Top-K
// discussion: with MRS below it, the first results arrive without sorting
// the whole input).
//
// Limit is an active early-exit operator, not just a counter: the moment
// the K-th tuple leaves (or, for K = 0, as soon as Open has opened the
// child) it closes its child, which propagates down the tree exactly like
// a consumer-side cursor Close — partial-sort enforcers abandon their unsorted segments,
// spilled sorts drop unread runs with their arenas, scans stop reading.
// A planned Top-K query therefore sheds the tail work even when its
// consumer drains the cursor to completion.
type Limit struct {
	rowView
	child       Operator
	k           int64
	n           int64
	childClosed bool
	closeErr    error
}

// NewLimit caps the stream at k tuples.
func NewLimit(child Operator, k int64) (*Limit, error) {
	if k < 0 {
		return nil, fmt.Errorf("exec: negative limit %d", k)
	}
	return lend(&Limit{child: child, k: k}), nil
}

// Schema returns the child schema.
func (l *Limit) Schema() *types.Schema { return l.child.Schema() }

// Children returns the capped input.
func (l *Limit) Children() []Operator { return []Operator{l.child} }

// Open opens the child and resets the count; with K = 0 the child is
// closed again right away (it serves no rows).
func (l *Limit) Open() error {
	l.n = 0
	l.childClosed = false
	l.closeErr = nil
	if err := l.child.Open(); err != nil {
		return err
	}
	if l.k == 0 {
		return l.closeChild()
	}
	return nil
}

// closeChild closes the child exactly once, remembering the error so the
// later (idempotent) Close still reports it.
func (l *Limit) closeChild() error {
	if l.childClosed {
		return l.closeErr
	}
	l.childClosed = true
	l.closeErr = l.child.Close()
	return l.closeErr
}

// NextChunk passes the child's chunk through, truncating the batch that
// carries the K-th live row and closing the child at that point — at the
// page boundary a one-row consumer would close it at (the truncated rows
// were co-resident on an already-read page). A close failure there surfaces
// from Close or a later call, never eating the rows themselves.
func (l *Limit) NextChunk(c *types.Chunk) error {
	if l.n >= l.k {
		c.Reset()
		return l.closeChild()
	}
	if err := l.child.NextChunk(c); err != nil {
		return err
	}
	live := int64(c.Rows())
	if live == 0 {
		return nil
	}
	if l.n+live >= l.k {
		c.Truncate(int(l.k - l.n))
		c.Detach() // the rows may be spans over buffers the close frees
		l.n = l.k
		_ = l.closeChild()
		return nil
	}
	l.n += live
	return nil
}

// Close closes the child (already done if the limit was reached; the
// child's close error is reported either way).
func (l *Limit) Close() error { return l.closeChild() }
