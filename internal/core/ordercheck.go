package core

import (
	"errors"
	"fmt"

	"pyro/internal/types"
)

// CheckOrders holds every order p's nodes claim to what they produce: for
// each node with a non-empty OutOrder it builds that subtree alone, drains
// it, and reports the first node whose output goes backwards under its
// claimed order. The plan's root is only one such node; the rest are the
// orders §4's propagation derives below it — a merge join's inputs, the
// given prefix a partial sort assumes of its input.
//
// CheckOrders exists for tests only — no query path calls it. It is
// exported because both this package's plan goldens and the root package's
// plan corpora use it; it is not API to keep.
func CheckOrders(p *Plan, cfg BuildConfig) error {
	var err error
	p.Walk(func(q *Plan) {
		if err == nil && !q.OutOrder.IsEmpty() {
			err = checkOrder(q, cfg)
		}
	})
	return err
}

// checkOrder drains the subtree rooted at p and checks its rows against
// p.OutOrder.
func checkOrder(p *Plan, cfg BuildConfig) (err error) {
	ks, err := types.MakeKeySpec(p.Schema, p.OutOrder)
	if err != nil {
		return err
	}
	op, err := Build(p, cfg)
	if err != nil {
		return err
	}
	if err := op.Open(); err != nil {
		return errors.Join(err, op.Close())
	}
	defer func() { err = errors.Join(err, op.Close()) }()
	c := types.GetChunk(p.Schema.Len(), types.DefaultChunkCapacity)
	defer types.PutChunk(c)
	var prev, row types.Tuple
	for n := 0; ; {
		if err := op.NextChunk(c); err != nil {
			return err
		}
		if c.Rows() == 0 {
			return nil
		}
		for i := 0; i < c.Rows(); i, n = i+1, n+1 {
			row = c.CopyRow(row, i)
			if prev != nil && ks.Compare(prev, row) > 0 {
				return fmt.Errorf("core: %s claims order %v, but its row %d %v follows %v", p.Kind, p.OutOrder, n, row, prev)
			}
			prev, row = row, prev
		}
	}
}
