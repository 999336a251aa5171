package exec

import (
	"fmt"

	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/types"
)

// JoinType enumerates the join variants the engine implements.
type JoinType uint8

const (
	// InnerJoin keeps matching pairs only.
	InnerJoin JoinType = iota
	// LeftOuterJoin keeps unmatched left tuples padded with NULLs.
	LeftOuterJoin
	// FullOuterJoin keeps unmatched tuples from both sides padded with
	// NULLs (the paper's Query 4 operator).
	FullOuterJoin
)

func (j JoinType) String() string {
	switch j {
	case InnerJoin:
		return "inner"
	case LeftOuterJoin:
		return "left outer"
	case FullOuterJoin:
		return "full outer"
	}
	return "?"
}

// MergeJoin joins two inputs sorted on equal-length key orders. The chosen
// key permutation is exactly the "interesting order" the optimizer selects;
// the join output inherits it (on the left key columns). Duplicate keys are
// handled by buffering the matching groups in memory.
//
// Full outer joins coalesce the join-key columns of padded rows (a
// right-unmatched row's key values are copied into the left key columns
// and vice versa), the semantics of FULL JOIN ... USING. This is what
// makes the output genuinely sorted on the key permutation — with SQL's
// ON semantics, NULL keys on padded rows would interleave arbitrarily and
// the order the optimizer propagates (§4: "the merge-join produces the
// same order on its output") would not hold. The paper's Experiment B2
// plans, which partial-sort a full outer join's output, are exactly the
// consolidation (USING-style) setting.
type MergeJoin struct {
	rowView
	left, right Operator
	leftKey     sortord.Order
	rightKey    sortord.Order
	leftOrds    []int
	rightOrds   []int
	joinType    JoinType
	schema      *types.Schema
	leftWidth   int
	rightWidth  int

	l, r lookahead
	// A matching key's groups: gathered left then right (phase), their rows
	// cloned into slabs, then emitted pair (gi, gj) by pair. key is the
	// group's first left row.
	phase          joinPhase
	key            types.Tuple
	lgroup, rgroup []types.Tuple
	lslab, rslab   []types.Datum
	gi, gj         int

	out         types.Tuple // output row scratch
	comparisons int64
	guard       iter.Guard // strided abort poll for the advance loop
}

// joinPhase is where a merge join is within a matching key.
type joinPhase uint8

const (
	scanning joinPhase = iota
	gatherLeft
	gatherRight
	emitting
)

// NewMergeJoin builds a merge join. leftKey and rightKey must be the same
// length; position i of each names the i-th join attribute on that side.
// Both inputs must be sorted on their respective key orders.
func NewMergeJoin(left, right Operator, leftKey, rightKey sortord.Order, jt JoinType) (*MergeJoin, error) {
	if leftKey.Len() != rightKey.Len() {
		return nil, fmt.Errorf("exec: merge join key arity mismatch: %v vs %v", leftKey, rightKey)
	}
	if leftKey.Len() == 0 {
		return nil, fmt.Errorf("exec: merge join requires at least one key column")
	}
	lo := make([]int, leftKey.Len())
	ro := make([]int, rightKey.Len())
	for i := range leftKey {
		j, ok := left.Schema().Ordinal(leftKey[i])
		if !ok {
			return nil, fmt.Errorf("exec: left key %q not in %v", leftKey[i], left.Schema().Names())
		}
		lo[i] = j
		j, ok = right.Schema().Ordinal(rightKey[i])
		if !ok {
			return nil, fmt.Errorf("exec: right key %q not in %v", rightKey[i], right.Schema().Names())
		}
		ro[i] = j
	}
	return lend(&MergeJoin{
		left: left, right: right,
		leftKey: leftKey.Clone(), rightKey: rightKey.Clone(),
		leftOrds: lo, rightOrds: ro,
		joinType:   jt,
		schema:     left.Schema().Concat(right.Schema()),
		leftWidth:  left.Schema().Len(),
		rightWidth: right.Schema().Len(),
		l:          lookahead{rows: rowReader{src: left}},
		r:          lookahead{rows: rowReader{src: right}},
	}), nil
}

// Schema returns the concatenated output schema.
func (m *MergeJoin) Schema() *types.Schema { return m.schema }

// Children returns the two merged inputs.
func (m *MergeJoin) Children() []Operator { return []Operator{m.left, m.right} }

// Type returns the join type.
func (m *MergeJoin) Type() JoinType { return m.joinType }

// LeftKey returns the left key order (also the output order the join
// propagates, per §4 of the paper).
func (m *MergeJoin) LeftKey() sortord.Order { return m.leftKey }

// Comparisons returns the number of key comparisons made.
func (m *MergeJoin) Comparisons() int64 { return m.comparisons }

// Open opens both inputs.
func (m *MergeJoin) Open() error {
	if err := m.left.Open(); err != nil {
		return err
	}
	return m.right.Open()
}

// lookahead is an input read a row at a time — a merge's sorted input, a
// hash join's probe side: its rows lent one at a time, the current one held
// until taken.
type lookahead struct {
	rows rowReader
	row  types.Tuple // the current row; nil once taken, and at the end
	done bool
}

// load makes row the input's next row unless one is held or the input is
// exhausted. It reports false, loading nothing, when that needs a chunk
// pull while c already holds a row: the caller then ends the chunk.
func (in *lookahead) load(c *types.Chunk) (bool, error) {
	if in.row != nil || in.done {
		return true, nil
	}
	if c.Rows() > 0 && !in.rows.buffered() {
		return false, nil
	}
	t, ok, err := in.rows.next(c.Cap())
	if err != nil {
		return false, err
	}
	in.row, in.done = t, !ok
	return true, nil
}

// take hands out the current row, valid until the next load.
func (in *lookahead) take() types.Tuple {
	t := in.row
	in.row = nil
	return t
}

// loadBoth loads the current rows of both inputs, left first (see load).
func loadBoth(c *types.Chunk, l, r *lookahead) (bool, error) {
	if ok, err := l.load(c); !ok {
		return false, err
	}
	return r.load(c)
}

// compareKeys compares a left and a right row on the join key, NULL first
// as the sorts below order it. SQL join semantics: NULL keys match nothing,
// so the caller treats equal keys holding a NULL as unmatched.
func (m *MergeJoin) compareKeys(l, r types.Tuple) int {
	m.comparisons++
	for i := range m.leftOrds {
		if c := l[m.leftOrds[i]].Compare(r[m.rightOrds[i]]); c != 0 {
			return c
		}
	}
	return 0
}

func (m *MergeJoin) keyHasNull(t types.Tuple, ords []int) bool {
	for _, o := range ords {
		if t[o].IsNull() {
			return true
		}
	}
	return false
}

// padNulls appends n NULLs to t.
func padNulls(t types.Tuple, n int) types.Tuple {
	for ; n > 0; n-- {
		t = append(t, types.Null)
	}
	return t
}

// emit appends the joined row l ++ r to c.
func (m *MergeJoin) emit(c *types.Chunk, l, r types.Tuple) {
	m.out = append(append(m.out[:0], l...), r...)
	c.AppendRow(m.out)
}

// padLeft appends a left row with a NULL-padded right side; for full outer
// joins the right key columns receive the left key values (coalescing).
func (m *MergeJoin) padLeft(c *types.Chunk, lt types.Tuple) {
	m.out = padNulls(append(m.out[:0], lt...), m.rightWidth)
	if m.joinType == FullOuterJoin {
		for i := range m.leftOrds {
			m.out[m.leftWidth+m.rightOrds[i]] = lt[m.leftOrds[i]]
		}
	}
	c.AppendRow(m.out)
}

// padRight appends a right row with a NULL-padded left side, coalescing the
// key columns (full outer only; callers only invoke it for full outer).
func (m *MergeJoin) padRight(c *types.Chunk, rt types.Tuple) {
	m.out = append(padNulls(m.out[:0], m.leftWidth), rt...)
	for i := range m.rightOrds {
		m.out[m.leftOrds[i]] = rt[m.rightOrds[i]]
	}
	c.AppendRow(m.out)
}

// NextChunk fills c with the next joined rows. Inputs advance lazily, and
// once c holds a row the join ends the chunk rather than pull an input
// chunk (lookahead.load): a matching key's groups may be gathered across
// calls.
func (m *MergeJoin) NextChunk(c *types.Chunk) error {
	c.Reset()
	for !c.Full() {
		if err := m.guard.Check(); err != nil {
			return err
		}
		switch m.phase {
		case emitting:
			m.emit(c, m.lgroup[m.gi], m.rgroup[m.gj])
			if m.gj++; m.gj == len(m.rgroup) {
				m.gj = 0
				if m.gi++; m.gi == len(m.lgroup) {
					m.phase = scanning
				}
			}
			continue
		case gatherLeft:
			if ok, err := m.l.load(c); !ok {
				return err
			}
			if !m.l.done && m.sameLeftKey(m.key, m.l.row) {
				m.lgroup = append(m.lgroup, carve(&m.lslab, m.l.take(), c.Cap()))
			} else {
				m.phase = gatherRight
			}
			continue
		case gatherRight:
			if ok, err := m.r.load(c); !ok {
				return err
			}
			if !m.r.done && m.compareKeys(m.key, m.r.row) == 0 {
				m.rgroup = append(m.rgroup, carve(&m.rslab, m.r.take(), c.Cap()))
			} else {
				m.phase, m.gi, m.gj = emitting, 0, 0 // the key matched, so rgroup holds a row
			}
			continue
		}

		if ok, err := loadBoth(c, &m.l, &m.r); !ok {
			return err
		}
		switch {
		case m.l.done && m.r.done:
			return nil

		case m.l.done:
			// Remaining right tuples are unmatched.
			if rt := m.r.take(); m.joinType == FullOuterJoin {
				m.padRight(c, rt)
			}

		case m.r.done:
			if lt := m.l.take(); m.joinType != InnerJoin {
				m.padLeft(c, lt)
			}

		default:
			// NULL join keys never match, but they still take their place in
			// the order: equal keys holding a NULL serve the left row
			// unmatched, the right one once the left has moved past it.
			switch cmp := m.compareKeys(m.l.row, m.r.row); {
			case cmp < 0 || cmp == 0 && m.keyHasNull(m.l.row, m.leftOrds):
				if lt := m.l.take(); m.joinType != InnerJoin {
					m.padLeft(c, lt)
				}
			case cmp > 0:
				if rt := m.r.take(); m.joinType == FullOuterJoin {
					m.padRight(c, rt)
				}
			default:
				// Gather the equal-key groups on both sides, then emit
				// their cross product.
				m.key = append(m.key[:0], m.l.row...)
				m.lgroup, m.rgroup = m.lgroup[:0], m.rgroup[:0]
				m.lslab, m.rslab = m.lslab[:0], m.rslab[:0]
				m.phase = gatherLeft
			}
		}
	}
	return nil
}

func (m *MergeJoin) sameLeftKey(a, b types.Tuple) bool {
	m.comparisons++
	for _, o := range m.leftOrds {
		if a[o].Compare(b[o]) != 0 {
			return false
		}
	}
	return true
}

// Close closes both inputs and hands the group slabs back to the pool.
func (m *MergeJoin) Close() error {
	m.l.rows.release()
	m.r.rows.release()
	m.lgroup, m.rgroup = m.lgroup[:0], m.rgroup[:0]
	putSlab(&m.lslab)
	putSlab(&m.rslab)
	return closeBoth(m.left, m.right)
}
