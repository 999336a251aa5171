package exec

import (
	"fmt"

	"pyro/internal/iter"
	"pyro/internal/types"
)

// HashJoin is an in-memory hash join: the right (build) input is loaded into
// a hash table on Open, then the left (probe) input streams through. It
// preserves the probe side's order on output and needs no sorted inputs —
// the competitor that sort-based plans must beat in the paper's experiments
// (e.g. SYS1's default plan for Query 3).
type HashJoin struct {
	rowView
	left, right Operator
	leftKeys    []string
	rightKeys   []string
	leftOrds    []int
	rightOrds   []int
	joinType    JoinType // InnerJoin or LeftOuterJoin
	schema      *types.Schema
	rightWidth  int

	table     map[string][]types.Tuple // nil until the first NextChunk builds it
	slab      []types.Datum            // build rows are carved from it
	buildRows int64
	probe     lookahead
	lt        types.Tuple   // the probe row being joined
	matches   []types.Tuple // its build matches, emitted from mi on
	mi        int
	out       types.Tuple // output row scratch
	keyBuf    []byte

	guard iter.Guard // strided abort poll for the build and probe loops
}

// NewHashJoin builds a hash join; keys are positional pairs as in merge
// join. FullOuterJoin is not supported (mirroring SYS2 in the paper, which
// implements full outer join as a union of two left outer joins).
func NewHashJoin(left, right Operator, leftKeys, rightKeys []string, jt JoinType) (*HashJoin, error) {
	if jt == FullOuterJoin {
		return nil, fmt.Errorf("exec: hash join does not support full outer join")
	}
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		return nil, fmt.Errorf("exec: hash join key mismatch: %v vs %v", leftKeys, rightKeys)
	}
	lo := make([]int, len(leftKeys))
	ro := make([]int, len(rightKeys))
	for i := range leftKeys {
		j, ok := left.Schema().Ordinal(leftKeys[i])
		if !ok {
			return nil, fmt.Errorf("exec: left key %q not in %v", leftKeys[i], left.Schema().Names())
		}
		lo[i] = j
		j, ok = right.Schema().Ordinal(rightKeys[i])
		if !ok {
			return nil, fmt.Errorf("exec: right key %q not in %v", rightKeys[i], right.Schema().Names())
		}
		ro[i] = j
	}
	return lend(&HashJoin{
		left: left, right: right,
		leftKeys: append([]string(nil), leftKeys...), rightKeys: append([]string(nil), rightKeys...),
		leftOrds: lo, rightOrds: ro,
		joinType:   jt,
		schema:     left.Schema().Concat(right.Schema()),
		rightWidth: right.Schema().Len(),
		probe:      lookahead{rows: rowReader{src: left}},
	}), nil
}

// Schema returns the concatenated output schema.
func (h *HashJoin) Schema() *types.Schema { return h.schema }

// Children returns the probe and build inputs.
func (h *HashJoin) Children() []Operator { return []Operator{h.left, h.right} }

// Type returns the join type.
func (h *HashJoin) Type() JoinType { return h.joinType }

// BuildRows returns the number of build-side tuples hashed.
func (h *HashJoin) BuildRows() int64 { return h.buildRows }

// hashKey encodes the key columns (appendHashKey); NULL keys return
// ok=false (never match).
func (h *HashJoin) hashKey(t types.Tuple, ords []int) (string, bool) {
	for _, o := range ords {
		if t[o].IsNull() {
			return "", false
		}
	}
	h.keyBuf = appendHashKey(h.keyBuf[:0], t, ords)
	return string(h.keyBuf), true
}

// Open opens both inputs.
func (h *HashJoin) Open() error {
	if err := h.left.Open(); err != nil {
		return err
	}
	return h.right.Open()
}

// build loads the right input into the hash table, pulling it in chunks of
// the given capacity.
func (h *HashJoin) build(capacity int) error {
	h.table = make(map[string][]types.Tuple)
	in := types.GetChunk(h.rightWidth, capacity)
	defer types.PutChunk(in)
	var row types.Tuple
	for {
		if err := h.guard.Check(); err != nil {
			return err
		}
		if err := h.right.NextChunk(in); err != nil {
			return err
		}
		if in.Rows() == 0 {
			return nil
		}
		for i := 0; i < in.Rows(); i++ {
			row = in.CopyRow(row, i)
			h.buildRows++
			k, valid := h.hashKey(row, h.rightOrds)
			if !valid {
				continue // NULL build keys can never match
			}
			h.table[k] = append(h.table[k], carve(&h.slab, row, capacity))
		}
	}
}

// NextChunk fills c with joined rows: the first call builds the hash table
// from the right input, then left rows probe it in order. Once c holds a
// row the join ends the chunk rather than pull a probe chunk.
func (h *HashJoin) NextChunk(c *types.Chunk) error {
	c.Reset()
	if h.table == nil {
		if err := h.build(c.Cap()); err != nil {
			return err
		}
	}
	for !c.Full() {
		if err := h.guard.Check(); err != nil {
			return err
		}
		if h.mi < len(h.matches) {
			h.out = append(append(h.out[:0], h.lt...), h.matches[h.mi]...)
			c.AppendRow(h.out)
			h.mi++
			continue
		}
		if ok, err := h.probe.load(c); !ok || h.probe.done {
			return err
		}
		h.lt = h.probe.take()
		h.matches, h.mi = nil, 0
		if k, valid := h.hashKey(h.lt, h.leftOrds); valid {
			h.matches = h.table[k]
		}
		if len(h.matches) == 0 && h.joinType == LeftOuterJoin {
			h.out = padNulls(append(h.out[:0], h.lt...), h.rightWidth)
			c.AppendRow(h.out)
		}
	}
	return nil
}

// Close closes both inputs and drops the table.
func (h *HashJoin) Close() error {
	h.table, h.slab, h.matches = nil, nil, nil
	h.probe.rows.release()
	return closeBoth(h.left, h.right)
}
