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
	left, right Operator
	leftKeys    []string
	rightKeys   []string
	leftOrds    []int
	rightOrds   []int
	joinType    JoinType // InnerJoin or LeftOuterJoin
	schema      *types.Schema

	table      map[string][]types.Tuple
	buildRows  int64
	outQueue   []types.Tuple
	outPos     int
	rightWidth int
	keyBuf     []byte

	// buildIn is the build input as pulled: the right child itself, or a
	// rowAdapter over it when it serves chunks (build tuples are retained
	// in the table, so they must be owned either way).
	buildIn iter.Iterator

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
	return &HashJoin{
		left: left, right: right,
		leftKeys: append([]string(nil), leftKeys...), rightKeys: append([]string(nil), rightKeys...),
		leftOrds: lo, rightOrds: ro,
		joinType:   jt,
		schema:     left.Schema().Concat(right.Schema()),
		rightWidth: right.Schema().Len(),
		buildIn:    rowInput(right),
	}, nil
}

// Schema returns the concatenated output schema.
func (h *HashJoin) Schema() *types.Schema { return h.schema }

// Children returns the probe and build inputs.
func (h *HashJoin) Children() []Operator { return []Operator{h.left, h.right} }

// Type returns the join type.
func (h *HashJoin) Type() JoinType { return h.joinType }

// BuildRows returns the number of build-side tuples hashed.
func (h *HashJoin) BuildRows() int64 { return h.buildRows }

// hashKey encodes the key columns; NULL keys return ok=false (never match).
func (h *HashJoin) hashKey(t types.Tuple, ords []int) (string, bool) {
	h.keyBuf = h.keyBuf[:0]
	for _, o := range ords {
		if t[o].IsNull() {
			return "", false
		}
		h.keyBuf = t[o : o+1].Encode(h.keyBuf)
	}
	return string(h.keyBuf), true
}

// SetAbort installs the abort hook the build and probe loops poll: the
// build drains the whole right input inside Open, and a probe phase with
// no matches drains the left inside one Next call.
func (h *HashJoin) SetAbort(poll func() error) { h.guard = iter.NewGuard(poll) }

// Open builds the hash table from the right input.
func (h *HashJoin) Open() error {
	if err := h.left.Open(); err != nil {
		return err
	}
	if err := h.buildIn.Open(); err != nil {
		return err
	}
	h.table = make(map[string][]types.Tuple)
	for {
		if err := h.guard.Check(); err != nil {
			return err
		}
		t, ok, err := h.buildIn.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		h.buildRows++
		k, valid := h.hashKey(t, h.rightOrds)
		if !valid {
			continue // NULL build keys can never match
		}
		h.table[k] = append(h.table[k], t)
	}
	return nil
}

// Next probes the next left tuple.
func (h *HashJoin) Next() (types.Tuple, bool, error) {
	for {
		if err := h.guard.Check(); err != nil {
			return nil, false, err
		}
		if h.outPos < len(h.outQueue) {
			t := h.outQueue[h.outPos]
			h.outPos++
			return t, true, nil
		}
		h.outQueue = h.outQueue[:0]
		h.outPos = 0

		lt, ok, err := h.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		k, valid := h.hashKey(lt, h.leftOrds)
		var matches []types.Tuple
		if valid {
			matches = h.table[k]
		}
		if len(matches) == 0 {
			if h.joinType == LeftOuterJoin {
				return lt.Concat(nullPad(h.rightWidth)), true, nil
			}
			continue
		}
		if len(matches) == 1 {
			return lt.Concat(matches[0]), true, nil
		}
		for _, rt := range matches {
			h.outQueue = append(h.outQueue, lt.Concat(rt))
		}
	}
}

// Close closes both inputs and drops the table. The build side is closed
// through buildIn so an adapter can return its buffer.
func (h *HashJoin) Close() error {
	h.table = nil
	errL := h.left.Close()
	errR := h.buildIn.Close()
	if errL != nil {
		return errL
	}
	return errR
}
