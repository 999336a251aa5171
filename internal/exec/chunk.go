package exec

import "pyro/internal/types"

// ChunkOperator is Operator. It is kept, like ChunkCapable, only because
// cmd/pyro-perf's drain names it; both go when that drain does.
type ChunkOperator = Operator

// ChunkCapable reports true: every operator serves chunks. Kept only for
// cmd/pyro-perf (see ChunkOperator).
func ChunkCapable(Operator) bool { return true }

// rowReader lends the rows of an operator's chunks one at a time: it
// refills a pooled chunk of its own from src.NextChunk and copies each row
// into one reused tuple, valid until the next call. Consumers that keep a
// row clone what they keep. It is how an operator that works a row at a time
// — a merge join advancing its inputs, an aggregate folding its groups —
// reads its children, and, as rowView, how a caller reads an operator.
type rowReader struct {
	src   Operator
	chunk *types.Chunk
	pos   int
	row   types.Tuple
}

// buffered reports whether next can lend a row without asking src for a
// chunk. An operator whose chunk already holds a row stops before a pull:
// the pull may read a page the rows it has do not need.
func (r *rowReader) buffered() bool { return r.chunk != nil && r.pos < r.chunk.Rows() }

// next lends src's next row; ok=false at its end. capacity sizes the chunk
// the first pull allocates: the capacity of the chunk the caller was asked
// to fill, so a consumer's chunk size reaches every operator below it.
func (r *rowReader) next(capacity int) (types.Tuple, bool, error) {
	for !r.buffered() {
		if r.chunk == nil {
			r.chunk = types.GetChunk(r.src.Schema().Len(), capacity)
		}
		if err := r.src.NextChunk(r.chunk); err != nil {
			return nil, false, err
		}
		r.pos = 0
		if r.chunk.Rows() == 0 {
			return nil, false, nil
		}
	}
	r.row = r.chunk.CopyRow(r.row, r.pos)
	r.pos++
	return r.row, true, nil
}

// release returns the chunk to the pool; rows lent from it are dead after.
func (r *rowReader) release() {
	types.PutChunk(r.chunk)
	r.chunk = nil
}

// carve copies a lent row t into storage the caller keeps, cut from *slab.
// A spent slab is replaced by a fresh one of n rows, so rows carved earlier
// stay valid; truncating *slab to zero length recycles it once they are
// dead.
func carve(slab *[]types.Datum, t types.Tuple, n int) types.Tuple {
	if cap(*slab)-len(*slab) < len(t) {
		*slab = make([]types.Datum, 0, n*len(t))
	}
	start := len(*slab)
	*slab = append(*slab, t...)
	return (*slab)[start:len(*slab):len(*slab)]
}

// rowView is Operator.Next, the one row-at-a-time view of an operator. Every
// operator embeds it and is wired to it by lend; it reads the operator's own
// NextChunk through a rowReader at types.DefaultChunkCapacity and lends each
// row until the next call.
type rowView struct{ rows rowReader }

// Next lends the operator's next row; ok=false at its end.
func (v *rowView) Next() (types.Tuple, bool, error) {
	return v.rows.next(types.DefaultChunkCapacity)
}

func (v *rowView) lendTo(op Operator) { v.rows.src = op }

// lend wires op's row view to op's own NextChunk. Every constructor returns
// its operator through it.
func lend[O interface {
	Operator
	lendTo(Operator)
}](op O) O {
	op.lendTo(op)
	return op
}
