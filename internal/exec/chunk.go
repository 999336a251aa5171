package exec

import (
	"pyro/internal/iter"
	"pyro/internal/types"
)

// ChunkOperator is the batch half of the executor's hybrid protocol.
// Operators that can deliver their output a chunk at a time implement it
// alongside the row Operator interface. Chunks hold up to
// types.DefaultChunkCapacity rows; there is no other setting. Row-only
// operators (sorts, merge and nested-loops joins, aggregate output, fetch)
// keep Next, and so does every operator above one of them: a Filter over a
// Sort runs row at a time. A row consumer over a chunk-capable child — an
// aggregate's input, a hash join's build side — reads it through a
// rowAdapter (see rowInput).
//
// The protocol's I/O-identity contract: a NextChunk call may perform only
// the work the row path's next Next call would perform, plus free work —
// decoding rows co-resident on a page that call already read, or copying
// rows already materialized in memory. Chunks therefore never cross a page
// boundary, and a consumer that stops mid-stream has charged exactly the
// row path's I/O and sort counters.
type ChunkOperator interface {
	Operator

	// CanChunk reports whether the batch path is available for this
	// operator instance. Interior operators cascade: a Filter can chunk
	// iff its child can.
	CanChunk() bool

	// NextChunk overwrites c with the operator's next batch, possibly
	// with a selection vector installed. Rows() == 0 means end of
	// stream. The chunk's contents are valid only until the next call
	// that refills it.
	NextChunk(c *types.Chunk) error
}

// ChunkCapable reports whether op offers the batch path.
func ChunkCapable(op Operator) bool {
	co, ok := op.(ChunkOperator)
	return ok && co.CanChunk()
}

// rowAdapter bridges a chunk-capable subtree to a row-at-a-time consumer:
// it drains chunks from src and serves them one owned tuple per Next.
// Consumers that retain rows (aggregates, join builds) need ownership
// anyway, so the per-row copy here costs what the row path's DecodeTuple
// already paid. The adapter is plumbing, not a plan node — consumers keep
// the real child for Children(), so Walk and CollectSorts see the
// unchanged tree.
type rowAdapter struct {
	src   ChunkOperator
	chunk *types.Chunk
	pos   int
	done  bool
}

// rowInput is the row stream a consumer pulls from op: op itself when it
// is row-only, a rowAdapter over it when it serves chunks.
func rowInput(op Operator) iter.Iterator {
	if !ChunkCapable(op) {
		return op
	}
	return &rowAdapter{src: op.(ChunkOperator)}
}

// Open opens the underlying operator.
func (a *rowAdapter) Open() error {
	a.pos = 0
	a.done = false
	a.release()
	return a.src.Open()
}

// Next serves the next row of the current chunk, refilling at chunk
// boundaries.
func (a *rowAdapter) Next() (types.Tuple, bool, error) {
	if a.done {
		return nil, false, nil
	}
	for a.chunk == nil || a.pos >= a.chunk.Rows() {
		if a.chunk == nil {
			a.chunk = types.GetChunk(a.src.Schema().Len(), types.DefaultChunkCapacity)
		}
		if err := a.src.NextChunk(a.chunk); err != nil {
			return nil, false, err
		}
		a.pos = 0
		if a.chunk.Rows() == 0 {
			a.done = true
			a.release()
			return nil, false, nil
		}
	}
	t := a.chunk.OwnedRow(a.pos)
	a.pos++
	return t, true, nil
}

// Close returns the buffered chunk to the pool and closes the operator.
func (a *rowAdapter) Close() error {
	a.release()
	return a.src.Close()
}

func (a *rowAdapter) release() {
	if a.chunk != nil {
		types.PutChunk(a.chunk)
		a.chunk = nil
	}
}
