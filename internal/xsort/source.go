package xsort

import (
	"fmt"

	"pyro/internal/iter"
	"pyro/internal/keys"
	"pyro/internal/types"
)

// chunkSource is the structural view of the executor's batch protocol
// (exec.ChunkOperator). xsort cannot import exec — exec wraps this package —
// so the sort enforcers duck-type their input instead: any iterator that
// can serve chunks gets its input collection batched.
type chunkSource interface {
	CanChunk() bool
	NextChunk(c *types.Chunk) error
}

// inputRow is one input row as the sort sees it before buffering it: the
// full encoded sort key (nil from a source that does not key), the row's
// page-format bytes when the input had them — a chunk filled straight from a
// scan does (types.Chunk.EncodedRow), so buffering the row is a copy of that
// span — and the datums, present whenever enc is not: the store encodes t when
// there is no span. All three are views, valid only until the source's next
// call: a sort that keeps a row copies it into its store, one that hands it
// on clones it.
type inputRow struct {
	t   types.Tuple
	key []byte
	enc []byte
}

// tupleSource feeds a sort operator its input. In row mode it is a thin
// veneer over input.Next plus one key encode. In batch mode
// (Config.BatchSize > 1 and the input serves chunks) it refills a pooled
// chunk and key-encodes the whole batch at once — from the rows' encoded
// spans when the chunk has them, never touching a datum (a scan's chunk is
// then not even decoded), else from datum views through one reused slab.
// Nothing is allocated per chunk or per row: what the sort retains, it
// retains encoded, in its store.
//
// Batching never changes what the sort observes: tuples arrive in the same
// order, and a chunk never spans a storage page, so the demand-driven I/O
// of MRS (read exactly as far as the served segment requires) and every
// SortStats counter are identical to the row path. The caller still counts
// TuplesIn and polls its abort guard per served tuple.
type tupleSource struct {
	it    iter.Iterator
	codec *keys.Codec // nil: rows are served unkeyed (an MRS with nothing to sort)

	// Batch mode state; cs == nil means row mode.
	cs    chunkSource
	ncols int
	batch int
	chunk *types.Chunk
	live  int // rows of the current batch
	slab  []types.Datum
	rows  []types.Tuple // datum views of the batch; empty when it is served from spans
	keys  []byte        // the batch's keys back to back (row mode: the one key)
	ends  []int         // per-row end offsets within keys
	pos   int
	done  bool
}

// newTupleSource builds the source; it serves rows unless cfg enables
// batching and the input supports it.
func newTupleSource(it iter.Iterator, schema *types.Schema, codec *keys.Codec, cfg Config) *tupleSource {
	s := &tupleSource{it: it, codec: codec}
	if cfg.BatchSize > 1 {
		if cs, ok := it.(chunkSource); ok && cs.CanChunk() {
			s.cs = cs
			s.ncols = schema.Len()
			s.batch = cfg.BatchSize
		}
	}
	return s
}

// next returns the next input row with its sort key.
func (s *tupleSource) next() (inputRow, bool, error) {
	if s.cs == nil {
		t, ok, err := s.it.Next()
		if err != nil || !ok {
			return inputRow{}, false, err
		}
		r := inputRow{t: t}
		if s.codec != nil {
			s.keys = s.codec.Append(s.keys[:0], t)
			r.key = s.keys
		}
		return r, true, nil
	}
	for s.pos >= s.live {
		if s.done {
			return inputRow{}, false, nil
		}
		if err := s.refill(); err != nil {
			return inputRow{}, false, err
		}
	}
	i := s.pos
	s.pos++
	r := inputRow{enc: s.chunk.EncodedRow(i)}
	if len(s.rows) > 0 {
		r.t = s.rows[i]
	}
	if s.codec != nil {
		start := 0
		if i > 0 {
			start = s.ends[i-1]
		}
		r.key = s.keys[start:s.ends[i]]
	}
	return r, true, nil
}

// refill pulls the next chunk and prepares its rows: their keys, and datum
// views unless spans serve.
func (s *tupleSource) refill() error {
	if s.chunk == nil {
		s.chunk = types.GetChunk(s.ncols, s.batch)
	}
	if err := s.cs.NextChunk(s.chunk); err != nil {
		return err
	}
	s.pos, s.live = 0, s.chunk.Rows()
	if s.live == 0 {
		s.done = true
		s.release()
		return nil
	}
	s.rows, s.keys, s.ends = s.rows[:0], s.keys[:0], s.ends[:0]
	codec := s.codec
	if codec != nil && s.chunk.EncodedRow(s.live-1) != nil {
		// Every row has its span (spans cover a prefix of the physical
		// rows): keys come straight from the encoded bytes.
		for i := 0; i < s.live; i++ {
			var err error
			if s.keys, err = codec.AppendEncoded(s.keys, s.chunk.EncodedRow(i)); err != nil {
				return fmt.Errorf("xsort: encoding a sort key: %w", err)
			}
			s.ends = append(s.ends, len(s.keys))
		}
		return nil
	}
	if cap(s.slab) < s.live*s.ncols {
		s.slab = make([]types.Datum, s.live*s.ncols)
	}
	for i := 0; i < s.live; i++ {
		row := s.slab[i*s.ncols : (i+1)*s.ncols : (i+1)*s.ncols]
		s.rows = append(s.rows, s.chunk.CopyRow(row, i))
	}
	if codec != nil {
		s.keys, s.ends = codec.EncodeBatch(s.keys, s.rows, s.ends)
	}
	return nil
}

// release returns the refill chunk to the pool (idempotent; called at EOF
// and from the owning sort's Close). Rows served from it are dead after.
func (s *tupleSource) release() {
	if s.chunk != nil {
		types.PutChunk(s.chunk)
		s.chunk = nil
	}
}

// emitBatch is how many output rows share one datum slab.
const emitBatch = 128

// rowEmitter turns buffered rows back into tuples the consumer may keep: one
// decode per emitted row, into datum arrays carved from a slab allocated per
// emitBatch rows (fewer when fewer remain), so steady-state emission costs
// one allocation per batch plus the rows' strings. The decode loop is
// per-row and column-wise already; emitting into a chunk instead is the same
// loop with the chunk's vectors as the destination.
type rowEmitter struct {
	ncols int
	slab  []types.Datum
}

// carve returns storage for one row. remaining is how many rows, this one
// included, the caller still expects to emit; it sizes the next slab.
func (e *rowEmitter) carve(remaining int64) types.Tuple {
	if len(e.slab) < e.ncols {
		e.slab = make([]types.Datum, int(min(remaining, emitBatch))*e.ncols)
	}
	t := e.slab[:e.ncols:e.ncols]
	e.slab = e.slab[e.ncols:]
	return t
}

// emit decodes one encoded row.
func (e *rowEmitter) emit(enc []byte, remaining int64) (types.Tuple, error) {
	t, _, err := types.DecodeTupleInto(e.carve(remaining), enc)
	if err != nil {
		return nil, fmt.Errorf("xsort: decoding a buffered row: %w", err)
	}
	return t, nil
}

// own copies a row view into storage the consumer may keep.
func (e *rowEmitter) own(t types.Tuple, remaining int64) types.Tuple {
	out := e.carve(remaining)
	copy(out, t)
	return out
}
