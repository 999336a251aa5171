package xsort

import (
	"fmt"

	"pyro/internal/iter"
	"pyro/internal/keys"
	"pyro/internal/types"
)

// inputRow is one input row as the sort sees it before buffering it: the
// full encoded sort key (nil from a source that does not key), the row's
// page-format bytes when the input had them — a chunk filled straight from a
// scan does (types.Chunk.EncodedRow), so buffering the row is a copy of that
// span — and the datums, present whenever enc is not: the store encodes t when
// there is no span. All three are views, valid only until the source's next
// refill: a sort that keeps a row copies it into its store, one that hands it
// on copies it into the consumer's chunk first.
type inputRow struct {
	t   types.Tuple
	key []byte
	enc []byte
}

// tupleSource feeds a sort operator its input: it refills a pooled chunk of
// Config.BatchSize rows (one, at 0 or 1) and key-encodes the whole batch at
// once — from the rows' encoded spans when the chunk has them, never
// touching a datum (a scan's chunk is then not even decoded), else from datum
// views through one reused slab. Nothing is allocated per chunk or per row:
// what the sort retains, it retains encoded, in its store.
//
// The batch size never changes what the sort observes: tuples arrive in the
// same order, and a chunk never spans a storage page, so the demand-driven
// I/O of the sort (read exactly as far as the served segment requires) and
// every SortStats counter are identical at every batch size. The sort reads
// input the consumer did not ask for — a lookahead row in Open, a whole
// segment before its first row — which is why the batch is a setting and not
// the consumer's chunk capacity. The caller still counts TuplesIn and polls
// its abort guard per served tuple.
type tupleSource struct {
	it    iter.Iterator
	codec *keys.Codec // nil: rows are served unkeyed (an MRS with nothing to sort)
	ncols int
	batch int
	chunk *types.Chunk
	live  int // rows of the current batch
	slab  []types.Datum
	rows  []types.Tuple // datum views of the batch; empty when it is served from spans
	keys  []byte        // the batch's keys back to back
	ends  []int         // per-row end offsets within keys
	pos   int
	done  bool
}

// newTupleSource builds the source over it.
func newTupleSource(it iter.Iterator, schema *types.Schema, codec *keys.Codec, cfg Config) *tupleSource {
	return &tupleSource{it: it, codec: codec, ncols: schema.Len(), batch: max(cfg.BatchSize, 1)}
}

// buffered reports whether next can serve a row without a refill — without
// asking the input for more.
func (s *tupleSource) buffered() bool { return s.pos < s.live }

// next returns the next input row with its sort key.
func (s *tupleSource) next() (inputRow, bool, error) {
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
	if err := s.it.NextChunk(s.chunk); err != nil {
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

// appendRow copies an input row into c: its span when it has one (decoded
// only if the consumer asks), its datums otherwise.
func appendRow(c *types.Chunk, r inputRow) error {
	if r.enc == nil {
		c.AppendRow(r.t)
		return nil
	}
	return appendEncoded(c, r.enc)
}

// appendEncoded hands one buffered row to the consumer's chunk as a span.
func appendEncoded(c *types.Chunk, row []byte) error {
	if _, err := c.AppendEncoded(row); err != nil {
		return fmt.Errorf("xsort: emitting a buffered row: %w", err)
	}
	return nil
}
