package types

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// DefaultChunkCapacity is the capacity of the chunks a query's cursor asks
// its plan's root for; every operator below sizes the chunks it pulls from
// its own inputs from the chunk it was asked to fill, so the tree runs at it
// down to its sort enforcers, which pull their input in chunks of their own
// xsort.Config.BatchSize (core.Build sets it to this). It is large enough to amortize per-batch dispatch over a full
// storage page of tuples, small enough that a chunk of the widest workload
// tuples stays cache-resident.
const DefaultChunkCapacity = 1024

// Chunk is a batch of up to Cap rows in columnar form: one datum vector per
// schema column plus an optional selection vector. It is the unit of the
// executor's one protocol (iter.Iterator's NextChunk): every operator fills
// the chunk it is handed, so per-row interface dispatch and per-tuple
// allocation are paid once per batch instead of once per row.
//
// A filter does not move rows: it marks the surviving physical row indices
// in the selection vector, and downstream consumers iterate live rows
// through it. A nil selection means all physical rows are live.
//
// Chunks are reused aggressively (see GetChunk/PutChunk): the datums a
// chunk holds are only valid until the next NextChunk call that refills it,
// so consumers that retain rows must copy them out (OwnedRow).
//
// Rows that arrive encoded (AppendEncoded — a scan filling the chunk from a
// page, a sort emitting from its row store or a run page) are framed and
// remembered as spans, and decoded into the column vectors only when a
// consumer first asks for a datum of that row or a later one: a consumer
// that reads only the first row of a full chunk decodes one row. A consumer
// that wants the rows in their page format anyway — a sort enforcer buffers
// them encoded — reads the spans (EncodedRow) and the decode never happens.
type Chunk struct {
	cols     [][]Datum
	enc      [][]byte // encoded spans of the first len(enc) physical rows (see EncodedRow)
	decoded  int      // physical rows whose datums are in cols; the rest are spans only
	n        int      // physical rows appended
	sel      []int32  // live physical row indices, nil = all n rows live
	selBuf   []int32  // scratch selection storage, capacity cap(chunk)
	capacity int
}

// NewChunk returns an empty chunk for ncols columns holding up to capacity
// rows (capacity <= 0 picks DefaultChunkCapacity).
func NewChunk(ncols, capacity int) *Chunk {
	c := &Chunk{}
	c.reshape(ncols, capacity)
	return c
}

func (c *Chunk) reshape(ncols, capacity int) {
	if capacity <= 0 {
		capacity = DefaultChunkCapacity
	}
	c.capacity = capacity
	if cap(c.cols) < ncols {
		c.cols = make([][]Datum, ncols)
	}
	c.cols = c.cols[:ncols]
	for j := range c.cols {
		if cap(c.cols[j]) < capacity {
			c.cols[j] = make([]Datum, 0, capacity)
		}
	}
	if cap(c.selBuf) < capacity {
		c.selBuf = make([]int32, 0, capacity)
	}
	c.Reset()
}

// Cap returns the chunk's row capacity.
func (c *Chunk) Cap() int { return c.capacity }

// NumCols returns the number of column vectors.
func (c *Chunk) NumCols() int { return len(c.cols) }

// Reset empties the chunk (keeping its buffers) and clears the selection.
func (c *Chunk) Reset() {
	for j := range c.cols {
		c.cols[j] = c.cols[j][:0]
	}
	c.enc = c.enc[:0]
	c.n, c.decoded = 0, 0
	c.sel = nil
}

// materialize decodes the rows held as spans only, up to physical row phys,
// into the column vectors.
func (c *Chunk) materialize(phys int) {
	for ; c.decoded <= phys; c.decoded++ {
		c.decodeRow(c.enc[c.decoded])
	}
}

// decodeRow appends the datums of one framed tuple to the column vectors.
func (c *Chunk) decodeRow(buf []byte) {
	pos := 4
	for j := range c.cols {
		k := len(c.cols[j])
		c.cols[j] = append(c.cols[j], Datum{})
		sz, err := decodeDatum(&c.cols[j][k], buf[pos:])
		if err != nil {
			// AppendEncoded framed these bytes with EncodedTupleLen, which
			// FuzzEncodedTupleLen holds to the decoder's verdict.
			panic(fmt.Sprintf("types: framed row does not decode: %v", err))
		}
		pos += sz
	}
}

// Full reports whether the chunk has reached its capacity.
func (c *Chunk) Full() bool { return c.n >= c.capacity }

// Rows returns the number of live rows: the selection's length when one is
// set, the physical row count otherwise.
func (c *Chunk) Rows() int {
	if c.sel != nil {
		return len(c.sel)
	}
	return c.n
}

// Sel returns the selection vector (nil = all physical rows live).
func (c *Chunk) Sel() []int32 { return c.sel }

// SetSel installs a selection vector of live physical row indices, in
// ascending order. The slice is retained, not copied.
func (c *Chunk) SetSel(sel []int32) { c.sel = sel }

// SelScratch returns the chunk's scratch selection buffer, empty, with
// capacity Cap. Filters fill it with surviving indices and hand it back via
// SetSel; writing survivor j while reading live row i is safe because
// j <= i always holds (survivors are a subsequence of the rows read).
func (c *Chunk) SelScratch() []int32 { return c.selBuf[:0] }

// RowIndex returns the physical index of live row i.
func (c *Chunk) RowIndex(i int) int {
	if c.sel != nil {
		return int(c.sel[i])
	}
	return i
}

// DatumAt returns the datum of column col at live row i.
func (c *Chunk) DatumAt(col, i int) Datum {
	phys := c.RowIndex(i)
	if phys >= c.decoded {
		c.materialize(phys)
	}
	return c.cols[col][phys]
}

// AppendRow appends one physical row. The tuple's arity must match the
// chunk's column count and the chunk must not be full.
func (c *Chunk) AppendRow(t Tuple) {
	if c.decoded < c.n {
		c.materialize(c.n - 1)
	}
	c.decoded++
	for j := range c.cols {
		c.cols[j] = append(c.cols[j], t[j])
	}
	c.n++
}

// CopyRow materializes live row i into dst (reallocating only when dst is
// too small) and returns it. The result aliases dst, not the chunk: it
// stays valid after the chunk is refilled, but a second CopyRow into the
// same dst overwrites it.
func (c *Chunk) CopyRow(dst Tuple, i int) Tuple {
	phys := c.RowIndex(i)
	if phys >= c.decoded {
		c.materialize(phys)
	}
	if cap(dst) < len(c.cols) {
		dst = make(Tuple, len(c.cols))
	}
	dst = dst[:len(c.cols)]
	for j := range c.cols {
		dst[j] = c.cols[j][phys]
	}
	return dst
}

// OwnedRow returns live row i as a freshly allocated tuple the caller may
// retain.
func (c *Chunk) OwnedRow(i int) Tuple {
	return c.CopyRow(nil, i)
}

// Truncate keeps only the first k live rows (no-op when k >= Rows).
func (c *Chunk) Truncate(k int) {
	if k >= c.Rows() {
		return
	}
	if c.sel != nil {
		c.sel = c.sel[:k]
		return
	}
	if c.decoded > k {
		for j := range c.cols {
			c.cols[j] = c.cols[j][:k]
		}
		c.decoded = k
	}
	if len(c.enc) > k {
		c.enc = c.enc[:k]
	}
	c.n = k
}

// AppendEncoded appends one encoded tuple (the Tuple.Encode layout) from the
// start of buf — the batch path's replacement for DecodeTuple, skipping the
// per-row tuple allocation — and returns the number of bytes consumed. The
// tuple is framed and checked here (its arity must match the chunk's column
// count) but decoded into the column vectors only on first use; the chunk
// keeps the consumed span (EncodedRow), so buf must stay unmodified for as
// long as the chunk holds the row.
func (c *Chunk) AppendEncoded(buf []byte) (int, error) {
	pos, err := EncodedTupleLen(buf)
	if err != nil {
		return 0, err
	}
	if n := int(binary.BigEndian.Uint32(buf[:4])); n != len(c.cols) {
		return 0, fmt.Errorf("types: encoded tuple has arity %d, chunk wants %d", n, len(c.cols))
	}
	if len(c.enc) < c.n {
		// Rows without spans came first (AppendRow): from there on the
		// chunk is columnar only.
		c.decodeRow(buf)
		c.decoded++
	} else {
		c.enc = append(c.enc, buf[:pos:pos])
	}
	c.n++
	return pos, nil
}

// Detach decodes the rows held as spans and drops the spans, so the chunk no
// longer refers to its producer's buffers. A consumer that closes the
// producer while its rows are still in flight — a Limit closing its child at
// the K-th row — detaches them first.
func (c *Chunk) Detach() {
	if c.decoded < c.n {
		c.materialize(c.n - 1)
	}
	c.enc = c.enc[:0]
}

// EncodedRow returns the Tuple.Encode bytes live row i was decoded from, or
// nil when the chunk does not have them: spans are kept for the leading
// physical rows that arrived through AppendEncoded — all of them when a scan
// filled the chunk straight from a page — and survive selection and
// truncation, which move no row. A consumer that wants rows in their page
// format (a sort buffering them encoded) copies the span instead of
// re-encoding the datums. The slice aliases the producer's page buffer and
// is valid exactly as long as the row's datums are.
func (c *Chunk) EncodedRow(i int) []byte {
	if phys := c.RowIndex(i); phys < len(c.enc) {
		return c.enc[phys]
	}
	return nil
}

// chunkPool recycles chunks across operators and queries so steady-state
// batch execution allocates nothing per chunk, let alone per row.
var chunkPool sync.Pool

// GetChunk returns an empty pooled chunk shaped for ncols columns and up to
// capacity rows (capacity <= 0 picks DefaultChunkCapacity). Pair with
// PutChunk when the holder is done.
func GetChunk(ncols, capacity int) *Chunk {
	c, _ := chunkPool.Get().(*Chunk)
	if c == nil {
		c = &Chunk{}
	}
	c.reshape(ncols, capacity)
	return c
}

// PutChunk returns a chunk to the pool. The caller must not use it again.
func PutChunk(c *Chunk) {
	if c == nil {
		return
	}
	clear(c.enc) // a pooled chunk must not pin the pages its last rows came from
	c.Reset()
	chunkPool.Put(c)
}
