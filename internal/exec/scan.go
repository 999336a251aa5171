package exec

import (
	"fmt"

	"pyro/internal/catalog"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// TableScan reads a table's heap file sequentially. If the table is
// clustered the scan delivers tuples in the clustering order — the paper's
// "clustering index scan" when that order is wanted, a plain table scan
// otherwise; the I/O cost is identical (one sequential pass).
type TableScan struct {
	rowView
	table  *catalog.Table
	tap    *storage.Tap
	reader *storage.TupleReader
	rows   int64
}

// NewTableScan returns a scan over the table heap.
func NewTableScan(t *catalog.Table) *TableScan {
	return lend(&TableScan{table: t})
}

// SetIOTap attributes this scan's page reads to a per-query tap (nil taps
// nothing). Must be called before Open.
func (s *TableScan) SetIOTap(t *storage.Tap) { s.tap = t }

// Schema returns the table schema.
func (s *TableScan) Schema() *types.Schema { return s.table.Schema }

// Children returns nil: scans are leaves.
func (s *TableScan) Children() []Operator { return nil }

// Table returns the scanned table.
func (s *TableScan) Table() *catalog.Table { return s.table }

// Rows returns the number of tuples produced so far.
func (s *TableScan) Rows() int64 { return s.rows }

// Open positions the scan at the first page.
func (s *TableScan) Open() error {
	s.reader = storage.NewTupleReader(s.table.File().Tapped(s.tap))
	s.rows = 0
	return nil
}

// NextChunk fills c with the tuples remaining on the current heap page,
// framing its rows as spans decoded on first use. A chunk never spans pages,
// so consumers of any chunk capacity charge identical I/O at any stop point.
func (s *TableScan) NextChunk(c *types.Chunk) error {
	c.Reset()
	n, err := s.reader.ReadChunk(c)
	s.rows += int64(n)
	return err
}

// Close releases the reader.
func (s *TableScan) Close() error {
	s.reader = nil
	return nil
}

// IndexScan reads a covering secondary index sequentially, producing the
// index's stored columns in its key order — the efficient source of sort
// orders that motivates much of the paper ("query covering indices make it
// very efficient to obtain desired sort orders without accessing the data
// pages").
type IndexScan struct {
	rowView
	index  *catalog.Index
	tap    *storage.Tap
	reader *storage.TupleReader
	rows   int64
}

// NewIndexScan returns a scan over the index file. The caller must have
// verified the index covers the attributes the query needs above this scan.
func NewIndexScan(ix *catalog.Index) *IndexScan {
	return lend(&IndexScan{index: ix})
}

// Schema returns the stored index schema (key columns then includes).
func (s *IndexScan) Schema() *types.Schema { return s.index.Schema() }

// Children returns nil: scans are leaves.
func (s *IndexScan) Children() []Operator { return nil }

// Index returns the scanned index.
func (s *IndexScan) Index() *catalog.Index { return s.index }

// Rows returns the number of tuples produced so far.
func (s *IndexScan) Rows() int64 { return s.rows }

// Open positions the scan at the first index page.
func (s *IndexScan) Open() error {
	s.reader = storage.NewTupleReader(s.index.File().Tapped(s.tap))
	s.rows = 0
	return nil
}

// NextChunk fills c with the tuples remaining on the current index page.
func (s *IndexScan) NextChunk(c *types.Chunk) error {
	c.Reset()
	n, err := s.reader.ReadChunk(c)
	s.rows += int64(n)
	return err
}

// Close releases the reader.
func (s *IndexScan) Close() error {
	s.reader = nil
	return nil
}

// Values is a leaf operator over literal rows (tests, tools, VALUES lists).
type Values struct {
	rowView
	schema *types.Schema
	rows   []types.Tuple
	pos    int
}

// NewValues builds a literal-rows operator. Rows must match the schema arity.
func NewValues(schema *types.Schema, rows []types.Tuple) (*Values, error) {
	for i, r := range rows {
		if len(r) != schema.Len() {
			return nil, fmt.Errorf("exec: values row %d has arity %d, schema wants %d", i, len(r), schema.Len())
		}
	}
	return lend(&Values{schema: schema, rows: rows}), nil
}

// Schema returns the declared schema.
func (v *Values) Schema() *types.Schema { return v.schema }

// Children returns nil: literal rows are a leaf.
func (v *Values) Children() []Operator { return nil }

// Open resets the cursor.
func (v *Values) Open() error { v.pos = 0; return nil }

// NextChunk fills c to capacity from the literal rows (already in memory,
// so batching them costs no extra work at any stop point).
func (v *Values) NextChunk(c *types.Chunk) error {
	c.Reset()
	for v.pos < len(v.rows) && !c.Full() {
		c.AppendRow(v.rows[v.pos])
		v.pos++
	}
	return nil
}

// Close is a no-op.
func (v *Values) Close() error { return nil }
