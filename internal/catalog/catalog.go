// Package catalog holds table and index metadata plus the statistics the
// optimizer's cost model consumes: row counts, per-column distinct counts,
// average widths, clustering orders and covering secondary indices.
//
// Tables are bulk-loaded: the loader sorts rows by the clustering order,
// writes the heap file, materialises every secondary index (key columns
// plus included columns, sorted by key), and gathers exact statistics in
// one pass. The workloads are generated, so exact distinct counts are cheap
// and sidestep estimation noise the paper does not study.
package catalog

import (
	"fmt"
	"slices"
	"sort"

	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// Stats carries optimizer statistics for one relation.
type Stats struct {
	NumRows  int64
	Distinct map[string]int64 // exact per-column distinct counts
	// KeyCols is a verified candidate key (the clustering order when the
	// loader found it unique), or nil. Exact, not estimated — the
	// optimizer derives functional dependencies from it, so soundness
	// matters (estimated distinct counts saturate at NumRows and would
	// fabricate false keys).
	KeyCols []string
}

// DistinctOn estimates D(e, s): the number of distinct values of the column
// set s, as the product of per-column distinct counts capped at the row
// count (attribute-independence and uniformity assumptions, as in §3.2 of
// the paper). Unknown columns contribute a conservative factor of NumRows.
func (st Stats) DistinctOn(attrs []string) int64 {
	if st.NumRows == 0 {
		return 0
	}
	d := int64(1)
	for _, a := range attrs {
		da, ok := st.Distinct[a]
		if !ok || da <= 0 {
			return st.NumRows
		}
		if d > st.NumRows/max64(da, 1) {
			return st.NumRows // would overflow past the cap anyway
		}
		d *= da
	}
	return min64(d, st.NumRows)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Index is a secondary index: rows sorted by the key order, storing the key
// columns plus any included columns (a covering index when the stored set
// contains every attribute a query needs, as in the paper's §1 footnote).
type Index struct {
	Name     string
	Table    *Table
	KeyOrder sortord.Order
	Included []string
	file     *storage.File
	schema   *types.Schema
}

// Schema returns the index's stored schema (key columns then includes).
func (ix *Index) Schema() *types.Schema { return ix.schema }

// File returns the materialised index file, sorted by KeyOrder.
func (ix *Index) File() *storage.File { return ix.file }

// StoredAttrs returns the set of attributes stored in the index.
func (ix *Index) StoredAttrs() sortord.AttrSet { return ix.schema.AttrSet() }

// Covers reports whether the index stores every attribute in need.
func (ix *Index) Covers(need sortord.AttrSet) bool {
	return ix.StoredAttrs().ContainsAll(need)
}

// NumBlocks returns the index size in pages.
func (ix *Index) NumBlocks() int64 { return int64(ix.file.NumPages()) }

// Table is a base relation: schema, heap file, clustering order, statistics
// and secondary indices.
type Table struct {
	Name         string
	Schema       *types.Schema
	ClusterOrder sortord.Order // physical sort order of the heap file; may be ε
	Stats        Stats
	Indices      []*Index
	file         *storage.File
	// pageFirstKeys holds, per heap page, the clustering-key values of the
	// page's first tuple (key columns only, in clustering order) — the
	// "inner nodes" of the clustering index, built free of charge at load
	// time (real B-tree inner nodes are tiny and stay cached). Enables
	// clustered key lookups (deferred fetch, §7 of the paper).
	pageFirstKeys []types.Tuple
}

// compareKeyTuples compares two plain key tuples positionally.
func compareKeyTuples(a, b types.Tuple) int {
	for i := range a {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// LookupPage returns the first heap page that may contain the given
// clustering key: the last page whose first key is strictly below key
// (duplicate keys may begin mid-page and spill onto later pages, so the
// scan must start here and move forward). The key tuple lists the
// clustering columns in clustering order. -1 when no directory exists.
func (t *Table) LookupPage(key types.Tuple) int {
	if len(t.pageFirstKeys) == 0 {
		return -1
	}
	lo, hi := 0, len(t.pageFirstKeys)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if compareKeyTuples(t.pageFirstKeys[mid], key) < 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// HasPageDirectory reports whether clustered lookups are possible.
func (t *Table) HasPageDirectory() bool { return len(t.pageFirstKeys) > 0 }

// File returns the heap file.
func (t *Table) File() *storage.File { return t.file }

// NumBlocks returns the heap size in pages (B(R) in the paper).
func (t *Table) NumBlocks() int64 { return int64(t.file.NumPages()) }

// Index returns the named index, or nil.
func (t *Table) Index(name string) *Index {
	for _, ix := range t.Indices {
		if ix.Name == name {
			return ix
		}
	}
	return nil
}

// Catalog is the set of tables on one simulated disk.
type Catalog struct {
	disk   *storage.Disk
	tables map[string]*Table
}

// New returns an empty catalog over the disk.
func New(disk *storage.Disk) *Catalog {
	return &Catalog{disk: disk, tables: make(map[string]*Table)}
}

// Disk returns the underlying simulated disk.
func (c *Catalog) Disk() *storage.Disk { return c.disk }

// Table returns the named table or an error.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// TableNames lists tables in deterministic order.
func (c *Catalog) TableNames() []string {
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CreateTable bulk-loads a table: rows are sorted by clusterOrder (if any),
// written to a heap file, and exact statistics collected. Loading I/O is
// not charged to the disk ledger — experiments measure query I/O, not load.
func (c *Catalog) CreateTable(name string, schema *types.Schema, clusterOrder sortord.Order, rows []types.Tuple) (*Table, error) {
	if _, exists := c.tables[name]; exists {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	if !schema.HasAll(clusterOrder.Attrs()) {
		return nil, fmt.Errorf("catalog: cluster order %v not in schema of %q", clusterOrder, name)
	}
	sorted := append([]types.Tuple(nil), rows...)
	if !clusterOrder.IsEmpty() {
		ks, err := types.MakeKeySpec(schema, clusterOrder)
		if err != nil {
			return nil, err
		}
		slices.SortStableFunc(sorted, ks.Compare)
	}
	file := c.disk.Create("table."+name, storage.KindData)
	w := storage.NewTupleWriter(file)
	for _, tup := range sorted {
		if err := w.Write(tup); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	// Build the page directory for clustered tables (key columns only).
	var pageKeys []types.Tuple
	if !clusterOrder.IsEmpty() {
		ords := make([]int, len(clusterOrder))
		for i, a := range clusterOrder {
			ords[i] = schema.MustOrdinal(a)
		}
		for _, start := range w.PageStarts() {
			key := make(types.Tuple, len(ords))
			for i, o := range ords {
				key[i] = sorted[start][o]
			}
			pageKeys = append(pageKeys, key)
		}
	}
	t := &Table{
		Name:          name,
		Schema:        schema,
		ClusterOrder:  clusterOrder.Clone(),
		Stats:         gatherStats(schema, sorted),
		file:          file,
		pageFirstKeys: pageKeys,
	}
	if !clusterOrder.IsEmpty() && isUniqueOn(schema, sorted, clusterOrder) {
		t.Stats.KeyCols = append([]string(nil), clusterOrder...)
	}
	c.tables[name] = t
	// Loading must not pollute query measurements.
	c.disk.ResetStats()
	return t, nil
}

// CreateIndex materialises a secondary index on the table: key columns in
// keyOrder, plus included columns, sorted by key. Rows are read back from
// the table's heap (charges no I/O: see CreateTable).
func (c *Catalog) CreateIndex(name string, table *Table, keyOrder sortord.Order, included []string) (*Index, error) {
	if table.Index(name) != nil {
		return nil, fmt.Errorf("catalog: index %q already exists on %q", name, table.Name)
	}
	if !table.Schema.HasAll(keyOrder.Attrs()) {
		return nil, fmt.Errorf("catalog: index key %v not in schema of %q", keyOrder, table.Name)
	}
	cols := append([]string(nil), keyOrder...)
	seen := keyOrder.Attrs()
	for _, inc := range included {
		if !table.Schema.Has(inc) {
			return nil, fmt.Errorf("catalog: included column %q not in schema of %q", inc, table.Name)
		}
		if !seen.Contains(inc) {
			seen.Add(inc)
			cols = append(cols, inc)
		}
	}
	ixSchema := table.Schema.Project(cols)
	rows, err := storage.ReadAll(table.file)
	if err != nil {
		return nil, err
	}
	ords := make([]int, len(cols))
	for i, col := range cols {
		ords[i] = table.Schema.MustOrdinal(col)
	}
	proj := make([]types.Tuple, len(rows))
	for i, r := range rows {
		p := make(types.Tuple, len(ords))
		for j, o := range ords {
			p[j] = r[o]
		}
		proj[i] = p
	}
	ks := types.MustKeySpec(ixSchema, keyOrder)
	slices.SortStableFunc(proj, ks.Compare)
	file := c.disk.Create(fmt.Sprintf("index.%s.%s", table.Name, name), storage.KindData)
	if err := storage.WriteAll(file, proj); err != nil {
		return nil, err
	}
	ix := &Index{
		Name:     name,
		Table:    table,
		KeyOrder: keyOrder.Clone(),
		Included: append([]string(nil), included...),
		file:     file,
		schema:   ixSchema,
	}
	table.Indices = append(table.Indices, ix)
	c.disk.ResetStats()
	return ix, nil
}

// isUniqueOn reports whether the column set of order o is duplicate-free in
// rows (rows must already be sorted by o, as after clustering).
func isUniqueOn(schema *types.Schema, rows []types.Tuple, o sortord.Order) bool {
	ks, err := types.MakeKeySpec(schema, o)
	if err != nil {
		return false
	}
	for i := 1; i < len(rows); i++ {
		if ks.Compare(rows[i-1], rows[i]) == 0 {
			return false
		}
	}
	return true
}

func gatherStats(schema *types.Schema, rows []types.Tuple) Stats {
	st := Stats{NumRows: int64(len(rows)), Distinct: make(map[string]int64, schema.Len())}
	for i := 0; i < schema.Len(); i++ {
		seen := make(map[string]struct{})
		var buf []byte
		for _, r := range rows {
			buf = r[i : i+1].Encode(buf[:0])
			seen[string(buf)] = struct{}{}
		}
		st.Distinct[schema.Col(i).Name] = int64(len(seen))
	}
	return st
}
