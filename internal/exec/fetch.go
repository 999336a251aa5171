package exec

import (
	"encoding/binary"
	"fmt"

	"pyro/internal/catalog"
	"pyro/internal/iter"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// Fetch completes partial rows with a clustered key lookup: its child
// delivers tuples that contain the table's clustering-key columns (e.g.
// entries of a non-covering secondary index), and Fetch looks up the full
// heap row for each. This implements the deferred tuple fetch the paper's
// §7 names as future work: "Deferring the fetch until a point where the
// extra attributes are actually needed can be very effective when a highly
// selective filter discards many rows before the fetch is needed."
//
// Each fetch charges one heap page read plus one seek (the clustering
// B-tree's inner nodes are assumed cached; the page directory stands in
// for them). Duplicate clustering keys are supported — all matches are
// returned — but the common use is unique keys.
type Fetch struct {
	rowView
	child    Operator
	table    *catalog.Table
	tap      *storage.Tap
	file     *storage.File // tapped heap view, bound once in Open
	keyOrds  []int         // child ordinals of the clustering-key columns
	in       rowReader
	key      types.Tuple // the clustering key being looked up
	queue    []types.Tuple
	queuePos int
	fetches  int64
	ks       types.KeySpec // table-side key spec (for in-page scan)
	guard    iter.Guard    // strided abort poll for the fetch loop
}

// NewFetch builds a deferred-fetch operator. childKeyCols names the child
// columns carrying the table's clustering key, positionally aligned with
// the table's clustering order.
func NewFetch(child Operator, table *catalog.Table, childKeyCols []string) (*Fetch, error) {
	if !table.HasPageDirectory() {
		return nil, fmt.Errorf("exec: table %q has no clustering directory for fetch", table.Name)
	}
	if len(childKeyCols) != table.ClusterOrder.Len() {
		return nil, fmt.Errorf("exec: fetch key arity %d != clustering arity %d",
			len(childKeyCols), table.ClusterOrder.Len())
	}
	ords := make([]int, len(childKeyCols))
	for i, c := range childKeyCols {
		j, ok := child.Schema().Ordinal(c)
		if !ok {
			return nil, fmt.Errorf("exec: fetch key %q not in %v", c, child.Schema().Names())
		}
		ords[i] = j
	}
	ks, err := types.MakeKeySpec(table.Schema, table.ClusterOrder)
	if err != nil {
		return nil, err
	}
	return lend(&Fetch{child: child, table: table, keyOrds: ords, ks: ks, in: rowReader{src: child}}), nil
}

// Schema returns the full table schema (the fetch completes the row).
func (f *Fetch) Schema() *types.Schema { return f.table.Schema }

// Children returns the key-producing input (the fetched table is storage,
// not an operator).
func (f *Fetch) Children() []Operator { return []Operator{f.child} }

// Fetches returns the number of heap lookups performed.
func (f *Fetch) Fetches() int64 { return f.fetches }

// Open opens the child and binds the (tapped) heap file.
func (f *Fetch) Open() error {
	f.queue, f.queuePos, f.fetches = nil, 0, 0
	f.file = f.table.File().Tapped(f.tap)
	return f.child.Open()
}

// NextChunk fills c with the heap rows of the next child rows' keys. Every
// lookup reads a page, so once c holds a row the fetch ends the chunk rather
// than look up another key: a chunk holds one key's matches.
func (f *Fetch) NextChunk(c *types.Chunk) error {
	c.Reset()
	for !c.Full() {
		if err := f.guard.Check(); err != nil {
			return err
		}
		if f.queuePos < len(f.queue) {
			c.AppendRow(f.queue[f.queuePos])
			f.queuePos++
			continue
		}
		if c.Rows() > 0 {
			return nil
		}
		f.queue, f.queuePos = f.queue[:0], 0
		ct, ok, err := f.in.next(c.Cap())
		if err != nil || !ok {
			return err
		}
		f.key = f.key[:0]
		for _, o := range f.keyOrds {
			f.key = append(f.key, ct[o])
		}
		if err := f.lookup(f.key); err != nil {
			return err
		}
	}
	return nil
}

// lookup reads the heap page(s) holding key and queues every matching row.
func (f *Fetch) lookup(key types.Tuple) error {
	page := f.table.LookupPage(key)
	if page < 0 {
		return fmt.Errorf("exec: fetch on table %q without directory", f.table.Name)
	}
	f.fetches++
	file := f.file
	file.Seek() // random access positioning
	for ; page < file.NumPages(); page++ {
		data, err := file.ReadPage(page)
		if err != nil {
			return err
		}
		n := int(binary.BigEndian.Uint16(data[:2]))
		pos := 2
		past := false
		for i := 0; i < n; i++ {
			row, sz, err := types.DecodeTuple(data[pos:])
			if err != nil {
				return err
			}
			pos += sz
			c := f.compareRowToKey(row, key)
			if c == 0 {
				f.queue = append(f.queue, row)
			} else if c > 0 {
				past = true
				break
			}
		}
		// The heap is sorted on the key: once any row exceeds it, no later
		// page can match. Otherwise duplicates may continue on the next
		// page.
		if past {
			break
		}
	}
	return nil
}

func (f *Fetch) compareRowToKey(row, key types.Tuple) int {
	for i, ord := range f.ks.Ordinals {
		if c := row[ord].Compare(key[i]); c != 0 {
			return c
		}
	}
	return 0
}

// Close closes the child.
func (f *Fetch) Close() error {
	f.in.release()
	return f.child.Close()
}
