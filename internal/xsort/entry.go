package xsort

import (
	"pyro/internal/keys"
	"pyro/internal/sortord"
	"pyro/internal/types"
)

// Fixed-width sort entries (the DuckDB SortLayout shape). Beside every row a
// sort buffers, its store (store.go) keeps one fixed-size entry
//
//	[ width bytes: normalized-key prefix, zero-padded ][ 1 byte: flags ][ u32 row offset ]
//
// where the prefix is the first `width` bytes of the row's encoded sort key
// past the keyer's shared-prefix skip, and the tie flag records whether the
// full key was longer than width (truncated). Two entries whose prefixes
// differ are ordered by one bytes.Compare of width bytes — no row decode, no
// key re-encode; a prefix tie needs the key's overflow, kept beside the row,
// if and only if BOTH entries are truncated — keys.Codec.AppendFixed documents
// why the mixed case cannot tie. Entries exist in memory only: a spill writes
// the rows and nothing else (merge.go).

// entryOverhead is the per-entry bytes past the key prefix: the flag byte and
// the u32 row offset.
const entryOverhead = 5

// entryWidth fixes a sort's entry prefix width at construction. codec is the
// sort's key codec and prefixCols the number of leading key columns every key
// the sort compares is known to share (MRS's `given` prefix; 0 for SRS): the
// width is sized for the suffix columns the entries actually discriminate on,
// and capped so that at least one entry fits a block. On a page too small for
// that every key counts as truncated.
func entryWidth(codec *keys.Codec, prefixCols, pageSize int) int {
	return max(min(codec.FixedWidthHint(prefixCols), pageSize-2-entryOverhead), 0)
}

// FootprintBlocks estimates the sort memory, in blocks of pageSize bytes, that
// buffering rows rows of schema takes a sort to target whose input already
// carries given: the blocks their encoded bytes fill (average width) plus the
// blocks their store entries fill — never fewer than one of each. It is the
// one definition of "do these rows fit M": the governor's ask for a bounded
// sort, the optimizer's owed-rows test and the cost model's BoundedSort all
// go through it, and it is how a rowStore holding those rows would count
// itself. The entry is sized from the kinds of the key columns past given,
// as entryWidth sizes it from the codec; a target attribute schema lacks —
// no sort can be built for such a plan — adds nothing. rows must be small
// enough for rows × width not to overflow.
func FootprintBlocks(schema *types.Schema, target, given sortord.Order, rows int64, pageSize int) int64 {
	var buf [8]types.Kind
	kinds := buf[:0]
	for _, a := range target[min(given.Len(), target.Len()):] {
		if ord, ok := schema.Ordinal(a); ok {
			kinds = append(kinds, schema.Col(ord).Kind)
		}
	}
	entry := int64(entryOverhead + keys.FixedWidth(kinds...))
	page := int64(pageSize)
	blocks := func(width int64) int64 { return max((rows*width+page-1)/page, 1) }
	return blocks(int64(schema.AvgEncodedWidth())) + blocks(entry)
}
