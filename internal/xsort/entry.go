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
// the sort compares is known to share (the `given` prefix; 0 for a full sort): the
// width is sized for the suffix columns the entries actually discriminate on,
// and capped so that at least one entry fits a block. On a page too small for
// that every key counts as truncated.
func entryWidth(codec *keys.Codec, prefixCols, pageSize int) int {
	return max(min(codec.FixedWidthHint(prefixCols), pageSize-2-entryOverhead), 0)
}

// FootprintBlocks estimates the sort memory, in blocks of pageSize bytes, that
// buffering rows rows of schema takes a bounded sort to target whose input
// already carries given, as its store packs them (footprint.blocks). It is
// what the governor asks for a bounded sort.
func FootprintBlocks(schema *types.Schema, target, given sortord.Order, rows int64, pageSize int) int64 {
	return Spec{Schema: schema, Target: target, Given: given}.footprint().blocks(rows, false, pageSize)
}

// footprint is what one buffered row takes in sort memory, in bytes: its
// encoded row and its store entry.
type footprint struct{ row, entry int64 }

// footprint returns the footprint of a row of s: its encoded row at the
// schema's average width, and its store entry, sized from the kinds of the
// key columns past Given as entryWidth sizes it from the codec. A target
// attribute the schema lacks — no sort can be built for such a plan — adds
// nothing.
func (s Spec) footprint() footprint {
	var buf [8]types.Kind
	kinds := buf[:0]
	for _, a := range s.Target[min(s.Given.Len(), s.Target.Len()):] {
		if ord, ok := s.Schema.Ordinal(a); ok {
			kinds = append(kinds, s.Schema.Col(ord).Kind)
		}
	}
	return footprint{int64(s.Schema.AvgEncodedWidth()), int64(entryOverhead + keys.FixedWidth(kinds...))}
}

// blocks is the one answer to "how much sort memory do rows rows take": the
// blocks of pageSize bytes a store fills with their rows — each rounded up to
// the slot granule in a padded store — and their entries, each packed whole
// into a block, never fewer than one of each. The governor's ask
// (FootprintBlocks) and PlanSpill's memory load both go through it.
func (f footprint) blocks(rows int64, padded bool, pageSize int) int64 {
	return max(packed(rows, f.slot(padded), pageSize), 1) + max(packed(rows, f.entry, pageSize), 1)
}

// slot is the store bytes a row takes: its encoded width, rounded up to the
// slot granule in a padded store.
func (f footprint) slot(padded bool) int64 {
	if padded {
		return (f.row + slotGranule - 1) / slotGranule * slotGranule
	}
	return f.row
}

// perBlock is how many items of width bytes a block of pageSize bytes holds,
// each packed whole — never fewer than one.
func perBlock(width int64, pageSize int) int64 { return max(int64(pageSize)/max(width, 1), 1) }

// packed is the blocks that n items of width bytes fill.
func packed(n, width int64, pageSize int) int64 {
	per := perBlock(width, pageSize)
	return (n + per - 1) / per
}
