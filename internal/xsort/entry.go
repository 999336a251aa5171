package xsort

import (
	"pyro/internal/keys"
	"pyro/internal/sortord"
	"pyro/internal/types"
)

// Fixed-width sort entries (the DuckDB SortLayout shape). Beside every row a
// sort buffers, its store (store.go) keeps one fixed-size entry
//
//	[ width bytes: normalized-key prefix, zero-padded ][ 1 byte: flags ][ u32 row offset ][ u32 arrival ]
//
// — the arrival number in a numbered store only (store.go) — where the
// prefix is the first `width` bytes of the row's encoded sort key past the
// keyer's shared-prefix skip, and the tie flag records whether the full key
// was longer than width (truncated). Two entries whose prefixes differ are
// ordered by one comparison of width bytes (compareKeys) — no row decode, no
// key re-encode; a prefix tie needs the key's overflow, kept beside the row,
// if and only if BOTH entries are truncated — keys.Codec.AppendFixed documents
// why the mixed case cannot tie. Entries exist in memory only: a spill writes
// the rows and nothing else (merge.go).

// entryOverhead is the per-entry bytes past the key prefix: the flag byte and
// the u32 row offset. arrivalBytes is the arrival number a numbered store
// adds.
const (
	entryOverhead = 5
	arrivalBytes  = 4
)

// entrySize is the bytes of an entry with a width-byte prefix.
func entrySize(width int, numbered bool) int {
	if numbered {
		return width + entryOverhead + arrivalBytes
	}
	return width + entryOverhead
}

// replacementSelection reports whether a segment that owes keep rows
// (noLimit: unbounded) forms the runs it spills by replacement selection,
// where a store of its rows that neither pads nor numbers them holds load of
// them: every unbounded segment, and a bounded one whose bound reaches two
// such loads — the length of a replacement-selection run. A bound short of
// that cuts every run the heap would form, and the heap's work a row, about
// twice a batch sort's, buys few pages there, so such a segment writes each
// memory batch, sorted, cut at keep rows (MRS.flush); a bound short of one
// load is selected in memory (MRS.shed) and spills only after a governor
// shrink. MRS forms runs by it and PlanSpill prices them by it, so the two
// cannot disagree.
func replacementSelection(keep, load int64) bool { return keep/2 >= load }

// numbered reports whether a replacement-selection store of a sort over an
// input carrying given, bounded by limit rows (0: unbounded), numbers its
// rows as they arrive, so that its heap and kept tail keep full-key ties in
// arrival order: every one but the unbounded full sort's, whose heap promises
// such ties no order.
func numbered(given sortord.Order, limit int64) bool {
	return !given.IsEmpty() || limit > 0
}

// entryWidth fixes a sort's entry prefix width at construction. codec is the
// sort's key codec and prefixCols the number of leading key columns every key
// the sort compares is known to share (the `given` prefix; 0 for a full sort): the
// width is sized for the suffix columns the entries actually discriminate on,
// and capped so that at least one entry fits a block. On a page too small for
// that every key counts as truncated.
func entryWidth(codec *keys.Codec, prefixCols, pageSize int) int {
	return max(min(codec.FixedWidthHint(prefixCols), pageSize-2-entryOverhead-arrivalBytes), 0)
}

// FootprintBlocks estimates the sort memory, in blocks of pageSize bytes, that
// a sort to target bounded at limit rows, whose input already carries given,
// can use: the 2·limit rows of schema its collector buffers before it selects
// (MRS.collect), as its store packs them (footprint.blocks). It is what the
// governor asks for a bounded sort.
func FootprintBlocks(schema *types.Schema, target, given sortord.Order, limit int64, pageSize int) int64 {
	return Spec{Schema: schema, Target: target, Given: given}.footprint(1, false).blocks(2*limit, pageSize)
}

// footprint is what one buffered row takes in sort memory, in bytes: its
// encoded row and its store entry, and whether the store pads the row.
type footprint struct {
	row, entry int64
	padded     bool
}

// footprint returns the footprint of a row of s in the store of a sort
// bounded by limit (0: unbounded) that forms runs by replacement selection
// (rs) or not: its encoded row at the schema's average width, padded under
// replacement selection, and its store entry, sized from the kinds of the key
// columns past Given as entryWidth sizes it from the codec, with an arrival
// number where the store numbers its rows. A target attribute the schema
// lacks — no sort can be built for such a plan — adds nothing.
func (s Spec) footprint(limit int64, rs bool) footprint {
	var buf [8]types.Kind
	kinds := buf[:0]
	for _, a := range s.Target[min(s.Given.Len(), s.Target.Len()):] {
		if ord, ok := s.Schema.Ordinal(a); ok {
			kinds = append(kinds, s.Schema.Col(ord).Kind)
		}
	}
	entry := entrySize(keys.FixedWidth(kinds...), rs && numbered(s.Given, limit))
	return footprint{int64(s.Schema.AvgEncodedWidth()), int64(entry), rs}
}

// blocks is the one answer to "how much sort memory do rows rows take": the
// blocks of pageSize bytes a store fills with their rows — each rounded up to
// the slot granule in a padded store — and their entries, each packed whole
// into a block, never fewer than one of each. The governor's ask
// (FootprintBlocks) and PlanSpill's memory load both go through it.
func (f footprint) blocks(rows int64, pageSize int) int64 {
	return max(packed(rows, f.slot(), pageSize), 1) + max(packed(rows, f.entry, pageSize), 1)
}

// slot is the store bytes a row takes: its encoded width, rounded up to the
// slot granule in a padded store.
func (f footprint) slot() int64 {
	if f.padded {
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
