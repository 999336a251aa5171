package xsort

import (
	"encoding/binary"
	"fmt"

	"pyro/internal/keys"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// Fixed-width sort entries (the DuckDB SortLayout shape). A spill run is no
// longer just a file of re-encoded tuple pages: in the flat layouts every
// run carries a second file of fixed-size entries, one per tuple, each
//
//	[ width bytes: normalized-key prefix, zero-padded ][ 1 byte: tie flag ][ int32 row id ]
//
// where the prefix is the first `width` bytes of the tuple's encoded sort
// key past the keyer's shared-prefix skip, and the tie flag records whether
// the full key was longer than width (truncated). Two entries whose
// prefixes differ are ordered by one bytes.Compare of width bytes — no
// tuple decode, no key re-encode; a prefix tie needs the overflow "blob"
// (the full key, re-encoded from the payload tuple on demand) if and only
// if BOTH entries are truncated — keys.Codec.AppendFixed documents why the
// mixed case cannot tie. The row id is the tuple's ordinal within its run,
// making every entry self-identifying on disk.
//
// Merges read the entry file and the payload tuple file in lockstep, so
// the merge's hot loop touches only flat entry pages; the payload page of
// the winning cursor is consulted once per emitted tuple (and for the rare
// blob tie-break). Merged output runs copy the winning record verbatim —
// the entry's prefix and flag and the payload's encoded bytes — so a key is
// encoded exactly once per sort, at input collection, and a spilled tuple
// decoded exactly once, by the final merge, no matter how many merge passes
// rewrite it.

// EntryLayout selects the spill-run representation and the merge algorithm
// over it. Output order is byte-identical across all three layouts for any
// input whose sort keys are duplicate-free, and LayoutFlat/LayoutFlatHeap
// are byte-identical to each other unconditionally (both order full-key
// ties by run ordinal); layouts differ in spill I/O shape (flat runs add
// entry pages but never re-encode keys) and in merge comparison counts.
type EntryLayout uint8

const (
	// LayoutFlat (the default) writes flat fixed-width entry runs and
	// merges them radix-aware: run heads are partitioned by the leading
	// prefix byte and only the lowest live bucket is heap-ordered, so runs
	// whose head buckets differ — the common case for low-overlap runs —
	// cost zero comparisons until their buckets activate
	// (SortStats.MergeBucketSkips counts the parked advances).
	LayoutFlat EntryLayout = iota
	// LayoutFlatHeap writes the same flat entry runs but merges them with
	// the plain comparison heap — the merge-phase ablation: identical
	// output bytes and I/O to LayoutFlat, more comparisons.
	LayoutFlatHeap
	// LayoutTuple is the legacy layout: runs are re-encoded tuple pages
	// only, merged by re-wrapping each tuple's key as it comes off disk.
	// Kept for ablation and as the structural fallback for comparator-mode
	// sorts (no encoded key, nothing to truncate).
	LayoutTuple
)

// String returns the CLI spelling of the layout.
func (l EntryLayout) String() string {
	switch l {
	case LayoutFlat:
		return "flat"
	case LayoutFlatHeap:
		return "flat-heap"
	case LayoutTuple:
		return "tuple"
	}
	return fmt.Sprintf("EntryLayout(%d)", uint8(l))
}

// ParseEntryLayout parses the CLI spelling ("" means the default).
func ParseEntryLayout(s string) (EntryLayout, error) {
	switch s {
	case "", "flat":
		return LayoutFlat, nil
	case "flat-heap":
		return LayoutFlatHeap, nil
	case "tuple":
		return LayoutTuple, nil
	}
	return 0, fmt.Errorf("xsort: unknown entry layout %q (want flat, flat-heap or tuple)", s)
}

// entryOverhead is the per-entry bytes past the key prefix: the tie flag
// and the u32 row id (run file) or row offset (store).
const entryOverhead = 5

// entryLayout is one sort's resolved entry geometry: the prefix width its
// store entries and run entries share, and whether runs carry entry files.
type entryLayout struct {
	mode  EntryLayout
	width int // fixed key-prefix bytes per entry
	size  int // width + entryOverhead
}

// flat reports whether runs carry entry files.
func (l entryLayout) flat() bool { return l.mode != LayoutTuple }

// resolveLayout fixes a sort's entry geometry at construction. codec is the
// sort's key codec (nil for a key shape it cannot encode) and prefixCols the
// number of leading key columns every key the sort compares is known to
// share (MRS's `given` prefix; 0 for SRS): the fixed width is sized for the
// suffix columns the entries actually discriminate on. The width is the
// sort's one key representation — in-memory store entries and flat run
// entries alike — so it is resolved in every mode; mode only decides whether
// runs carry entry files. A comparator-mode sort (Config.Keys) keeps the
// geometry and leaves the prefixes blank: the ablation then holds as many
// rows per block as the encoded arm, forms the same runs and differs in what
// a comparison costs, nothing else. Without encoded keys runs are tuple
// pages.
func resolveLayout(cfg Config, codec *keys.Codec, prefixCols int) entryLayout {
	if codec == nil {
		return entryLayout{mode: LayoutTuple, size: entryOverhead}
	}
	width := codec.FixedWidthHint(prefixCols)
	if max := cfg.Disk.PageSize() - 2 - entryOverhead; width > max {
		width = max
	}
	mode := cfg.EntryLayout
	if width < 1 {
		// A page too small for one minimal entry: every key counts as
		// truncated and runs fall back to tuple pages.
		width, mode = 0, LayoutTuple
	}
	if cfg.Keys == KeyComparator {
		mode = LayoutTuple
	}
	return entryLayout{mode: mode, width: width, size: width + entryOverhead}
}

// FootprintBlocks estimates the sort memory, in blocks of pageSize bytes, that
// buffering rows rows of schema takes a sort to target whose input already
// carries given: the blocks their encoded bytes fill (average width) plus the
// blocks their store entries fill — never fewer than one of each. It is the
// one definition of "do these rows fit M": the governor's ask for a bounded
// sort, the optimizer's owed-rows test and the cost model's BoundedSort all
// go through it, and it is how a rowStore holding those rows would count
// itself. The entry is sized from the kinds of the key columns past given,
// as resolveLayout sizes it from the codec; a target attribute schema lacks —
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

// spillRun is one sorted run on disk: the payload tuple file, plus — in the
// flat layouts — the entry file merged in lockstep with it.
type spillRun struct {
	payload *storage.File
	entries *storage.File // nil in LayoutTuple
}

// remove drops the run's files from its namespace.
func (r spillRun) remove(ns storage.TempSpace) {
	ns.Remove(r.payload.Name())
	if r.entries != nil {
		ns.Remove(r.entries.Name())
	}
}

// payloadFiles projects the tuple files of runs — the inputs of the legacy
// tuple-layout merge.
func payloadFiles(runs []spillRun) []*storage.File {
	files := make([]*storage.File, len(runs))
	for i, r := range runs {
		files[i] = r.payload
	}
	return files
}

// runWriter streams one sorted run to disk: every tuple goes to the payload
// file and, in the flat layouts, its fixed-width entry goes to the entry
// file. Streaming matters: SRS's replacement selection and merge outputs
// don't know a run's length up front, so the run format cannot require it.
// Both files live in the caller's spill arena under the usual fault/tap/
// quota plane; on error the caller either abandons the writer or releases
// the whole arena.
type runWriter struct {
	ns      storage.TempSpace
	lay     entryLayout
	run     spillRun
	payload *storage.TupleWriter
	entries *storage.EntryWriter // nil in LayoutTuple
	buf     []byte               // entry scratch, lay.size bytes
	rowid   uint32
}

// newRunWriter opens a fresh run in ns.
func newRunWriter(ns storage.TempSpace, prefix string, lay entryLayout) *runWriter {
	w := &runWriter{ns: ns, lay: lay}
	w.run.payload = ns.CreateTemp(prefix, storage.KindRun)
	w.payload = storage.NewTupleWriter(w.run.payload)
	if lay.flat() {
		w.run.entries = ns.CreateTemp(prefix+"-ent", storage.KindRun)
		w.entries = storage.NewEntryWriter(w.run.entries, lay.size)
		w.buf = make([]byte, lay.size)
	}
	return w
}

// writeTuple appends one tuple of a tuple-layout run (no entry file): the
// output of a tuple-layout merge, which works on decoded tuples.
func (w *runWriter) writeTuple(t types.Tuple) error {
	return w.payload.Write(t)
}

// writeStored appends one buffered row: its bytes go to the payload file as
// they are — a spill is a copy — and, in the flat layouts, the prefix and tie
// flag of its store entry e become its run entry. Nothing is decoded, nothing
// re-encoded.
func (w *runWriter) writeStored(st *rowStore, e []byte) error {
	if w.entries == nil {
		return w.payload.WriteRaw(st.rowBytes(e))
	}
	return w.writeEntry(e[:w.lay.width], e[w.lay.width]&flagTrunc != 0, st.rowBytes(e))
}

// writeEntry appends one record of a flat run whose entry prefix, tie flag
// and encoded payload are already known — intermediate merges pass the
// winning input record through verbatim, entry and tuple bytes alike.
func (w *runWriter) writeEntry(prefix []byte, truncated bool, enc []byte) error {
	if err := w.payload.WriteRaw(enc); err != nil {
		return err
	}
	w.fill(prefix, truncated)
	return w.entries.Write(w.buf)
}

// fill builds the next entry record in w.buf: prefix (zero-padded to
// width), tie flag, row ordinal.
func (w *runWriter) fill(prefix []byte, truncated bool) {
	n := copy(w.buf[:w.lay.width], prefix)
	for i := n; i < w.lay.width; i++ {
		w.buf[i] = 0
	}
	flag := byte(0)
	if truncated {
		flag = 1
	}
	w.buf[w.lay.width] = flag
	binary.BigEndian.PutUint32(w.buf[w.lay.width+1:], w.rowid)
	w.rowid++
}

// close finishes the run, returning it and the entry pages it occupies
// (SortStats.FlatRunPages). On error the run's files are already removed.
func (w *runWriter) close() (spillRun, int64, error) {
	if err := w.payload.Close(); err != nil {
		w.abandon()
		return spillRun{}, 0, err
	}
	if w.entries == nil {
		return w.run, 0, nil
	}
	if err := w.entries.Close(); err != nil {
		w.abandon()
		return spillRun{}, 0, err
	}
	return w.run, w.entries.PagesWritten(), nil
}

// abandon removes the partially written run.
func (w *runWriter) abandon() {
	w.run.remove(w.ns)
}

// writeRun writes the rows of st, in emission order, as one run in ns — the
// sort's spill arena, so concurrent writers from different segments or
// workers never share a namespace or a ledger mutex. It returns the run and
// its entry-page count.
func writeRun(ns storage.TempSpace, prefix string, st *rowStore, order []uint32, lay entryLayout) (spillRun, int64, error) {
	w := newRunWriter(ns, prefix, lay)
	for _, h := range order {
		if err := w.writeStored(st, st.entry(h)); err != nil {
			w.abandon()
			return spillRun{}, 0, err
		}
	}
	return w.close()
}
