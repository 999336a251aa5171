package xsort

import (
	"bytes"
	"fmt"
	"slices"

	"pyro/internal/iter"
	"pyro/internal/keys"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// MRS is the sort operator: the paper's modified replacement selection
// (§3.1), an external sort that exploits a known partial sort order of its
// input. Given target order o = (a1..an) and input order o' = (a1..ak),
// k < n, the input is consumed segment by segment (maximal groups equal on
// a1..ak). Each segment is sorted independently on the suffix (ak+1..an):
//
//   - a segment that fits in memory is sorted with zero disk I/O and its
//     tuples are emitted as soon as the segment's end is seen — pipelined,
//     early output;
//   - a segment larger than memory spills runs and merges just those runs,
//     beside the rows it still holds when the segment ends (keepTail).
//
// With k = 0 (nothing given) the whole input is a single segment: the full
// sort, the paper's observation that MRS converges to SRS at the one-segment
// extreme (Fig 9). An oversized segment forms its runs the way §3.1 defines
// MRS: by replacement selection (Knuth '73) over the segment, runs of about
// twice the memory — with nothing given that is SRS. A partial or bounded
// sort's heap breaks full-key ties by arrival (numbered, heap.go), so its
// segments stay stable when they spill; the unbounded full sort's does not.
// What the heap holds when the segment ends is kept for the final merge
// instead of written whenever that merge then needs no reduction pass, so
// fully sorted input writes N − load rows, not N. A bounded segment
// (Config.Limit) whose bound is short of two memory loads writes every
// filled memory batch, sorted, as one run instead (replacementSelection).
//
// Because segments are mutually independent, their sorts are embarrassingly
// parallel. With Config.Parallelism = P > 1, in-memory segment sorts run on
// a bounded pool of worker goroutines while the consumer goroutine keeps
// reading ahead — at most P segments beyond the one being emitted, read in
// small quanta interleaved with emission so all input consumption stays on
// the consumer goroutine (the input iterator is never touched concurrently).
// Emission order is preserved by a FIFO of segment futures. The paper's
// pipelining guarantee survives in the bounded form: segment i begins
// emitting before segment i+P+1 has been read, and the first segment is
// always collected strictly demand-driven, so early output is retained.
// With P = 1 reading is strictly demand-driven exactly as in the serial
// paper algorithm: segment i is fully emitted before segment i+1 is read
// past its first tuple.
//
// Oversized (spilling) segments run the paper's serial algorithm on the
// consumer goroutine at every P. Each owns a storage.SpillArena — an
// isolated temp namespace with its own I/O ledger — into which its runs are
// formed; when the segment reaches the head of the emission queue its runs
// are reduced and merged there.
//
// Config.Limit bounds all of it by the rows a LIMIT on the sort will read
// (§7 Top-K). owed is the bound minus the rows of the segments already
// collected, and each segment is collected against the owed rows it can
// still contribute (its keep): the collector buffers until the memory
// budget or 2·keep rows, whichever comes first, then sorts the buffer, keeps
// the first keep rows and remembers the last one's key as the segment's
// cut-off — any later tuple that does not sort before it cannot be among the
// first keep rows and is dropped with one comparison, never buffered, never
// spilled. A segment spills only if keep rows themselves exceed the budget,
// and then every formation run — a batch, or a replacement-selection run,
// whose rows past keep are dropped as they leave the heap — and every
// reduction merge's output is cut at keep rows. When a finished segment brings owed to zero the sort treats its
// input as exhausted: nothing past the covering segments is read (beyond the
// one lookahead tuple that found the boundary), collected or read ahead.
// An unbounded sort runs the same code with owed = noLimit, a bound no
// segment reaches, so it never selects, drops or stops early.
type MRS struct {
	input  iter.Iterator
	schema *types.Schema
	target sortord.Order
	given  sortord.Order // known input order; must be a prefix of target
	cfg    Config
	ky     *keyer       // full-key keyer; segments bind per-segment skips
	prefix int          // |given|
	par    int          // resolved segment-sort parallelism
	bind   iter.Binding // the query's abort, tap and live budget (Bind)
	batch  footprint    // a row in a store that neither pads nor numbers: what replacementSelection weighs a bound against
	loads  [2]int       // memoryLoad(batch) at the last live allowance asked about: {blocks, rows}
	stats  SortStats

	// Input state. pending is the lookahead row — the first of the next
	// segment, or the next of the one being collected — as a view into the
	// source's current batch: it is buffered (copied into a store), cloned or
	// dropped before the source is asked for another.
	pending     inputRow
	havePending bool
	src         *tupleSource
	inputDone   bool
	passthrough bool      // given == target: nothing to do
	owed        int64     // Config.Limit minus the rows of collected segments
	consumed    bool      // passthrough: pending was emitted, the next row not yet read
	spare       *rowStore // the last released segment's store, empty, for the next collector

	// Segment pipeline: col accumulates the segment currently being read;
	// segq holds collected segments in input order (sorting or sorted);
	// cur is the segment being emitted.
	col  *segCollector
	segq []*segment
	cur  *segment

	liveBytes int64      // blocks held, in bytes, across all live segments
	pumps     int64      // read-ahead quanta the rows already emitted bought (see pump)
	guard     iter.Guard // strided poll of bind.Abort (consumer goroutine only)

	opened bool
	closed bool
}

// segCollector accumulates one partial-sort segment as it is read. ky is
// the segment's skip-bound keyer: keys are full target-order encodings
// (encoded by the consumer-side source), and within this segment they all
// share the encoded bytes of the `given` prefix, so the store's entries
// carry, and the segment's comparisons and radix sorts touch, only what
// follows them.
type segCollector struct {
	// The segment's representative for the boundary test: the encoded bytes
	// of its `given`-prefix values — the first ky.skip bytes of every key in
	// it.
	prefix  []byte
	ky      *keyer
	store   *rowStore // the rows buffered so far; its blocks are the segment's memory
	rs      bool      // replacementSelection: the segment forms its runs by replacement selection, else in batches
	spilled bool
	sp      *spillState // non-nil once the segment has spilled
	heap    *runHeap    // replacement selection over store, once the segment has spilled
	run     *runWriter  // the replacement-selection run being written; nil before its first row
	runRows int64       // rows of the run being written, dropped ones past keep included
	last    bound       // the key last taken for run

	// Bounded selection (see MRS): keep is the owed rows this segment can
	// contribute, rows the tuples seen so far, cut the key of the keep-th
	// smallest of them once a selection has established it.
	keep   int64
	rows   int64
	hasCut bool
	cut    bound
}

// spillState is the spill side of one oversized segment: its private arena
// and the runs formed into it, in formation order.
type spillState struct {
	arena *storage.SpillArena
	runs  []*storage.File
}

// segment is a collected segment queued for emission. A spilled segment
// that kept its tail (MRS.keepTail) holds a store too: the rows its final
// merge reads from memory, in sorted order. In-memory segments
// sorted on a worker publish their work tally through done; the consumer
// folds it into SortStats when the segment reaches the head of the queue,
// keeping the stats single-writer and their totals deterministic.
type segment struct {
	ky      *keyer    // segment's skip-bound keyer (compare/merge)
	store   *rowStore // in-memory segments: the buffered rows, owned until released
	order   []uint32  // emission permutation over store's entries, cut at keep
	keep    int64     // rows this segment emits at most
	tally   sortTally
	done    chan struct{} // non-nil iff sorted asynchronously
	err     error         // worker panic during the async sort, if any
	spilled bool
	sp      *spillState
	tailAt  int // a spilled segment that kept its tail in store: the tail's place among sp.runs

	pos     int64
	merging *runMerger
}

// pumpQuantum is how many input tuples one emitted tuple "buys" of
// read-ahead in parallel mode; small enough that lookahead grows gradually
// and the early-output property stays tight.
const pumpQuantum = 64

// NewMRS builds a sort of input into target order. given must be a prefix of
// target: ε is the full sort, one segment; if given equals target the
// operator is a passthrough.
func NewMRS(input iter.Iterator, schema *types.Schema, target, given sortord.Order, cfg Config) (*MRS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if target.IsEmpty() {
		return nil, fmt.Errorf("xsort: empty target order")
	}
	if !given.PrefixOf(target) {
		return nil, fmt.Errorf("xsort: input order %v is not a prefix of target %v", given, target)
	}
	codec, err := keys.NewCodec(schema, target)
	if err != nil {
		return nil, err
	}
	prefix := given.Len()
	// Keys are full target-order encodings; each segment binds a keyer
	// whose skip covers the encoded `given` prefix (constant within the
	// segment by definition), so segment comparisons still touch only the
	// suffix bytes. Versus a suffix-only codec this spends one prefix encode
	// per tuple to keep a single codec across all segments, give radix a
	// known seed depth instead of a prefix rescan, and let the segment
	// boundary test be one comparison of leading key bytes.
	return &MRS{
		input:       input,
		schema:      schema,
		target:      target.Clone(),
		given:       given.Clone(),
		cfg:         cfg,
		ky:          &keyer{codec: codec, width: entryWidth(codec, prefix, cfg.Disk.PageSize())},
		prefix:      prefix,
		par:         cfg.parallelism(),
		batch:       Spec{Schema: schema, Target: target, Given: given}.footprint(cfg.Limit, false),
		passthrough: prefix == target.Len(),
		owed:        cfg.limit(),
	}, nil
}

// startSegment opens a collector on the pending row. It binds the shared
// keyer to the segment: skip is the encoded byte length of the segment's
// `given`-prefix values (prefix columns of variable width make it
// segment-specific), which every key of the segment starts with.
//
// How the segment forms runs if it spills (replacementSelection), and with
// it how its store lays rows out, is decided here, against the live
// allowance the segment starts under.
func (m *MRS) startSegment() *segCollector {
	c := &segCollector{keep: m.owed}
	c.rs = replacementSelection(c.keep, m.batchLoad())
	num := c.rs && numbered(m.given, m.cfg.Limit)
	if c.store, m.spare = m.spare, nil; c.store == nil || c.store.numbered != num || (c.store.pad > 1) != c.rs {
		c.store = newRowStore(m.cfg.Disk, m.ky.width, c.rs, num)
	}
	skip := m.ky.codec.KeyPrefixLen(m.pending.key, m.prefix)
	c.prefix, c.ky = append([]byte(nil), m.pending.key[:skip]...), m.ky.withSkip(skip)
	return c
}

// batchLoad is how many rows a store that neither pads nor numbers them holds
// under the live allowance (memoryLoad of the schema's average row). Only a
// bounded sort weighs it; an unbounded one owes more than any load.
func (m *MRS) batchLoad() int64 {
	if m.owed == noLimit {
		return 0
	}
	if blocks := m.memoryBlocks(); m.loads[1] == 0 || m.loads[0] != blocks {
		m.loads = [2]int{blocks, int(memoryLoad(m.batch, blocks, m.cfg.Disk.PageSize()))}
	}
	return int64(m.loads[1])
}

// Bind hands the sort its query's binding: segment collection, replacement
// selection and every reduction merge poll its abort, every spill arena is
// created on its tap, and its budget is the live allowance memoryBlocks
// reads. Must be called before Open; an unbound sort never aborts, taps
// nothing and holds its static MemoryBlocks.
func (m *MRS) Bind(b iter.Binding) {
	m.bind, m.guard = b, iter.NewGuard(b.Abort)
}

// memoryBlocks is the live memory allowance in blocks: what a row store may
// hold right now. Buffering decisions call it per row.
func (m *MRS) memoryBlocks() int { return m.bind.MemoryBlocks(m.cfg.MemoryBlocks) }

func (m *MRS) memoryBytes() int64 {
	return int64(m.memoryBlocks()) * int64(m.cfg.Disk.PageSize())
}

// Stats returns the operator's work counters.
func (m *MRS) Stats() *SortStats { return &m.stats }

// Order returns the produced sort order.
func (m *MRS) Order() sortord.Order { return m.target }

// Open opens the input and reads one lookahead tuple; nothing is sorted
// here. Even a full sort reads the rest of its input on the first NextChunk.
func (m *MRS) Open() error {
	if m.opened {
		return fmt.Errorf("xsort: MRS opened twice")
	}
	m.opened = true
	if err := m.input.Open(); err != nil {
		return err
	}
	// The source encodes each row's sort key as it is pulled. A passthrough
	// (given == target) never compares keys, so its source does not key.
	codec := m.ky.codec
	if m.passthrough {
		codec = nil
	}
	m.src = newTupleSource(m.input, m.schema, codec, m.cfg)
	return m.advance()
}

// samePrefix reports whether r belongs to segment c: its `given`-prefix
// values are the segment's. Keys are prefix-free column by column, so that is
// one comparison of the leading key bytes — none with nothing given, where
// every row is of the one segment.
func (m *MRS) samePrefix(c *segCollector, r inputRow) bool {
	if m.prefix == 0 {
		return true
	}
	m.stats.Comparisons++
	return len(r.key) >= len(c.prefix) && bytes.Equal(r.key[:len(c.prefix)], c.prefix)
}

// NextChunk fills c with the next rows of the target order. A chunk holds
// rows of one segment only: it stops at the end of the segment being
// emitted, and the next segment is adopted — collected, sorted or merged —
// on the following call, so a consumer that stops mid-segment never pays for
// the next one. A spilled segment's chunk also stops where its merge would
// read a new run page (runMerger.fill).
func (m *MRS) NextChunk(c *types.Chunk) error {
	c.Reset()
	// The read-ahead the previous chunk's rows bought is paid now, before
	// this chunk's first row: a chunk never starts the next segment's
	// collection on its own rows' account.
	for ; m.pumps > 0; m.pumps-- {
		if err := m.pump(); err != nil {
			return err
		}
	}
	if m.passthrough {
		return m.passThrough(c)
	}
	//pyro:bounded(each iteration fills the chunk or retires/adopts/collects one segment, and emit/collect poll the abort guard internally)
	for {
		// Serve from the segment at the head of the pipeline.
		if m.cur != nil {
			if err := m.emit(c); err != nil || c.Rows() > 0 {
				return err
			}
			m.release(m.cur)
			m.cur = nil
		}
		// Adopt the next collected segment, waiting out its sort.
		if len(m.segq) > 0 {
			seg := m.segq[0]
			m.segq = m.segq[1:]
			if err := m.adopt(seg); err != nil {
				return err
			}
			continue
		}
		if !m.havePending {
			return nil
		}
		// Nothing in flight: collect the next segment demand-driven.
		seg, err := m.collect(-1)
		if err != nil {
			return err
		}
		if seg != nil {
			m.segq = append(m.segq, seg)
		}
	}
}

// passThrough serves an input already in target order (given == target) as
// it arrives. The lookahead is taken lazily, on the call that needs it, so a
// chunk ends where the input's buffered rows do: it never asks the input for
// more once it holds a row.
func (m *MRS) passThrough(c *types.Chunk) error {
	for !c.Full() {
		if m.consumed {
			if c.Rows() > 0 && !m.src.buffered() {
				return nil
			}
			m.consumed = false
			if err := m.advance(); err != nil {
				return err
			}
		}
		if !m.havePending {
			return nil
		}
		if err := appendRow(c, m.pending); err != nil {
			return err
		}
		m.stats.TuplesOut++
		if m.owed--; m.owed == 0 {
			m.stopInput()
		} else {
			m.consumed = true
		}
	}
	return nil
}

// emit appends the current segment's next rows to c, from its sorted buffer
// or its per-segment run merge; it appends none once the segment is
// exhausted. Each emitted row buys the pool its read-ahead quantum, paid on
// the next call (pump).
func (m *MRS) emit(c *types.Chunk) error {
	s := m.cur
	if s.merging != nil {
		// The final merge hands out run-page spans; the consumer decodes.
		n, err := s.merging.fill(c, s.keep-s.pos)
		s.pos += n
		m.stats.TuplesOut += n
		m.pumps += n
		return err
	}
	for ; s.pos < int64(len(s.order)) && !c.Full(); s.pos++ {
		if err := appendEncoded(c, s.store.rowAt(s.store.entry(s.order[s.pos]))); err != nil {
			return err
		}
		m.stats.TuplesOut++
		m.pumps++
	}
	return nil
}

// adopt makes seg the current emission head: waits for an asynchronous sort
// to finish (folding its work tally into the stats) or, for a spilled
// segment, reduces its runs and opens their merge — beside its kept tail, if
// it has one.
func (m *MRS) adopt(seg *segment) error {
	if seg.done != nil {
		<-seg.done
		if seg.err != nil {
			// seg is off the queue and never becomes the emission head:
			// nobody else will give its blocks back.
			m.release(seg)
			return seg.err
		}
		seg.tally.addTo(&m.stats)
	}
	if seg.spilled {
		// seg is already off the queue and not yet the emission head, so
		// nothing downstream owns its arena or its kept tail: if adoption
		// does not complete — an error, or a panic unwinding toward the
		// cursor's containment — they must be released here or they outlive
		// Close.
		adopted := false
		defer func() {
			if !adopted {
				m.release(seg)
			}
		}()
		var err error
		if seg.store != nil {
			// keepTail kept the tail only beside runs the final merge takes
			// as they are.
			inputs := slices.Insert(readers(seg.sp.runs), seg.tailAt, mergeInput(&tailRun{st: seg.store}))
			seg.merging, err = newRunMerger(inputs, seg.ky, &m.stats.Comparisons)
		} else {
			var runs []*storage.File
			runs, err = reduceRuns(m.cfg.fanIn(), m.bind.Abort, seg.sp.arena, seg.sp.runs, seg.ky, seg.keep, &m.stats)
			if err == nil {
				seg.sp.runs = runs
				seg.merging, err = newRunMerger(readers(runs), seg.ky, &m.stats.Comparisons)
			}
		}
		if err != nil {
			return err
		}
		adopted = true
	}
	m.cur = seg
	return nil
}

// release drops the segment's arena, and with it every run file formed or
// merged into it, folding the arena's I/O ledger into the disk's.
func (sp *spillState) release() {
	if sp != nil && sp.arena != nil {
		sp.arena.Release()
		sp.arena, sp.runs = nil, nil
	}
}

// release drops a segment — exhausted, abandoned or failed: its blocks go
// back to the pool and out of the accounting, and its spill arena (if any)
// is released. A segment still being sorted by a worker is waited out first.
func (m *MRS) release(seg *segment) {
	if seg.done != nil {
		<-seg.done
	}
	if m.dropStore(seg.store); seg.store != nil {
		m.spare = seg.store // segments come and go; their bookkeeping need not
	}
	seg.store, seg.order = nil, nil
	seg.sp.release()
	seg.sp = nil
}

// dropStore returns a store's blocks and takes them out of the accounting.
func (m *MRS) dropStore(st *rowStore) {
	if st != nil {
		m.liveBytes -= st.bytes()
		st.release()
	}
}

// resized folds a change of st's footprint since it held before bytes into
// the sort's accounting.
func (m *MRS) resized(st *rowStore, before int64) {
	m.liveBytes += st.bytes() - before
	if m.liveBytes > m.stats.PeakMemBytes {
		m.stats.PeakMemBytes = m.liveBytes
	}
}

// pump advances read-ahead in parallel mode: for each emitted tuple the
// consumer reads up to pumpQuantum more input tuples — on its next call, so
// the rows in hand are served first — dispatching completed segments to the
// worker pool, as long as fewer than Parallelism segments are queued beyond
// the one being emitted AND the buffered tuples across all live segments
// stay under the memory budget. The budget gate keeps
// total sort memory at roughly M even with a deep pool: lookahead stops
// growing once M is reached, so only the demand-driven path (one emitting
// plus one collecting segment) can exceed it, as in the serial algorithm.
func (m *MRS) pump() error {
	if m.par <= 1 || !m.havePending || len(m.segq) >= m.par {
		return nil
	}
	if m.liveBytes >= m.memoryBytes() {
		return nil
	}
	seg, err := m.collect(pumpQuantum)
	if err != nil {
		return err
	}
	if seg != nil {
		m.segq = append(m.segq, seg)
	}
	return nil
}

// collect reads input into the current segment collector. With limit < 0 it
// consumes the whole remaining segment; otherwise it reads at most limit
// tuples and may leave the segment partially collected for the next call.
// It returns a non-nil segment exactly when a segment boundary (or EOF) was
// reached; the returned segment is already dispatched for sorting when the
// pool is enabled.
func (m *MRS) collect(limit int) (*segment, error) {
	if !m.havePending {
		return nil, nil
	}
	if m.col == nil {
		m.stats.Segments++
		m.col = m.startSegment()
	}
	c := m.col
	read := 0
	for {
		// An oversized segment keeps the consumer in this loop for its whole
		// extent; the abort poll is what lets a cancellation interrupt it.
		if err := m.guard.Check(); err != nil {
			return nil, err
		}
		c.rows++
		if !m.pastCut(c, m.pending) {
			// The budget is re-read per attempt, not cached across the loop:
			// a governed query's live allowance (iter.Budget) can shrink
			// mid-segment when another query arrives, and the next buffering
			// decision must see it. When the store may not take the row, a
			// bounded segment first sheds the rows nobody will read and spills
			// only what is still too big. A flush empties the store, which then
			// takes anything; replacement selection writes one row at a time
			// until the row fits, and a store over a shrunk allowance takes
			// nothing until the heap has drained.
			before := c.store.bytes()
			//pyro:bounded(a failed add is followed by one shed at most, then by a flush or a replacement-selection write, and an emptied store takes any row)
			for {
				if m.admit(c) {
					break
				}
				if !m.shed(c) {
					c.spilled = true
					if err := m.spill(c); err != nil {
						return nil, err
					}
				}
				before = c.store.bytes() // shed and spill have settled their own accounts
			}
			m.resized(c.store, before)
			if c.heap == nil && int64(c.store.len())/2 >= c.keep {
				m.selectTop(c)
			}
		}
		if err := m.advance(); err != nil {
			return nil, err
		}
		if !m.havePending || !m.samePrefix(c, m.pending) {
			// The collector is the sort's to release until finish returns:
			// a panic while its last rows spill unwinds to Close.
			seg, err := m.finish(c)
			m.col = nil
			return seg, err
		}
		read++
		if limit >= 0 && read >= limit {
			return nil, nil
		}
	}
}

// admit buffers the pending row in the collector's store if it fits. Under
// replacement selection the row joins the heap, in the current run if it can
// still be written in order after the last row written, else in the next —
// decided again, against a later key, on every attempt until it fits — at
// one comparison per row admitted.
func (m *MRS) admit(c *segCollector) bool {
	var run byte
	if c.heap != nil {
		run = c.heap.runFlag(c.ky.compareBound(m.pending, &c.last) < 0)
	}
	e, ok := c.store.add(m.pending, c.ky.suffix(m.pending), run, m.memoryBlocks())
	if ok && c.heap != nil {
		m.stats.Comparisons++
		c.heap.push(e)
	}
	return ok
}

// spill makes room in an oversized segment's store, on the consumer
// goroutine, in the segment's spill arena: replacement selection writes its
// next row (replace), or a batch is written whole as one run (flush). The
// first replacement step sorts the fill like any other buffer, and the
// ascending order seeds the heap: a sorted array is a valid min-heap.
func (m *MRS) spill(c *segCollector) error {
	if c.sp == nil {
		c.sp = &spillState{arena: m.cfg.Disk.NewArenaTapped(m.bind.Tap)}
	}
	if !c.rs {
		return m.flush(c)
	}
	if c.heap == nil {
		buf := permScratch.Get(0)
		var tally sortTally
		*buf, tally = formOrder(c.store, c.ky, *buf)
		tally.addTo(&m.stats)
		c.heap = newRunHeap(c.store, c.ky, buf, &m.stats.Comparisons)
	}
	return m.replace(c)
}

// flush sorts the collector's buffered tuples and writes their first keep as
// one run of the segment, then gives the store's blocks back; the collector
// goes on buffering into the emptied store.
func (m *MRS) flush(c *segCollector) error {
	order, tally := formOrder(c.store, c.ky, nil)
	tally.addTo(&m.stats)
	if _, err := m.evictTail(c, 0, firstRows(order, c.keep)); err != nil {
		return err
	}
	m.dropStore(c.store)
	return nil
}

// replace is one replacement step: the heap's minimum is written to the
// current run (closing it and starting the next when the minimum belongs to
// the next run) and its slot freed. A run of a bounded segment is cut at
// keep rows: a row past them sorts after keep rows of the segment, so it is
// dropped instead of written.
func (m *MRS) replace(c *segCollector) error {
	if err := m.guard.Check(); err != nil {
		return err
	}
	if c.heap.topDeferred() {
		if err := m.finishRun(c); err != nil {
			return err
		}
		c.heap.nextRun()
	}
	if c.run == nil {
		c.run, c.runRows = newRunWriter(c.sp.arena), 0
	}
	e := c.heap.pop()
	row := c.store.rowBytes(c.store.entry(e))
	if c.runRows++; c.runRows <= c.keep {
		if err := c.run.write(row); err != nil {
			return err
		}
	}
	c.ky.lift(&c.last, c.store, c.store.entry(e))
	before := c.store.bytes()
	c.store.free(e, len(row))
	m.resized(c.store, before)
	return nil
}

// finishRun closes the run being written, if it has a row.
func (m *MRS) finishRun(c *segCollector) error {
	if c.run == nil {
		return nil
	}
	run, err := c.run.close()
	c.run = nil
	if err != nil {
		return err
	}
	m.addRun(c, run)
	return nil
}

// addRun records a run formed for the segment.
func (m *MRS) addRun(c *segCollector, run *storage.File) {
	c.sp.runs = append(c.sp.runs, run)
	m.stats.RunsGenerated++
	m.stats.SpillRunsSerial++
}

// finish turns a fully read collector into a queued segment, dispatching
// the in-memory sort to a worker when the pool is enabled.
func (m *MRS) finish(c *segCollector) (*segment, error) {
	// The segment contributes its rows up to its bound; once nothing is owed
	// the sort is done with its input for good.
	if m.owed -= min(c.rows, c.keep); m.owed == 0 {
		m.stopInput()
	}
	if c.spilled {
		m.stats.SpilledSegs++
		seg := &segment{spilled: true, sp: c.sp, ky: c.ky, keep: c.keep}
		err := m.keepTail(c, seg)
		c.heap.release()
		if err != nil || seg.store == nil {
			m.dropStore(c.store) // written, or unwritten after a failed spill
		}
		if err != nil {
			c.sp.release()
			return nil, err
		}
		return seg, nil
	}
	seg := &segment{store: c.store, ky: c.ky, keep: c.keep}
	if m.par > 1 {
		seg.done = make(chan struct{})
		go func() {
			defer close(seg.done)
			defer recoverWorker(&seg.err)
			seg.order, seg.tally = formOrder(seg.store, seg.ky, nil)
			seg.order = firstRows(seg.order, seg.keep)
		}()
	} else {
		var tally sortTally
		seg.order, tally = formOrder(seg.store, seg.ky, nil)
		seg.order = firstRows(seg.order, seg.keep)
		tally.addTo(&m.stats)
	}
	return seg, nil
}

// keepTail ends a spilled segment's run formation at input end. The rows
// its store still holds stay there as one more sorted input of the final
// merge, read beside the runs (seg.store), when that merge then needs no
// reduction pass: when the store's blocks and one read block per disk run
// fit the live allowance. When they do not, the rows on the fewest last row
// blocks for which the rest fits are written as one more, small run
// (evictTail), read after the tail. That keeps ties in arrival order where
// the last blocks hold the latest arrivals: in a batch of a store nothing
// was freed from. A bounded collector that selected before it spilled — only
// a governor shrink makes one — freed rows, and evicts nothing. Replacement
// selection recycles its slots: the full sort's heap promises ties no order,
// and a numbered store evicts only where no written row has an equal key
// and an earlier arrival than a kept one (stableCut), and otherwise writes
// its whole tail as that run. A tail that cannot stay is written as a last
// run: replacement selection drains its heap into its runs, a batch is
// flushed.
func (m *MRS) keepTail(c *segCollector, seg *segment) error {
	st := c.store
	runs := len(c.sp.runs)
	if c.run != nil {
		runs++ // the replacement-selection run being written
	}
	cut, ok := st.tailCut(runs, m.memoryBlocks(), c.heap != nil || !st.freed)
	switch {
	case !ok && c.heap != nil:
		for c.heap.len() > 0 {
			if err := m.replace(c); err != nil {
				return err
			}
		}
		return m.finishRun(c)
	case !ok && st.len() > 0:
		return m.flush(c)
	case !ok:
		return nil
	}
	if err := m.finishRun(c); err != nil {
		return err
	}
	if c.heap != nil {
		// The heap's rows are the store's live ones; freed entries leave
		// holes that the sort below must not see.
		before := st.bytes()
		st.compact(c.heap.heap)
		m.resized(st, before)
	}
	buf := permScratch.Get(0)
	defer permScratch.Put(buf)
	order, tally := formOrder(st, c.ky, *buf)
	*buf = order
	tally.addTo(&m.stats)
	if st.numbered && c.heap != nil {
		tiesByArrival(st, c.ky, order)
	}
	seg.tailAt = len(c.sp.runs)
	if cut < len(st.rows) {
		if st.numbered && !stableCut(st, c.ky, order, cut) {
			_, err := m.evictTail(c, 0, order)
			return err
		}
		var err error
		if order, err = m.evictTail(c, cut, order); err != nil {
			return err
		}
	}
	// The kept rows' entries are laid out in their sorted order, so the
	// merge reads the tail by handle and no permutation outlives the sort.
	before := st.bytes()
	st.evict(cut, order)
	m.resized(st, before)
	seg.store = st
	return nil
}

// evictTail writes the rows of order on the store's row pages from cut on, in
// that order, as one more run of the segment, and returns the others' order,
// filtered in place. A flush writes them all (cut 0).
func (m *MRS) evictTail(c *segCollector, cut int, order []uint32) ([]uint32, error) {
	w := newRunWriter(c.sp.arena)
	kept := order[:0] // writes trail reads
	for _, h := range order {
		if err := m.guard.Check(); err != nil {
			w.abandon()
			return nil, err
		}
		if c.store.rowPage(h) < cut {
			kept = append(kept, h)
		} else if err := w.write(c.store.rowBytes(c.store.entry(h))); err != nil {
			w.abandon()
			return nil, err
		}
	}
	run, err := w.close()
	if err != nil {
		return nil, err
	}
	m.addRun(c, run)
	return kept, nil
}

// tiesByArrival puts the rows of order — st's rows, sorted by key — that have
// equal keys in arrival order. The sort is stable by handle, and once
// replacement selection has recycled slots, handle order is not arrival
// order; equal keys are rare, so an insertion sort that compares keys only
// where arrivals are out of order costs about a check a row.
func tiesByArrival(st *rowStore, ky *keyer, order []uint32) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := st.entry(order[j-1]), st.entry(order[j])
			if !st.arrivedBefore(b, a) || ky.compareEntries(st, a, b, 0) != 0 {
				break
			}
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
}

// stableCut reports whether writing the rows of order — st's rows sorted, by
// arrival among equal keys — that sit on row pages from cut on as a run read
// after the kept ones keeps rows with equal keys in arrival order: no written
// row is followed in order by a kept one with an equal key.
func stableCut(st *rowStore, ky *keyer, order []uint32, cut int) bool {
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if st.rowPage(a) >= cut && st.rowPage(b) < cut && ky.compareEntries(st, st.entry(a), st.entry(b), 0) == 0 {
			return false
		}
	}
	return true
}

// firstRows cuts an emission order at keep rows.
func firstRows(order []uint32, keep int64) []uint32 {
	if int64(len(order)) > keep {
		return order[:keep]
	}
	return order
}

// pastCut reports whether r cannot be among the segment's first keep rows:
// keep tuples at or before the cut-off are already held, so a tuple that
// does not sort strictly before it — ties go to the earlier arrival, as in
// the stable sort — is dropped unbuffered.
func (m *MRS) pastCut(c *segCollector, r inputRow) bool {
	if !c.hasCut {
		return false
	}
	m.stats.Comparisons++
	return c.ky.compareBound(r, &c.cut) >= 0
}

// shed is the no-room step of a bounded segment: if the store holds more
// than the keep rows anyone will read, cut it down to them, which frees the
// dropped rows' slots for the rows to come; it reports whether the segment
// may go on buffering — not if nothing could be dropped, not if the
// store is over a shrunk allowance, which freed slots do not cure, and not
// once replacement selection has begun: its heap holds the store's rows, and
// cuts its runs at keep itself.
func (m *MRS) shed(c *segCollector) bool {
	if c.heap != nil || int64(c.store.len()) <= c.keep {
		return false
	}
	m.selectTop(c)
	return c.store.held() <= max(m.memoryBlocks(), 2)
}

// selectTop cuts the collector's store down to its keep smallest rows, their
// entries compacted in sorted order so arrival order still breaks later
// ties, and makes the last of them the segment's cut-off. The dropped rows'
// slots are recycled and the surplus entry blocks leave the memory
// accounting.
func (m *MRS) selectTop(c *segCollector) {
	buf := permScratch.Get(0)
	defer permScratch.Put(buf)
	order, tally := formOrder(c.store, c.ky, *buf)
	*buf = order
	tally.addTo(&m.stats)
	c.ky.lift(&c.cut, c.store, c.store.entry(order[c.keep-1]))
	c.hasCut = true
	before := c.store.bytes()
	c.store.keepOnly(order[:c.keep], order[c.keep:])
	m.resized(c.store, before)
}

// stopInput marks the input exhausted — at its real end, or as soon as a
// bounded sort owes nothing more: from then on nothing is read, collected or
// read ahead.
func (m *MRS) stopInput() {
	m.inputDone = true
	m.pending, m.havePending = inputRow{}, false
}

// advance pulls the next input row into pending (none at EOF), with its
// sort key. TuplesIn counts here, per tuple the sort actually takes —
// source-side chunk buffering is invisible to the stats.
func (m *MRS) advance() error {
	if m.inputDone {
		m.stopInput()
		return nil
	}
	r, ok, err := m.src.next()
	if err != nil {
		return err
	}
	if !ok {
		m.stopInput()
		return nil
	}
	m.stats.TuplesIn++
	m.pending, m.havePending = r, true
	return nil
}

// Close gives back everything the sort still holds — the blocks and spill
// arenas of the emitting segment, of queued segments and of a partially
// collected one — waiting out in-flight segment sorts first, and closes the
// input.
func (m *MRS) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	if m.cur != nil {
		m.release(m.cur)
		m.cur = nil
	}
	for _, seg := range m.segq {
		m.release(seg)
	}
	m.segq = nil
	if m.col != nil {
		m.col.heap.release()
		m.dropStore(m.col.store)
		m.col.sp.release()
		m.col = nil
	}
	if m.src != nil {
		m.src.release()
	}
	return m.input.Close()
}
