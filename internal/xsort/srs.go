package xsort

import (
	"fmt"

	"pyro/internal/iter"
	"pyro/internal/keys"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// SRS is the standard replacement-selection external sort. It is blocking:
// Open consumes the entire input, forming runs (averaging twice the memory
// size for random input, one run for sorted input), reduces them to at most
// fan-in runs, and NextChunk serves rows from the final merge. When the whole
// input fits in memory no run is written and the sort is CPU-only.
//
// Each input tuple's sort key is normalized once on entry; every heap
// comparison is then a byte-string compare, and a merge keys the rows it reads
// back from their bytes. Run formation (one replacement-selection heap),
// reduction and the final merge all run on the consumer goroutine. All spill
// files live in one SpillArena, whose release on Close (or error) both cleans
// them up and folds their I/O into the disk's global ledger.
//
// The phase-1 fill is sorted like any other buffer (radixEligible): when radix
// pays, the initial memory load is byte-bucket sorted and seeds the heap as a
// sorted array — valid heap order, zero build comparisons — or, when the whole
// input fits, is emitted directly. Replacement selection itself is
// comparison-based: its incremental push/pop structure is what produces the
// paper's 2M-sized runs, and a heap has no radix equivalent. Run count, run
// sizes and I/O totals do not depend on how the fill was sorted (the pop
// sequence visits the same key multiset in the same ascending order).
type SRS struct {
	input  iter.Iterator
	schema *types.Schema
	order  sortord.Order
	cfg    Config
	ky     *keyer
	stats  SortStats

	// store buffers every row the sort holds in memory — the phase-1 fill,
	// then the replacement-selection heap's rows — and is the sort's memory
	// accounting. In the in-memory fast path memOrder is its emission order.
	store    *rowStore
	memOrder []uint32
	memPos   int
	inMem    bool

	merger *runMerger
	runs   []*storage.File
	arena  *storage.SpillArena // lazily created spill namespace; owns all temps
	src    *tupleSource        // input collection
	opened bool
	closed bool
}

// NewSRS builds a standard replacement-selection sort of input under order
// o. The order must be resolvable against the input schema.
func NewSRS(input iter.Iterator, schema *types.Schema, o sortord.Order, cfg Config) (*SRS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if o.IsEmpty() {
		return nil, fmt.Errorf("xsort: empty sort order")
	}
	codec, err := keys.NewCodec(schema, o)
	if err != nil {
		return nil, err
	}
	if cfg.TempPrefix == "" {
		cfg.TempPrefix = "srs"
	}
	return &SRS{
		input:  input,
		schema: schema,
		order:  o.Clone(),
		cfg:    cfg,
		ky:     &keyer{codec: codec, width: entryWidth(codec, 0, cfg.Disk.PageSize())},
	}, nil
}

// Stats returns the operator's work counters (valid after Open).
func (s *SRS) Stats() *SortStats { return &s.stats }

// Order returns the produced sort order.
func (s *SRS) Order() sortord.Order { return s.order }

// Open consumes the input and prepares the merge. This is where standard
// replacement selection breaks the pipeline: nothing is emitted until all
// input has been read. On error, any run files already written are removed.
func (s *SRS) Open() error {
	if err := s.open(); err != nil {
		s.removeTemps()
		return err
	}
	return nil
}

func (s *SRS) open() error {
	if s.opened {
		return fmt.Errorf("xsort: SRS opened twice")
	}
	s.opened = true
	if err := s.input.Open(); err != nil {
		return err
	}
	s.src = newTupleSource(s.input, s.schema, s.ky.codec, s.cfg)
	s.store = newRowStore(s.cfg.Disk, s.ky.width, true)
	h := newRunHeap(s.store, s.ky, &s.stats.Comparisons)
	// Open is where SRS blocks for its entire input, so it is the loop a
	// cancellation most needs to reach (a canceled query must not sort two
	// million tuples first).
	guard := iter.NewGuard(s.cfg.Abort)

	// pending is the input row read but not yet buffered: the one the store
	// had no room for. take buffers input rows, through admit, for as long as
	// there is input and admit finds room under the live budget — re-read per
	// row: a governed sort's allowance can shrink while it runs.
	var pending inputRow
	havePending, inputDone := false, false
	take := func(admit func(r inputRow) bool) error {
		for !inputDone {
			if err := guard.Check(); err != nil {
				return err
			}
			if !havePending {
				r, ok, err := s.src.next()
				if err != nil {
					return err
				}
				if !ok {
					inputDone = true
					break
				}
				s.stats.TuplesIn++
				pending, havePending = r, true
			}
			if !admit(pending) {
				break
			}
			havePending = false
			s.trackPeak(s.store.bytes())
		}
		return nil
	}

	// Phase 1: read up to the memory budget into the store. The fill — not
	// a heap — is what run formation sorts: entries whose keys are
	// byte-bucket sorted ARE a valid min-heap (every prefix of an ascending
	// array satisfies the heap property), so replacement selection can be
	// seeded without the O(n log n) comparison cost of building the initial
	// heap.
	if err := take(func(r inputRow) bool {
		_, ok := s.store.add(r, s.ky.suffix(r), h.runFlag(false), s.cfg.memoryBlocks())
		return ok
	}); err != nil {
		return err
	}

	if radixEligible(s.store.len(), s.ky) {
		order, tally := radixSortEntries(s.store, s.ky)
		tally.addTo(&s.stats)
		if inputDone {
			// Whole input fits in memory: emit the stable radix order
			// directly, no heap and no disk I/O.
			s.inMem, s.memOrder = true, order
			return nil
		}
		h.seed(order)
	} else {
		// Comparison path: push the fill in input order — the identical
		// comparison sequence the pre-buffered implementation performed
		// by pushing as it read.
		for _, e := range s.store.handles(nil) {
			h.push(e)
		}
		if inputDone {
			// Whole input fits in memory: drain the heap, no disk I/O.
			s.inMem, s.memOrder = true, make([]uint32, 0, h.len())
			for h.len() > 0 {
				s.memOrder = append(s.memOrder, h.pop())
			}
			return nil
		}
	}

	// Phase 2: replacement selection. Pop the minimum of the current run,
	// copy it to the run file, give its slot back, and take input for as
	// long as it fits — with fixed-width rows that is one row per row
	// written — each row joining the current run if it can still be emitted
	// in order, else the next. Runs stream through a runWriter, row bytes
	// as buffered. A budget shrink leaves the store over its allowance, which refuses
	// input until the heap has drained into the current and the next run;
	// the emptied store then returns its blocks and refills under the new
	// allowance.
	w := s.newRunWriter()
	finishRun := func() error {
		run, err := w.close()
		if err != nil {
			return err
		}
		s.runs = append(s.runs, run)
		s.stats.RunsGenerated++
		return nil
	}
	var last bound // the key last written to the current run
	admit := func(r inputRow) bool {
		deferred := s.ky.compareBound(r, &last) < 0
		e, ok := s.store.add(r, s.ky.suffix(r), h.runFlag(deferred), s.cfg.memoryBlocks())
		if !ok {
			return false // decided again, against a later key, when it does fit
		}
		s.stats.Comparisons++ // one per row admitted
		h.push(e)
		return true
	}

	for h.len() > 0 {
		if err := guard.Check(); err != nil {
			return err
		}
		if h.topDeferred() {
			// Current run exhausted: start the next one.
			if err := finishRun(); err != nil {
				return err
			}
			h.nextRun()
			w = s.newRunWriter()
		}
		e := h.pop()
		if err := w.write(s.store.rowBytes(s.store.entry(e))); err != nil {
			return err
		}
		s.ky.lift(&last, s.store, s.store.entry(e))
		s.store.free(e)
		if err := take(admit); err != nil {
			return err
		}
	}
	if err := finishRun(); err != nil {
		return err
	}
	s.store.release()

	// Phase 3: reduce runs to fan-in and set up the final merge.
	runs, err := reduceRuns(s.cfg, s.arena, s.runs, s.ky, noLimit, &s.stats)
	if err != nil {
		return err
	}
	s.runs = runs
	s.merger, err = newRunMerger(runs, s.ky, &s.stats.Comparisons)
	return err
}

// newRunWriter opens a streaming run writer in the sort's spill arena
// (created on first spill; an in-memory sort never allocates one).
func (s *SRS) newRunWriter() *runWriter {
	if s.arena == nil {
		s.arena = s.cfg.Disk.NewArenaTapped(s.cfg.Tap)
	}
	return newRunWriter(s.arena, s.cfg.TempPrefix)
}

// removeTemps returns the store's blocks and releases the spill arena,
// dropping every run file this sort created — formation runs and reduction
// outputs alike — and merging the arena's I/O ledger into the disk's
// (idempotent).
func (s *SRS) removeTemps() {
	if s.store != nil {
		s.store.release()
	}
	if s.arena != nil {
		s.arena.Release()
		s.arena = nil
	}
	s.runs = nil
}

func (s *SRS) trackPeak(b int64) {
	if b > s.stats.PeakMemBytes {
		s.stats.PeakMemBytes = b
	}
}

// NextChunk fills c with the next rows in sorted order, as spans over the
// store or the final merge's run pages (runMerger.fill).
func (s *SRS) NextChunk(c *types.Chunk) error {
	c.Reset()
	if !s.inMem {
		n, err := s.merger.fill(c, s.stats.TuplesIn-s.stats.TuplesOut)
		s.stats.TuplesOut += n
		return err
	}
	for ; s.memPos < len(s.memOrder) && !c.Full(); s.memPos++ {
		if err := appendEncoded(c, s.store.rowAt(s.store.entry(s.memOrder[s.memPos]))); err != nil {
			return err
		}
		s.stats.TuplesOut++
	}
	return nil
}

// Close releases run files and closes the input.
func (s *SRS) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.removeTemps()
	if s.src != nil {
		s.src.release()
	}
	return s.input.Close()
}
