// Package xsort implements external sorting as one chunk iterator
// (iter.Iterator), MRS — the paper's modified replacement selection (§3.1).
// When the input is known to carry a partial sort order (a prefix of the
// target order, the given order), tuples are grouped into partial-sort
// segments and each segment is sorted independently. If a segment fits in
// memory the sort does no I/O at all and emits tuples as soon as the
// segment's last tuple has been read, giving pipelined execution, early
// output, and fewer comparisons (suffix-only within a segment).
//
// With nothing given the input is one segment: the full sort. The paper's
// SRS — standard replacement selection (Knuth '73) — is how that segment
// spills when no Limit bounds it: heap-based run formation producing runs
// averaging twice the memory size, followed by multiway merging. With fully
// sorted input it still writes one big run to disk and reads it back,
// breaking the pipeline — the deficiency the paper highlights — though only
// N − load of its N rows: what it holds when the input ends stays in memory
// (below). SRS and MRS
// differ in that algorithm only (replacementSelection decides it), not in
// the operator: both read their input on the first NextChunk, never in Open.
//
// Sort memory is one thing: a row store (store.go). Every row a sort buffers
// — a segment or spill batch, the replacement-selection heap, a bounded
// collector's selection — lives encoded, in the page row format it
// arrived in and will spill as, in page-sized blocks drawn one at a time from
// the disk's block pool, with a fixed-width entry beside it: the first bytes
// of its normalized key, a tie flag and the row's offset. The budget
// (Config.MemoryBlocks, or the query's live iter.Budget while it is lower) is
// compared to the blocks a store holds, SortStats.PeakMemBytes is their
// high-water mark, a spill
// copies row bytes to the run file and hands the blocks back, and a Close —
// early, after an error, after a worker panic — returns every block
// (storage.Disk.LiveBlocks is the leak check). M blocks of budget are M
// blocks of heap holding M pages' worth of rows and entries; the one thing
// outside them is the 4-byte-a-row permutation a sort orders or the
// replacement-selection heap. Input that arrives as chunks filled from a
// scan is buffered by copying its encoded spans — the chunk is never decoded
// — and output leaves the same way: NextChunk hands the consumer's chunk the
// rows' bytes as spans over the store or the run page, decoded only when the
// consumer reads a datum.
//
// Keys are normalized: each tuple's sort key is encoded once (package keys)
// into an order-preserving byte string, so a comparison is a bytes.Compare of
// two entry prefixes — and of the keys' overflow, kept beside the rows, when
// both prefixes are truncated and tie — instead of a typed field walk. Every
// resolvable order has such an encoding (a NULL-typed column is its marker
// byte), so there is no second key representation.
//
// Run formation — producing the sorted order of a store's entries, be it a
// segment, a spill batch, or the fill that seeds the replacement-selection
// heap — additionally exploits that byte order IS key order: buffers large
// enough, on keys wide enough, are sorted by MSD radix partitioning over the
// entry prefixes (see radix.go) instead of the comparison sort; the sort
// decides per buffer from those two things it can observe. The radix order is
// bit-identical to the stable comparison order, so output bytes, run/pass
// structure and I/O totals do not depend on the choice; only the work
// accounting changes (RadixPasses and RadixBucketScans alongside a smaller
// Comparisons). Replacement selection itself is comparison-based: its
// incremental push/pop structure is what produces the 2M-sized runs, and a
// heap has no radix equivalent.
//
// A spilled run is one file of encoded rows: a spill copies row bytes out of
// the store, an intermediate merge copies the winner's bytes from page to
// page, and the final merge hands them out as chunk spans. The rows a spilled
// segment's store still holds when its input ends are not written at all
// when the final merge can then read them beside the runs with no reduction
// pass — their blocks and one read block per run within the allowance, or
// else after evicting the fewest last row blocks as one more small run
// (MRS.keepTail): the kept tail is one more merge input, read from memory.
// Merges key each row they read from its bytes and break full-key ties by
// run ordinal; runs are formed in arrival order by stable sorts and
// reductions keep merged outputs in place, so the sort is stable and its
// output bytes do not depend on the reduction schedule (merge.go). The one
// exception is a segment spilled by replacement selection: its heap promises
// rows with duplicate full sort keys no order.
//
// Independent in-memory segments are sorted on a bounded worker pool
// (Config.Parallelism); see mrs.go for the pipelining contract. Spilling is
// serial, as in the paper: runs are formed, reduced and merged on the
// consumer goroutine, into a storage.SpillArena per spilled segment.
//
// PlanSpill (spill.go) predicts how a sort spills — runs formed, passes, run
// pages written and read, the tail kept — without sorting, from these same
// rules: what a store admits, the formation replacementSelection picks, what
// a tail cut keeps, and reductionPass. The cost model prices sorts from it.
//
// A sort's query reaches it through MRS.Bind (exec.Bind calls it): the
// binding's abort is polled by segment collection, replacement selection and
// every reduction merge, its tap observes every spill arena, and its budget
// is the live allowance. An unbound sort never aborts, taps nothing and holds
// its static MemoryBlocks.
//
// The sort charges every run-file page transfer to the disk's IOStats
// (attributed to KindRun) and counts key comparisons in SortStats. Every counter,
// PeakMemBytes aside, is identical at every parallelism level: the pool
// changes when an in-memory segment is sorted, never how, and each worker's
// tally folds into SortStats on the consumer goroutine in segment order.
package xsort

import (
	"fmt"
	"math"
	"runtime"

	"pyro/internal/storage"
)

// SortStats records the work done by one sort operator instance.
type SortStats struct {
	Comparisons   int64 // key comparisons performed
	RunsGenerated int   // runs written to disk
	MergePasses   int   // intermediate merge passes (excluding the final pipelined merge)
	Segments      int   // partial-sort segments processed (a full sort's input is one)
	SpilledSegs   int   // segments that did not fit in memory
	PeakMemBytes  int64 // high-water mark of the sort-memory blocks held, in bytes (see store.go)
	TuplesIn      int64
	TuplesOut     int64

	// RadixPasses and RadixBucketScans account radix run formation in the
	// same spirit Comparisons accounts the comparison sorts: one pass is
	// one counting distribution over a bucket's entries on one key byte,
	// and the scan counter totals the tuples those passes classified. In
	// Total sort work reads as Comparisons (heap, merge, comparison sorts and
	// insertion-sort tails) plus these; a sort that never picked radix leaves
	// both zero.
	RadixPasses      int64
	RadixBucketScans int64

	// MergeBucketSkips and FlatRunPages are always 0: they counted the work
	// of the entry-file spill layouts, which are gone. The fields are read by
	// cmd/pyro-perf and leave with the pyro-perf probes in the next
	// `benchmark` PR.
	MergeBucketSkips int64
	FlatRunPages     int64

	// RunsMerged counts the runs intermediate merges consumed, over all
	// reduction passes (the final merge's inputs are not counted). A pass
	// rewrites only the runs the final merge cannot take as they are, so
	// MergePasses alone no longer says how much data a reduction moved:
	// RunsMerged against RunsGenerated does. Folded in group order, so it is
	// identical at every parallelism.
	RunsMerged int

	// SpillRunsSerial counts the runs formed on the consumer goroutine: all
	// of them, so it equals RunsGenerated. SpillRunsParallel is
	// always 0: it counted runs formed by spill workers, which are gone. Both
	// are read by cmd/pyro-perf and leave with its probes, like
	// MergeBucketSkips.
	SpillRunsSerial   int
	SpillRunsParallel int
}

// Config carries the resources available to a sort operator.
type Config struct {
	Disk *storage.Disk
	// MemoryBlocks is M, the number of disk blocks worth of main memory
	// available for sorting (the paper uses M = 10000 blocks = 40 MB): the
	// page-sized blocks of encoded rows and sort entries a sort may hold at
	// once — never fewer than one of each. A budget bound by MRS.Bind may
	// lower the allowance while the sort runs; MemoryBlocks still sizes what
	// is fixed at build time — the merge fan-in — so a governor shrink
	// changes where the sort spills, never the shape of its merge.
	MemoryBlocks int
	// Parallelism bounds how many in-memory segments may be sorted
	// concurrently. 0 means runtime.GOMAXPROCS(0); 1 means fully serial,
	// strictly demand-driven reading (the paper's original behaviour).
	// Read-ahead stops once buffered tuples reach the MemoryBlocks budget,
	// so parallelism deepens the pipeline without multiplying M. A full sort
	// is one segment, and spilling is serial, so it is unaffected.
	Parallelism int
	// BatchSize is the capacity of the chunks the sort pulls its input in
	// (see source.go); 0 or 1 pulls one row per chunk. Sort keys are encoded
	// per batch (keys.Codec.EncodeBatch). The sort's tuple-level algorithm —
	// segment boundaries, budget checks, abort polling, emission — is
	// untouched, and a chunk never crosses a storage page, so output bytes,
	// SortStats and I/O are identical at every batch size.
	BatchSize int
	// Limit, when positive, is a hard bound on the rows the consumer will
	// ever read — a LIMIT k sitting on the sort, never a row-target hint: the
	// sort emits at most Limit rows and does only the work those rows need.
	// Each segment keeps a bounded selection of the rows still owed instead
	// of the whole segment (spilling only if those rows themselves exceed the
	// budget, and then as batch runs cut at that many rows, never by
	// replacement selection), and the sort stops reading input at the first
	// segment boundary at or past the bound — see mrs.go. The emitted rows
	// are the first Limit rows of the unlimited sort, a full sort's included.
	// 0 means unbounded.
	Limit int64
}

// noLimit is the row bound of an unbounded sort. Config.Limit == 0 resolves
// to it, so bounded and unbounded sorts run the same code with a bound the
// latter can never reach.
const noLimit = math.MaxInt64

func (c Config) limit() int64 {
	if c.Limit > 0 {
		return c.Limit
	}
	return noLimit
}

func (c Config) fanIn() int { return mergeFanIn(c.MemoryBlocks) }

// mergeFanIn is the merge fan-in of a sort with memoryBlocks blocks of
// memory: one block per input run plus one for the output, and never fewer
// than two inputs — a narrower merge reduces nothing. PlanSpill plans merge
// passes through the same function, so the cost model and execution cannot
// disagree at tiny budgets.
func mergeFanIn(memoryBlocks int) int {
	if memoryBlocks < 3 {
		return 2
	}
	return memoryBlocks - 1
}

func (c Config) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// validate checks the configuration's invariants.
func (c Config) validate() error {
	if c.Disk == nil {
		return fmt.Errorf("xsort: Config.Disk is nil")
	}
	if c.MemoryBlocks <= 0 {
		return fmt.Errorf("xsort: MemoryBlocks must be positive, got %d", c.MemoryBlocks)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("xsort: Parallelism must be non-negative, got %d", c.Parallelism)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("xsort: BatchSize must be non-negative, got %d", c.BatchSize)
	}
	if c.Limit < 0 {
		return fmt.Errorf("xsort: Limit must be non-negative, got %d", c.Limit)
	}
	return nil
}

// recoverWorker converts a panic on a segment-sort worker goroutine into an
// error at *dst. Off the consumer goroutine an unrecovered panic — a bug, or
// an injected panic fault — would kill the process before any cursor boundary
// could contain it; with this deferred on every worker it instead propagates
// as the sort's first error through the normal abort plumbing.
func recoverWorker(dst *error) {
	if r := recover(); r != nil {
		// Keep the chain when the panic value is an error, so sentinels
		// (e.g. an injected storage fault in panic mode) stay matchable
		// with errors.Is once the job error reaches the cursor.
		if err, ok := r.(error); ok {
			*dst = fmt.Errorf("xsort: worker panic: %w", err)
		} else {
			*dst = fmt.Errorf("xsort: worker panic: %v", r)
		}
	}
}
