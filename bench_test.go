package pyro

// One benchmark per table/figure of the paper's evaluation (§6), plus
// micro-benchmarks for the core mechanisms (SRS vs MRS, PathOrder, the
// optimizer itself). The harness prints the paper's rows/series; under
// `go test -bench` each figure is regenerated b.N times at a reduced scale
// so the suite stays minutes-long. Run cmd/pyro-bench for full-scale
// reproduction output.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pyro/internal/catalog"
	"pyro/internal/core"
	"pyro/internal/exec"
	"pyro/internal/harness"
	"pyro/internal/iter"
	"pyro/internal/ordersel"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
	"pyro/internal/workload"
	"pyro/internal/xsort"
)

var benchScale = harness.Scale{Factor: 0.25}

func benchExperiment(b *testing.B, name string) {
	fn, ok := harness.Experiments[name]
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := fn(io.Discard, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Fig2ExampleOne regenerates §3 Example 1 (Figures 1 and 2):
// naive vs order-aware merge-join plan for the catalog-consolidation query.
func BenchmarkFig1Fig2ExampleOne(b *testing.B) { benchExperiment(b, "example1") }

// BenchmarkFigure7ExpA1 regenerates Figure 7: ORDER BY with a covering
// index supplying a partial order — default sort vs MRS.
func BenchmarkFigure7ExpA1(b *testing.B) { benchExperiment(b, "a1") }

// BenchmarkFigure8ExpA2 regenerates Figure 8: tuples-produced-vs-time for
// SRS and MRS.
func BenchmarkFigure8ExpA2(b *testing.B) { benchExperiment(b, "a2") }

// BenchmarkFigure9ExpA3 regenerates Figure 9: the effect of partial sort
// segment size, including the spill crossover.
func BenchmarkFigure9ExpA3(b *testing.B) { benchExperiment(b, "a3") }

// BenchmarkExpA4Query2 regenerates Experiment A4: Query 2 with full vs
// partial sorts (the paper's 63s -> 25s).
func BenchmarkExpA4Query2(b *testing.B) { benchExperiment(b, "a4") }

// BenchmarkFig10Fig11Query3Plans and BenchmarkFig12Fig13Execution
// regenerate Experiment B1: the Query 3 plan shapes and their execution.
func BenchmarkFig10Fig11Query3Plans(b *testing.B) { benchExperiment(b, "b1") }

// BenchmarkFig12Fig13Execution is the execution half of Experiment B1 (the
// same runner measures both; kept as a separate bench to match the paper's
// figure numbering).
func BenchmarkFig12Fig13Execution(b *testing.B) { benchExperiment(b, "b1") }

// BenchmarkFig14Query4Plans regenerates Experiment B2 (Figure 14):
// coordinated vs independent sort orders across two full outer joins.
func BenchmarkFig14Query4Plans(b *testing.B) { benchExperiment(b, "b2") }

// BenchmarkFigure15PlanCosts regenerates Experiment B3 (Figure 15):
// normalized estimated plan costs for Q3-Q6 under all five heuristics.
func BenchmarkFigure15PlanCosts(b *testing.B) { benchExperiment(b, "b3") }

// BenchmarkFigure16Scalability regenerates Figure 16: optimization time vs
// number of join attributes.
func BenchmarkFigure16Scalability(b *testing.B) { benchExperiment(b, "scalability") }

// BenchmarkPhase2Refinement31Nodes regenerates the §6.3 plan-refinement
// timing (31-node trees, 10 attributes per node, paper: < 6 ms).
func BenchmarkPhase2Refinement31Nodes(b *testing.B) { benchExperiment(b, "refine") }

// cursorArm is one public-API benchmark arm: a plan, the rows its consumer
// pulls before closing (all of them when pull < 0) and the rows it must get.
type cursorArm struct {
	name string
	plan *Plan
	pull int
	rows int64
}

// pullArm runs arm once: Query, pull, Close. It returns the query's stats.
func pullArm(tb testing.TB, db *Database, arm cursorArm) ExecStats {
	cur, err := db.Query(context.Background(), arm.plan)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; (arm.pull < 0 || i < arm.pull) && cur.Next(); i++ {
	}
	if err := cur.Close(); err != nil {
		tb.Fatal(err)
	}
	st := cur.Stats()
	if st.Rows != arm.rows {
		tb.Fatalf("%s: %d rows, want %d", arm.name, st.Rows, arm.rows)
	}
	return st
}

// benchCursorArms times each arm as a sub-benchmark.
func benchCursorArms(b *testing.B, db *Database, arms []cursorArm) {
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pullArm(b, db, arm)
			}
			b.ReportMetric(float64(arm.rows), "rows/op")
		})
	}
}

// optimize plans q or fails tb.
func optimize(tb testing.TB, db *Database, q *Query, opts ...OptimizeOption) *Plan {
	tb.Helper()
	p, err := db.Optimize(q, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// timeToFirstRowArms measure first-Next latency at the public boundary:
// open a cursor, pull one row, close. The partial arm streams a pipelined
// partial-sort plan (first segment only); the full-sort arm must consume
// the entire input on the first Next before the first row exists. db is
// segmentedDB(50 000, 500), the workload TestCursorEarlyCloseAbandonsWork
// pins.
func timeToFirstRowArms(tb testing.TB, db *Database) []cursorArm {
	q := db.Scan("big").OrderBy("g", "v")
	return []cursorArm{
		{"partial-cursor", optimize(tb, db, q), 1, 1},
		{"full-cursor", optimize(tb, db, q, WithoutPartialSort()), 1, 1},
	}
}

// topKArms are the two ways a consumer gets Top-K early exit: a planned
// Limit(k) — the optimizer's row budget picks the pipelined plan and the
// exec.Limit operator closes the sort at k — drained to completion, versus
// the unlimited plan with a consumer that pulls k rows and closes the cursor
// by hand. The two arms shed the same work
// (TestPushedDownLimitMatchesEarlyClose pins that), so their delta is the
// overhead of each exit path.
func topKArms(tb testing.TB, db *Database) []cursorArm {
	const k = 10
	return []cursorArm{
		{"planned-limit", optimize(tb, db, db.Scan("big").OrderBy("g", "v").Limit(k)), -1, k},
		{"early-close", optimize(tb, db, db.Scan("big").OrderBy("g", "v")), k, k},
	}
}

// scanFilterArm is the chunked executor's target pipeline: a full drain of
// scan→filter, where each operator call moves one page's tuples — the scan
// decodes into pooled column vectors, the filter marks a selection vector in
// a tight loop, and the cursor serves rows out of a reused buffer.
func scanFilterArm(tb testing.TB, db *Database) cursorArm {
	return cursorArm{"scan-filter", optimize(tb, db, db.Scan("big").Filter(Gt(Col("v"), Int(100)))), -1, 49_495}
}

// scanSortLimitArm is batching under a blocking enforcer:
// scan→full-sort→limit, where the sort's input collection reads chunks off
// each page and key-encodes one chunk at a time.
func scanSortLimitArm(tb testing.TB, db *Database) cursorArm {
	return cursorArm{"scan-sort-limit", optimize(tb, db, db.Scan("big").OrderBy("v", "pad").Limit(1_000)), -1, 1_000}
}

// BenchmarkTimeToFirstRow times timeToFirstRowArms.
func BenchmarkTimeToFirstRow(b *testing.B) {
	db := segmentedDB(b, 50_000, 500)
	benchCursorArms(b, db, timeToFirstRowArms(b, db))
}

// BenchmarkTopKPlanned times topKArms.
func BenchmarkTopKPlanned(b *testing.B) {
	db := segmentedDB(b, 50_000, 500)
	benchCursorArms(b, db, topKArms(b, db))
}

// BenchmarkConcurrentTopK drives the serving layer at its design point:
// many concurrent Top-K cursors sharing one governed database. Each
// iteration fires `queries` Top-K queries (ORDER BY + LIMIT over the
// servingDB tables) from a bounded worker pool through the admission gate
// and the sort-memory governor, records every query's end-to-end latency,
// and reports the tail as p50/p95/p99 metrics. The governor's
// PeakGrantedBlocks is asserted against the global pool, so the benchmark
// doubles as a check that total sort memory stayed bounded however many
// cursors were live.
func BenchmarkConcurrentTopK(b *testing.B) {
	db := servingDB(b, Config{
		SortMemoryBlocks:       16,
		GlobalSortMemoryBlocks: 64,
		MaxConcurrentQueries:   32,
	})
	plan, err := db.Optimize(db.Scan("small").OrderBy("v").Limit(5))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	const queries = 1200
	workers := 64
	lat := make([]time.Duration, queries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := next.Add(1) - 1
					if j >= queries {
						return
					}
					start := time.Now()
					cur, err := db.Query(ctx, plan)
					if err != nil {
						b.Error(err)
						return
					}
					for cur.Next() {
					}
					if err := cur.Err(); err != nil {
						b.Error(err)
						return
					}
					if err := cur.Close(); err != nil {
						b.Error(err)
						return
					}
					lat[j] = time.Since(start)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(lat)-1))
		return float64(lat[idx]) / float64(time.Millisecond)
	}
	b.ReportMetric(pct(0.50), "p50-ms")
	b.ReportMetric(pct(0.95), "p95-ms")
	b.ReportMetric(pct(0.99), "p99-ms")
	s := db.ServingStats()
	b.ReportMetric(float64(s.Governor.PeakGrantedBlocks), "peak-blocks")
	if s.Governor.PeakGrantedBlocks > 64 {
		b.Fatalf("governor peak %d blocks exceeds the 64-block global pool", s.Governor.PeakGrantedBlocks)
	}
	if s.Admission.PeakLive > 32 {
		b.Fatalf("admission peak %d exceeds the 32-query gate", s.Admission.PeakLive)
	}
}

// BenchmarkScanFilterThroughput times scanFilterArm; throughput is
// rows/op ÷ ns/op.
func BenchmarkScanFilterThroughput(b *testing.B) {
	db := segmentedDB(b, 50_000, 500)
	benchCursorArms(b, db, []cursorArm{scanFilterArm(b, db)})
}

// BenchmarkScanSortLimitThroughput times scanSortLimitArm.
func BenchmarkScanSortLimitThroughput(b *testing.B) {
	db := segmentedDB(b, 50_000, 500)
	benchCursorArms(b, db, []cursorArm{scanSortLimitArm(b, db)})
}

// --- Micro-benchmarks for the core mechanisms -----------------------------

func sortBenchRows(n int, segments int64) []types.Tuple {
	rng := rand.New(rand.NewSource(1))
	per := int64(n) / segments
	if per < 1 {
		per = 1
	}
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.NewTuple(
			types.NewInt(int64(i)/per),
			types.NewInt(rng.Int63n(1_000_000)),
			types.NewString("payload-payload"),
		)
	}
	return rows
}

var sortBenchSchema = types.NewSchema(
	types.Column{Name: "c1", Kind: types.KindInt},
	types.Column{Name: "c2", Kind: types.KindInt},
	types.Column{Name: "c3", Kind: types.KindString, Width: 16},
)

// BenchmarkSRSSort measures standard replacement selection on partially
// sorted input (the baseline of §3).
func BenchmarkSRSSort(b *testing.B) {
	rows := sortBenchRows(50_000, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := storage.NewDisk(0)
		s, err := xsort.NewMRS(iter.FromSlice(rows), sortBenchSchema,
			sortord.New("c1", "c2"), sortord.Empty, xsort.Config{Disk: d, MemoryBlocks: 64})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := iter.Drain(s, sortBenchSchema.Len()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMRSSort measures the paper's modified replacement selection on
// the same input; the speedup over BenchmarkSRSSort is the §3.1 claim.
func BenchmarkMRSSort(b *testing.B) {
	rows := sortBenchRows(50_000, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := storage.NewDisk(0)
		m, err := xsort.NewMRS(iter.FromSlice(rows), sortBenchSchema,
			sortord.New("c1", "c2"), sortord.New("c1"), xsort.Config{Disk: d, MemoryBlocks: 64})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := iter.Drain(m, sortBenchSchema.Len()); err != nil {
			b.Fatal(err)
		}
	}
}

// keyBenchRows returns rows whose sort key is the realistic hard case: a
// composite (int, string, int) key with shared string prefixes, longer than
// an entry prefix. c1 carries the MRS segment order.
func keyBenchRows(n int, segments int64) []types.Tuple {
	rng := rand.New(rand.NewSource(2))
	per := int64(n) / segments
	if per < 1 {
		per = 1
	}
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.NewTuple(
			types.NewInt(int64(i)/per),
			types.NewInt(rng.Int63n(1_000)),
			types.NewString(fmt.Sprintf("customer-%03d-%04d", rng.Intn(100), rng.Intn(10_000))),
		)
	}
	return rows
}

// countedSort is an xsort enforcer with its work counters.
type countedSort interface {
	iter.Iterator
	Stats() *xsort.SortStats
}

// runFormation is one of the four regimes run formation works in — MRS
// segments in memory, MRS spilled batches, the SRS in-memory fast path and
// the SRS phase-1 fill ahead of replacement selection — over keyBenchRows.
// How a buffer is sorted is the sort's own choice (radix or comparison, by
// buffer size and key width); TestGoldenRadixAgrees /
// TestRunFormationModesAgree hold both sides to the same output.
type runFormation struct {
	segments int64 // of keyBenchRows(50 000, segments)
	spills   bool
	build    func(in iter.Iterator, d *storage.Disk) (countedSort, error)
}

// run sorts rows once on a fresh disk and returns the sort's counters and
// the disk's I/O.
func (rf runFormation) run(tb testing.TB, rows []types.Tuple) (xsort.SortStats, storage.IOStats) {
	d := storage.NewDisk(0)
	s, err := rf.build(iter.FromSlice(rows), d)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := iter.Drain(s, sortBenchSchema.Len()); err != nil {
		tb.Fatal(err)
	}
	if spilled := s.Stats().RunsGenerated > 0; spilled != rf.spills {
		tb.Fatalf("spilled = %v, the workload is built for %v", spilled, rf.spills)
	}
	return *s.Stats(), d.Stats()
}

// bench times rf.run.
func (rf runFormation) bench(b *testing.B) {
	rows := keyBenchRows(50_000, rf.segments)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rf.run(b, rows)
	}
}

var (
	// mrsPartialRunFormation is the MRS hot path the radix engine targets:
	// in-memory partial-sort segments on a composite (string, int) suffix
	// key. Parallelism is pinned to 1 so the time is the segment sorts alone.
	mrsPartialRunFormation = runFormation{100, false, func(in iter.Iterator, d *storage.Disk) (countedSort, error) {
		return xsort.NewMRS(in, sortBenchSchema, sortord.New("c1", "c3", "c2"), sortord.New("c1"),
			xsort.Config{Disk: d, MemoryBlocks: 2048, Parallelism: 1})
	}}
	// mrsSpilledRunFormation: oversized segments whose memory batches are
	// sorted and spilled, then merged, serially.
	mrsSpilledRunFormation = runFormation{4, true, func(in iter.Iterator, d *storage.Disk) (countedSort, error) {
		return xsort.NewMRS(in, sortBenchSchema, sortord.New("c1", "c3", "c2"), sortord.New("c1"),
			xsort.Config{Disk: d, MemoryBlocks: 64, Parallelism: 1})
	}}
	// srsRunFormation is the SRS in-memory fast path: the whole input fits,
	// so the fill is byte-bucket sorted and emitted directly, with no
	// replacement-selection heap built or drained.
	srsRunFormation = runFormation{100, false, func(in iter.Iterator, d *storage.Disk) (countedSort, error) {
		return xsort.NewMRS(in, sortBenchSchema, sortord.New("c3", "c2", "c1"), sortord.Empty, xsort.Config{Disk: d, MemoryBlocks: 4096})
	}}
	// srsSpilledRunFormation: spilled SRS, where radix only seeds the initial
	// heap fill (replacement selection itself stays comparison-based).
	srsSpilledRunFormation = runFormation{100, true, func(in iter.Iterator, d *storage.Disk) (countedSort, error) {
		return xsort.NewMRS(in, sortBenchSchema, sortord.New("c3", "c2", "c1"), sortord.Empty, xsort.Config{Disk: d, MemoryBlocks: 256})
	}}
)

func BenchmarkMRSPartialSortRunFormation(b *testing.B) { mrsPartialRunFormation.bench(b) }
func BenchmarkMRSSpilledSortRunFormation(b *testing.B) { mrsSpilledRunFormation.bench(b) }
func BenchmarkSRSSortRunFormation(b *testing.B)        { srsRunFormation.bench(b) }
func BenchmarkSRSSpilledSortRunFormation(b *testing.B) { srsSpilledRunFormation.bench(b) }

// workCounters are the deterministic work counters of one arm: sort key
// comparisons and radix passes, total page I/O and run-page I/O.
type workCounters struct {
	comparisons, radixPasses, ioPages, runPages int64
}

// TestWorkCounters pins the work counters of the cursor and run-formation
// benchmark arms exactly. The counters replicate bit-for-bit on any machine
// — the database's sort parallelism is 1 and the golden tests pin
// parallelism invariance — so a plan-shape or engine change that moves any of them
// fails here; a change that means to move them updates this table and says
// why.
//
// ScanSortLimitThroughput's comparisons went 101 804 → 51 805 when a sort
// with nothing given stopped counting a segment-boundary comparison per
// lookahead row (49 999 of them): every row is of the one segment, and no key
// bytes are compared to know it.
//
// The three spilling arms moved when a spilled sort began to keep the rows it
// holds at input end for its final merge instead of writing them: run pages
// fell 1 096 → 864 (MRSSpilledSortRunFormation, each segment's last batch),
// 1 078 → 830 (SRSSpilledSortRunFormation, the heap less an evicted block or
// two) and 380 → 346 (TimeToFirstRow/full-cursor, whose first row reads one
// page of each run). Replacement selection no longer drains its heap through
// the run at input end, a comparison per sift, but sorts what it holds, by
// radix: its comparisons fell and its radix passes rose.
//
// Three arms moved when every spilling segment came to form its runs by
// replacement selection, and the run heap came to pop bottom-up and, with
// the merge, to compare 8-byte key heads first.
// MRSSpilledSortRunFormation's 12 500-row segments form two runs by
// replacement selection, where they wrote three memory-load batches, and
// evict their heap's last row blocks as a third to keep the rest for the
// final merge — their keys do not tie across the cut: run pages fell
// 864 → 828; its comparisons rose 237 010 → 699 171 and its radix passes
// fell 1 769 → 783, as heap sifts replace batch sorts. The unbounded full
// sorts keep their runs and pages; their comparisons fell, 943 972 → 757 419
// (SRSSpilledSortRunFormation) and 1 111 250 → 646 547
// (TimeToFirstRow/full-cursor), a pop spending one comparison a level.
//
// Five arms moved when rows became narrower (a uvarint column count and
// string lengths): each page and each block of sort memory holds more rows.
// Table scans read 379 → 343 pages (ScanFilterThroughput,
// ScanSortLimitThroughput); the spilling arms' run pages fell 828 → 714
// (MRSSpilledSortRunFormation), 830 → 712 (SRSSpilledSortRunFormation) and
// 346 → 311 (TimeToFirstRow/full-cursor, whose I/O fell 725 → 654). A
// larger heap forms fewer, longer runs: comparisons moved 699 171 → 695 155,
// 757 419 → 750 095 and 646 547 → 646 511, radix passes 783 → 794,
// 566 → 633 and 281 → 307, as more rows are held and sorted at input end.
func TestWorkCounters(t *testing.T) {
	db := segmentedDBWith(t, Config{SortMemoryBlocks: 64, SortParallelism: 1}, 50_000, 500)
	want := map[string]workCounters{
		"TimeToFirstRow/partial-cursor": {500, 15, 4, 0},
		"TimeToFirstRow/full-cursor":    {646_511, 307, 654, 311},
		"TopKPlanned/planned-limit":     {1_008, 0, 4, 0},
		"TopKPlanned/early-close":       {500, 15, 4, 0},
		"ScanFilterThroughput":          {0, 0, 343, 0},
		"ScanSortLimitThroughput":       {51_805, 72, 343, 0},
		"MRSPartialSortRunFormation":    {140_507, 1_100, 0, 0},
		"MRSSpilledSortRunFormation":    {695_155, 794, 714, 714},
		"SRSSortRunFormation":           {91_014, 1_111, 0, 0},
		"SRSSpilledSortRunFormation":    {750_095, 633, 712, 712},
	}
	got := map[string]workCounters{}
	cursor := func(name string, arm cursorArm) {
		st := pullArm(t, db, arm)
		var c workCounters
		for _, s := range st.Sorts {
			c.comparisons += s.Comparisons
			c.radixPasses += s.RadixPasses
		}
		c.ioPages = st.IO.PageReads + st.IO.PageWrites
		c.runPages = st.IO.RunPageReads + st.IO.RunPageWrites
		got[name] = c
	}
	for _, arm := range timeToFirstRowArms(t, db) {
		cursor("TimeToFirstRow/"+arm.name, arm)
	}
	for _, arm := range topKArms(t, db) {
		cursor("TopKPlanned/"+arm.name, arm)
	}
	cursor("ScanFilterThroughput", scanFilterArm(t, db))
	cursor("ScanSortLimitThroughput", scanSortLimitArm(t, db))
	for name, rf := range map[string]runFormation{
		"MRSPartialSortRunFormation": mrsPartialRunFormation,
		"MRSSpilledSortRunFormation": mrsSpilledRunFormation,
		"SRSSortRunFormation":        srsRunFormation,
		"SRSSpilledSortRunFormation": srsSpilledRunFormation,
	} {
		st, io := rf.run(t, keyBenchRows(50_000, rf.segments))
		got[name] = workCounters{st.Comparisons, st.RadixPasses,
			io.PageReads + io.PageWrites, io.RunPageReads + io.RunPageWrites}
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

// BenchmarkMRSSortParallelism measures the bounded worker pool on MRS's
// independent in-memory segment sorts (encoded keys in both arms; p0 is the
// GOMAXPROCS default).
func BenchmarkMRSSortParallelism(b *testing.B) {
	rows := sortBenchRows(200_000, 50) // 4000-tuple segments: enough work per segment to amortize dispatch
	for _, par := range []struct {
		name string
		p    int
	}{{"p1", 1}, {"p2", 2}, {"p4", 4}, {"pmax", 0}} {
		b.Run(par.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := storage.NewDisk(0)
				m, err := xsort.NewMRS(iter.FromSlice(rows), sortBenchSchema,
					sortord.New("c1", "c2"), sortord.New("c1"),
					xsort.Config{Disk: d, MemoryBlocks: 2048, Parallelism: par.p})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := iter.Drain(m, sortBenchSchema.Len()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSRSHeapReplacementSelection isolates the replacement-selection
// heap: a spill-heavy full sort whose run formation is dominated by heap
// push/pop traffic (every input tuple passes through the heap once). The
// heap moves 4-byte entry handles over stable entry storage rather than
// swapping entries, a pop sifts bottom-up, and a comparison reads the 8-byte
// key head first; the same heap forms every spilling segment's runs, so this
// benchmark guards them all.
func BenchmarkSRSHeapReplacementSelection(b *testing.B) {
	rows := sortBenchRows(100_000, 1) // single segment: pure heap churn
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := storage.NewDisk(0)
		s, err := xsort.NewMRS(iter.FromSlice(rows), sortBenchSchema,
			sortord.New("c2", "c1"), sortord.Empty, xsort.Config{Disk: d, MemoryBlocks: 256})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := iter.Drain(s, sortBenchSchema.Len()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathOrderDP measures the Figure 4 dynamic program on a 31-node
// path with 10 attributes per node.
func BenchmarkPathOrderDP(b *testing.B) {
	sets := make([]sortord.AttrSet, 31)
	for i := range sets {
		s := sortord.NewAttrSet()
		for k := 0; k < 10; k++ {
			s.Add(fmt.Sprintf("x%d", (i*3+k)%20))
		}
		sets[i] = s
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ordersel.PathOrder(sets)
	}
}

// BenchmarkTwoApprox measures the §4.2 2-approximation on a 31-node
// complete binary tree.
func BenchmarkTwoApprox(b *testing.B) {
	sets := make([]sortord.AttrSet, 31)
	var edges [][2]int
	for i := range sets {
		s := sortord.NewAttrSet()
		for k := 0; k < 10; k++ {
			s.Add(fmt.Sprintf("x%d", (i*3+k)%20))
		}
		sets[i] = s
		if i > 0 {
			edges = append(edges, [2]int{(i - 1) / 2, i})
		}
	}
	prob := ordersel.Problem{Sets: sets, Edges: edges}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ordersel.TwoApprox(prob)
	}
}

// BenchmarkOptimizeQ3 measures one full optimization of Query 3 under
// PYRO-O (plan generation + phase 2).
func BenchmarkOptimizeQ3(b *testing.B) {
	disk := storage.NewDisk(0)
	cat := catalog.New(disk)
	cfg := workload.DefaultTPCH()
	cfg.Suppliers, cfg.PartsPerSupplier = 50, 40
	if err := workload.BuildTPCH(cat, cfg); err != nil {
		b.Fatal(err)
	}
	q3, err := workload.Query3(cat)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(q3, core.DefaultOptions(core.HeuristicFavorable)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeJoinExec measures raw merge-join throughput.
func BenchmarkMergeJoinExec(b *testing.B) {
	var left, right []types.Tuple
	for i := 0; i < 20_000; i++ {
		left = append(left, types.NewTuple(types.NewInt(int64(i/2)), types.NewInt(int64(i))))
	}
	for i := 0; i < 10_000; i++ {
		right = append(right, types.NewTuple(types.NewInt(int64(i)), types.NewInt(int64(i))))
	}
	ls := types.NewSchema(types.Column{Name: "a", Kind: types.KindInt}, types.Column{Name: "b", Kind: types.KindInt})
	rs := types.NewSchema(types.Column{Name: "c", Kind: types.KindInt}, types.Column{Name: "d", Kind: types.KindInt})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lop, _ := exec.NewValues(ls, left)
		rop, _ := exec.NewValues(rs, right)
		mj, err := exec.NewMergeJoin(lop, rop, sortord.New("a"), sortord.New("c"), exec.InnerJoin)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exec.Drain(mj); err != nil {
			b.Fatal(err)
		}
	}
}
