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

// reportCursorCounters runs the plan once outside the timed loop — pinned
// to the serial sort algorithm so the mid-flight counters of an
// early-closed cursor are exact — and reports the arm's deterministic work
// counters: key comparisons, radix passes, and total/run page I/O. These
// are the numbers `make bench-gate` diffs against testdata/bench-baseline.txt:
// wall-clock is noise on shared CI runners, but the counters replicate
// bit-for-bit on any machine (the golden tests pin their parallelism
// invariance), so a plan-shape or engine regression moves them
// reproducibly and fails the gate.
func reportCursorCounters(b *testing.B, db *Database, plan *Plan, pull int, opts ...ExecOption) {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	opts = append(opts, WithSortParallelism(1))
	cur, err := db.Query(context.Background(), plan, opts...)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; pull < 0 || i < pull; i++ {
		if !cur.Next() {
			break
		}
	}
	if err := cur.Close(); err != nil {
		b.Fatal(err)
	}
	if err := cur.Err(); err != nil {
		b.Fatal(err)
	}
	st := cur.Stats()
	var comps, radix int64
	for _, s := range st.Sorts {
		comps += s.Comparisons
		radix += s.RadixPasses
	}
	b.ReportMetric(float64(comps), "comparisons/op")
	b.ReportMetric(float64(radix), "radix-passes/op")
	b.ReportMetric(float64(st.IO.PageReads+st.IO.PageWrites), "io-pages/op")
	b.ReportMetric(float64(st.IO.RunPageReads+st.IO.RunPageWrites), "run-pages/op")
}

// reportSortCounters is the xsort-level twin of reportCursorCounters: the
// benchmark loop hands in the last iteration's enforcer stats and device
// ledger (every iteration does identical work, so the last one is as good
// as any).
func reportSortCounters(b *testing.B, st xsort.SortStats, io storage.IOStats) {
	b.Helper()
	b.ReportMetric(float64(st.Comparisons), "comparisons/op")
	b.ReportMetric(float64(st.RadixPasses), "radix-passes/op")
	b.ReportMetric(float64(io.PageReads+io.PageWrites), "io-pages/op")
	b.ReportMetric(float64(io.RunPageReads+io.RunPageWrites), "run-pages/op")
}

// BenchmarkTimeToFirstRow measures first-Next latency at the public
// boundary: each iteration opens a cursor, pulls one row and closes. The
// baseline arm streams a pipelined partial-sort plan (first segment only);
// the full-sort arm must consume the entire input inside Query before the
// first row exists. `make bench-ab` feeds these arms through
// cmd/pyro-abdiff, so the first-row deltas land in the CI table.
func BenchmarkTimeToFirstRow(b *testing.B) {
	db := segmentedDB(b, 50_000, 500) // the workload TestCursorEarlyCloseAbandonsWork pins
	q := db.Scan("big").OrderBy("g", "v")
	partial, err := db.Optimize(q)
	if err != nil {
		b.Fatal(err)
	}
	full, err := db.Optimize(q, WithoutPartialSort())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	firstRow := func(b *testing.B, plan *Plan) {
		cur, err := db.Query(ctx, plan)
		if err != nil {
			b.Fatal(err)
		}
		if !cur.Next() {
			b.Fatal(cur.Err())
		}
		if err := cur.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("partial-cursor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			firstRow(b, partial)
		}
		reportCursorCounters(b, db, partial, 1)
	})
	b.Run("full-cursor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			firstRow(b, full)
		}
		reportCursorCounters(b, db, full, 1)
	})
}

// BenchmarkTopKPlanned A/Bs the two ways a consumer gets Top-K early exit:
// a planned Limit(k) — the optimizer's row budget picks the pipelined plan
// and the exec.Limit operator closes the sort at k — drained to completion,
// versus the unlimited plan with a consumer that pulls k rows and closes
// the cursor by hand (PR 4's only early-exit path). The two arms shed the
// same work (TestPushedDownLimitMatchesEarlyClose pins that), so their
// delta in `make bench-ab` is the overhead of each exit path, and a
// regression in either early-exit mechanism is visible in CI.
func BenchmarkTopKPlanned(b *testing.B) {
	db := segmentedDB(b, 50_000, 500)
	const k = 10
	planned, err := db.Optimize(db.Scan("big").OrderBy("g", "v").Limit(k))
	if err != nil {
		b.Fatal(err)
	}
	unlimited, err := db.Optimize(db.Scan("big").OrderBy("g", "v"))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	b.Run("planned-limit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cur, err := db.Query(ctx, planned)
			if err != nil {
				b.Fatal(err)
			}
			rows := 0
			for cur.Next() {
				rows++
			}
			if err := cur.Err(); err != nil {
				b.Fatal(err)
			}
			if err := cur.Close(); err != nil {
				b.Fatal(err)
			}
			if rows != k {
				b.Fatalf("rows = %d", rows)
			}
		}
		reportCursorCounters(b, db, planned, -1)
	})
	b.Run("early-close", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cur, err := db.Query(ctx, unlimited)
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < k; j++ {
				if !cur.Next() {
					b.Fatal(cur.Err())
				}
			}
			if err := cur.Close(); err != nil {
				b.Fatal(err)
			}
		}
		reportCursorCounters(b, db, unlimited, k)
	})
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

// chunkArms runs a benchmark once per executor mode: the legacy
// row-at-a-time path (WithExecBatchSize(1)) against the default chunked
// path. Both arms drain identical plans with identical counters (the
// differential tests pin that), so the wall-clock and allocs/op deltas in
// `make bench-ab` are pure per-row overhead removed by batching.
func chunkArms(b *testing.B, run func(b *testing.B, opts ...ExecOption)) {
	for _, arm := range []struct {
		name string
		opts []ExecOption
	}{{"row", []ExecOption{WithExecBatchSize(1)}}, {"chunk", nil}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			run(b, arm.opts...)
		})
	}
}

// BenchmarkScanFilterThroughput measures the vectorized executor on its
// target pipeline: a full drain of scan→filter, where the chunked path
// moves one page's tuples per operator call — the scan decodes into pooled
// column vectors, the filter marks a selection vector in a tight loop, and
// the cursor serves rows out of a reused buffer. rows/op is the drained row
// count (throughput = rows/op ÷ ns/op); the deterministic work counters
// feed the bench gate and must be identical across arms.
func BenchmarkScanFilterThroughput(b *testing.B) {
	db := segmentedDB(b, 50_000, 500)
	plan, err := db.Optimize(db.Scan("big").Filter(Gt(Col("v"), Int(100))))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	chunkArms(b, func(b *testing.B, opts ...ExecOption) {
		var rows int64
		for i := 0; i < b.N; i++ {
			cur, err := db.Query(ctx, plan, opts...)
			if err != nil {
				b.Fatal(err)
			}
			rows = 0
			for cur.Next() {
				rows++
			}
			if err := cur.Err(); err != nil {
				b.Fatal(err)
			}
			if err := cur.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(rows), "rows/op")
		reportCursorCounters(b, db, plan, -1, opts...)
	})
}

// BenchmarkScanSortLimitThroughput measures batching under a blocking
// enforcer: scan→full-sort→limit, where the chunked arm batches the sort's
// input collection (chunk reads off each page, one batched key encode per
// chunk) while the tuple-level sort algorithm and its counters stay
// untouched.
func BenchmarkScanSortLimitThroughput(b *testing.B) {
	db := segmentedDB(b, 50_000, 500)
	plan, err := db.Optimize(db.Scan("big").OrderBy("v", "pad").Limit(1_000))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	chunkArms(b, func(b *testing.B, opts ...ExecOption) {
		var rows int64
		for i := 0; i < b.N; i++ {
			cur, err := db.Query(ctx, plan, opts...)
			if err != nil {
				b.Fatal(err)
			}
			rows = 0
			for cur.Next() {
				rows++
			}
			if err := cur.Err(); err != nil {
				b.Fatal(err)
			}
			if err := cur.Close(); err != nil {
				b.Fatal(err)
			}
		}
		if rows != 1_000 {
			b.Fatalf("rows = %d, want 1000", rows)
		}
		b.ReportMetric(float64(rows), "rows/op")
		reportCursorCounters(b, db, plan, -1, opts...)
	})
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
		s, err := xsort.NewSRS(iter.FromSlice(rows), sortBenchSchema,
			sortord.New("c1", "c2"), xsort.Config{Disk: d, MemoryBlocks: 64})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := iter.Drain(s); err != nil {
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
		if _, err := iter.Drain(m); err != nil {
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

// The RunFormation benchmarks cover the four regimes run formation works in
// — MRS segments in memory, MRS spilled batches, the SRS in-memory fast path
// and the SRS phase-1 fill ahead of replacement selection — and report the
// deterministic work counters bench-gate pins. How a buffer is sorted is the
// sort's own choice (radix or comparison, by buffer size and key width);
// TestGoldenRadixAgrees / TestRunFormationModesAgree hold both sides to the
// same output.

// BenchmarkMRSPartialSortRunFormation is the MRS hot path the radix engine
// targets: in-memory partial-sort segments on a composite (string, int)
// suffix key. Parallelism is pinned to 1 so the time is the segment sorts
// alone.
func BenchmarkMRSPartialSortRunFormation(b *testing.B) {
	rows := keyBenchRows(50_000, 100)
	b.ReportAllocs()
	b.ResetTimer()
	var st xsort.SortStats
	var io storage.IOStats
	for i := 0; i < b.N; i++ {
		d := storage.NewDisk(0)
		m, err := xsort.NewMRS(iter.FromSlice(rows), sortBenchSchema,
			sortord.New("c1", "c3", "c2"), sortord.New("c1"),
			xsort.Config{Disk: d, MemoryBlocks: 2048, Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := iter.Drain(m); err != nil {
			b.Fatal(err)
		}
		st, io = *m.Stats(), d.Stats()
	}
	reportSortCounters(b, st, io)
}

// BenchmarkMRSSpilledSortRunFormation measures run formation where runs
// actually hit disk: oversized segments whose memory batches are sorted and
// spilled, then merged, serially.
func BenchmarkMRSSpilledSortRunFormation(b *testing.B) {
	rows := keyBenchRows(50_000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	var st xsort.SortStats
	var io storage.IOStats
	for i := 0; i < b.N; i++ {
		d := storage.NewDisk(0)
		m, err := xsort.NewMRS(iter.FromSlice(rows), sortBenchSchema,
			sortord.New("c1", "c3", "c2"), sortord.New("c1"),
			xsort.Config{Disk: d, MemoryBlocks: 64, Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := iter.Drain(m); err != nil {
			b.Fatal(err)
		}
		st, io = *m.Stats(), d.Stats()
	}
	reportSortCounters(b, st, io)
}

// BenchmarkSRSSortRunFormation measures the SRS in-memory fast path: the
// whole input fits, so the fill is byte-bucket sorted and emitted directly,
// with no replacement-selection heap built or drained.
func BenchmarkSRSSortRunFormation(b *testing.B) {
	rows := keyBenchRows(50_000, 100)
	b.ReportAllocs()
	b.ResetTimer()
	var st xsort.SortStats
	var io storage.IOStats
	for i := 0; i < b.N; i++ {
		d := storage.NewDisk(0)
		s, err := xsort.NewSRS(iter.FromSlice(rows), sortBenchSchema,
			sortord.New("c3", "c2", "c1"),
			xsort.Config{Disk: d, MemoryBlocks: 4096})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := iter.Drain(s); err != nil {
			b.Fatal(err)
		}
		if s.Stats().RunsGenerated != 0 {
			b.Fatal("workload must stay in memory")
		}
		st, io = *s.Stats(), d.Stats()
	}
	reportSortCounters(b, st, io)
}

// BenchmarkSRSSpilledSortRunFormation: spilled SRS, where radix only seeds
// the initial heap fill (replacement selection itself stays comparison-
// based).
func BenchmarkSRSSpilledSortRunFormation(b *testing.B) {
	rows := keyBenchRows(50_000, 100)
	b.ReportAllocs()
	b.ResetTimer()
	var st xsort.SortStats
	var io storage.IOStats
	for i := 0; i < b.N; i++ {
		d := storage.NewDisk(0)
		s, err := xsort.NewSRS(iter.FromSlice(rows), sortBenchSchema,
			sortord.New("c3", "c2", "c1"),
			xsort.Config{Disk: d, MemoryBlocks: 256})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := iter.Drain(s); err != nil {
			b.Fatal(err)
		}
		if s.Stats().RunsGenerated == 0 {
			b.Fatal("workload must spill")
		}
		st, io = *s.Stats(), d.Stats()
	}
	reportSortCounters(b, st, io)
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
				if _, err := iter.Drain(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSRSHeapReplacementSelection isolates the replacement-selection
// heap: a spill-heavy SRS whose Open-phase cost is dominated by heap
// push/pop traffic (every input tuple passes through the heap once).
// The heap permutes int32 slots over stable entry storage rather than
// swapping 56-byte entries; this benchmark guards that win.
func BenchmarkSRSHeapReplacementSelection(b *testing.B) {
	rows := sortBenchRows(100_000, 1) // single segment: pure heap churn
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := storage.NewDisk(0)
		s, err := xsort.NewSRS(iter.FromSlice(rows), sortBenchSchema,
			sortord.New("c2", "c1"), xsort.Config{Disk: d, MemoryBlocks: 256})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := iter.Drain(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMRSSortPerSegmentAblation replaces the shared replacement-
// selection machinery with MRS's per-segment sort on ε known order
// (single-segment degenerate case), isolating the cost of segmentation.
func BenchmarkMRSSortPerSegmentAblation(b *testing.B) {
	rows := sortBenchRows(50_000, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := storage.NewDisk(0)
		m, err := xsort.NewMRS(iter.FromSlice(rows), sortBenchSchema,
			sortord.New("c1", "c2"), sortord.Empty, xsort.Config{Disk: d, MemoryBlocks: 64})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := iter.Drain(m); err != nil {
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
		if _, err := iter.Drain(mj); err != nil {
			b.Fatal(err)
		}
	}
}
