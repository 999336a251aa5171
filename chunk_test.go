package pyro

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"pyro/internal/exec"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
	"pyro/internal/xsort"
)

// queryRowDrained is Query with the cursor served from the root operator's
// row Next instead of its NextChunk: the same core.Build tree, drained a
// row at a time. It is the reference the chunked cursor must match.
func queryRowDrained(db *Database, plan *Plan, opts ...ExecOption) (*Cursor, error) {
	cur, err := db.Query(context.Background(), plan, opts...)
	if err != nil {
		return nil, err
	}
	cur.chunkOp = nil
	return cur, nil
}

// queryChunked is Query: the cursor pulls the root's NextChunk whenever the
// root serves chunks.
func queryChunked(db *Database, plan *Plan, opts ...ExecOption) (*Cursor, error) {
	return db.Query(context.Background(), plan, opts...)
}

// drainModes are the two ways a cursor can pull its root: "row" (the
// reference) and "chunk".
var drainModes = []struct {
	name  string
	query func(db *Database, plan *Plan, opts ...ExecOption) (*Cursor, error)
}{
	{"row", queryRowDrained},
	{"chunk", queryChunked},
}

// chunkDiffPlans builds the plan corpus for the chunk-vs-row differential
// tests: every operator family of the engine — scans (table and covering
// index), filters, projections, hash and merge joins, sort- and hash-based
// aggregation, distinct, union, order-by (full and partial sort), limit —
// in pipelines deep enough that chunk boundaries land mid-operator.
func chunkDiffPlans(t *testing.T, db *Database) map[string]*Plan {
	t.Helper()
	queries := map[string]*Query{
		"scan": db.Scan("orders"),
		"scan-filter": db.Scan("items").
			Filter(Gt(Col("i_qty"), Int(25))),
		"scan-filter-project": db.Scan("items").
			Filter(Lt(Col("i_line"), Int(2))).
			Project(Proj{Name: "ord", Expr: Col("i_order")},
				Proj{Name: "twice", Expr: Mul(Col("i_qty"), Int(2))}),
		"filter-limit": db.Scan("items").
			Filter(Gt(Col("i_qty"), Int(10))).
			Limit(37),
		"join-filter": db.Scan("orders").
			Join(db.Scan("items"), Eq(Col("o_id"), Col("i_order"))).
			Filter(Eq(Col("o_cust"), Int(3))),
		"join-orderby": db.Scan("orders").
			Join(db.Scan("items"), Eq(Col("o_id"), Col("i_order"))).
			OrderBy("i_qty", "o_id", "i_line"),
		"groupby": db.Scan("items").
			GroupBy([]string{"i_order"},
				Agg{Name: "n", Func: Count},
				Agg{Name: "total", Func: Sum, Arg: Col("i_qty")}).
			OrderBy("i_order"),
		"distinct": db.Scan("orders").
			Project(Proj{Name: "c", Expr: Col("o_cust")}).
			Distinct().
			OrderBy("c"),
		"union-all": db.Scan("orders").
			Filter(Lt(Col("o_cust"), Int(2))).
			UnionAll(db.Scan("orders").Filter(Gt(Col("o_cust"), Int(7)))).
			OrderBy("o_id"),
		"orderby-limit": db.Scan("items").
			OrderBy("i_qty", "i_order", "i_line").
			Limit(50),
	}
	plans := make(map[string]*Plan, len(queries))
	for name, q := range queries {
		p, err := db.Optimize(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plans[name] = p
	}
	return plans
}

// drained is what a cursor served and froze: rows, sort counters and the
// query's tap-attributed I/O.
type drained struct {
	rows  [][]any
	sorts []SortStats
	io    IOStats
}

// drainStop pulls up to stop rows (all of them when stop < 0) from a cursor
// opened by query, closes it and returns what it froze. Sort parallelism is
// pinned to 1 so every SortStats counter is bit-deterministic.
func drainStop(t *testing.T, db *Database, plan *Plan, stop int,
	query func(*Database, *Plan, ...ExecOption) (*Cursor, error), opts ...ExecOption) drained {
	t.Helper()
	cur, err := query(db, plan, append(opts, WithSortParallelism(1))...)
	if err != nil {
		t.Fatal(err)
	}
	var d drained
	for stop < 0 || len(d.rows) < stop {
		if !cur.Next() {
			break
		}
		d.rows = append(d.rows, cur.Row())
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	st := cur.Stats()
	d.sorts, d.io = st.Sorts, st.IO
	return d
}

// sameDrain fails t when got differs from the reference want in rows, sort
// counters or I/O.
func sameDrain(t *testing.T, at string, got, want drained) {
	t.Helper()
	if !reflect.DeepEqual(got.rows, want.rows) {
		t.Fatalf("%s: rows diverge from the row drain (%d vs %d rows)", at, len(got.rows), len(want.rows))
	}
	if !reflect.DeepEqual(got.sorts, want.sorts) {
		t.Fatalf("%s: sort stats diverge:\n got %+v\nwant %+v", at, got.sorts, want.sorts)
	}
	if got.io != want.io {
		t.Fatalf("%s: per-query I/O diverges:\n got %+v\nwant %+v — a chunk refill did non-free work",
			at, got.io, want.io)
	}
}

// TestChunkMatchesRowAtATime is the chunked executor's differential
// property test: for every plan shape, serving the cursor from the root's
// NextChunk must be indistinguishable from draining the same operator tree
// through the root's Next — identical rows in identical order, identical
// sort counters, identical per-query I/O. Chunks may only remove per-row
// overhead, never change what the engine reads or computes.
func TestChunkMatchesRowAtATime(t *testing.T) {
	db := openTestDB(t)
	for name, plan := range chunkDiffPlans(t, db) {
		t.Run(name, func(t *testing.T) {
			want := drainStop(t, db, plan, -1, queryRowDrained)
			sameDrain(t, "full drain", drainStop(t, db, plan, -1, queryChunked), want)
		})
	}
}

// TestChunkMatchesRowAtATimeEarlyClose extends the differential property to
// mid-stream Close: stopping after j rows must freeze identical stats under
// both drains. This is the "free work only" invariant — a chunk refill may
// only do the work the row path's next Next would have done, plus work that
// is free (rows co-resident on an already-read page), so an early stop
// observes the same pages read and the same sort segments touched.
func TestChunkMatchesRowAtATimeEarlyClose(t *testing.T) {
	db := openTestDB(t)
	plans := chunkDiffPlans(t, db)
	for _, name := range []string{"scan-filter", "join-orderby", "union-all", "orderby-limit"} {
		plan := plans[name]
		t.Run(name, func(t *testing.T) {
			for _, j := range []int{1, 13} {
				want := drainStop(t, db, plan, j, queryRowDrained)
				if len(want.rows) != j {
					t.Fatalf("stop %d: only %d rows", j, len(want.rows))
				}
				sameDrain(t, fmt.Sprintf("stop %d", j), drainStop(t, db, plan, j, queryChunked), want)
			}
		})
	}
}

// midPageDB holds one table whose 32 KiB pages carry more rows than a
// chunk, so a chunk fills up partway through a page and the next refill
// resumes on the same page. k groups ten rows; v is a permutation.
func midPageDB(t *testing.T, n int) *Database {
	t.Helper()
	db := Open(Config{PageSize: 32 << 10, SortMemoryBlocks: 64})
	t.Cleanup(func() { storage.AssertNoLeaks(t, db.disk) })
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{int64(i / 10), int64(i * 7919 % n)}
	}
	if err := db.CreateTable("wide", []Column{
		{Name: "k", Type: Int64},
		{Name: "v", Type: Int64},
	}, ClusterOn("k"), rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// rowOnly hides an operator's chunk path: embedding the Operator interface
// promotes only its row methods, so a consumer reads it a row at a time.
type rowOnly struct{ exec.Operator }

// TestChunkBoundaryMidPage covers the chunk that fills in the middle of a
// page (storage.TupleReader.ReadChunk stopping partway through it): the
// table's pages hold more than types.DefaultChunkCapacity rows, and each
// plan stops on both sides of the chunk boundary, on the first page and on
// the second. scan→filter→limit is checked against the row drain of its
// root; scan→sort against the same partial sort fed by the scan a row at a
// time, since a sort root is drained by rows either way and only its input
// collection batches.
func TestChunkBoundaryMidPage(t *testing.T) {
	const n = 6_000
	db := midPageDB(t, n)
	capacity := types.DefaultChunkCapacity
	stops := []int{1, capacity - 1, capacity, capacity + 1, 2*capacity - 1, 2 * capacity, 2*capacity + 1, -1}

	scanPlan, err := db.Optimize(db.Scan("wide"))
	if err != nil {
		t.Fatal(err)
	}
	if io := drainStop(t, db, scanPlan, capacity+1, queryRowDrained).io; io.PageReads != 1 {
		t.Fatalf("%d rows span %d pages; the test needs more than a chunk on one page", capacity+1, io.PageReads)
	}
	if io := drainStop(t, db, scanPlan, 2*capacity+1, queryRowDrained).io; io.PageReads != 2 {
		t.Fatalf("%d rows span %d pages; the last stops must land mid-way on page 2", 2*capacity+1, io.PageReads)
	}

	t.Run("scan-filter-limit", func(t *testing.T) {
		plan, err := db.Optimize(db.Scan("wide").Filter(Gt(Col("v"), Int(100))).Limit(5_000))
		if err != nil {
			t.Fatal(err)
		}
		for _, stop := range stops {
			want := drainStop(t, db, plan, stop, queryRowDrained)
			sameDrain(t, fmt.Sprintf("stop %d", stop), drainStop(t, db, plan, stop, queryChunked), want)
		}
	})

	t.Run("scan-sort", func(t *testing.T) {
		target, given := sortord.New("k", "v"), sortord.New("k")
		plan, err := db.Optimize(db.Scan("wide").OrderBy("k", "v"))
		if err != nil {
			t.Fatal(err)
		}
		table, err := db.cat.Table("wide")
		if err != nil {
			t.Fatal(err)
		}
		// rowFed drains the reference: the same MRS over a scan that serves
		// it rows only, under the budget Query is pinned to below.
		rowFed := func(stop int) drained {
			t.Helper()
			tap := storage.NewTap()
			scan := exec.NewTableScan(table)
			scan.SetIOTap(tap)
			sort, err := exec.NewSortMRS(rowOnly{scan}, target, given, xsort.Config{
				Disk: db.disk, MemoryBlocks: 64, Parallelism: 1, Tap: tap,
				BatchSize: types.DefaultChunkCapacity,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sort.Open(); err != nil {
				t.Fatal(err)
			}
			var d drained
			for stop < 0 || len(d.rows) < stop {
				row, ok, err := sort.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				vals := make([]any, len(row))
				for i, v := range row {
					vals[i] = datumValue(v)
				}
				d.rows = append(d.rows, vals)
			}
			if err := sort.Close(); err != nil {
				t.Fatal(err)
			}
			d.sorts, d.io = []SortStats{*sort.SortStats()}, tap.Stats()
			return d
		}
		for _, stop := range stops {
			got := drainStop(t, db, plan, stop, queryChunked, WithSortMemoryBlocks(64))
			sameDrain(t, fmt.Sprintf("stop %d", stop), got, rowFed(stop))
		}
	})
}

// TestChunkContextAbort: cancellation mid-stream must surface
// context.Canceled and close cleanly under both drains, including from
// inside a chunk refill.
func TestChunkContextAbort(t *testing.T) {
	db := segmentedDB(t, 50_000, 500)
	plan, err := db.Optimize(db.Scan("big").Filter(Gt(Col("v"), Int(100))))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range drainModes {
		ctx, cancel := context.WithCancel(context.Background())
		cur, err := db.Query(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		if mode.name == "row" {
			cur.chunkOp = nil
		}
		for i := 0; i < 5; i++ {
			if !cur.Next() {
				t.Fatalf("%s drain row %d: %v", mode.name, i, cur.Err())
			}
		}
		cancel()
		if cur.Next() {
			t.Fatalf("%s drain: Next after cancellation returned a row", mode.name)
		}
		if !errors.Is(cur.Err(), context.Canceled) {
			t.Fatalf("%s drain: Err = %v, want context.Canceled", mode.name, cur.Err())
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("%s drain: Close: %v", mode.name, err)
		}
	}
}

// TestChunkTTFRMeasuresFirstRow pins satellite semantics of batching on the
// streaming contract: TimeToFirstRow is stamped when the first row is
// surfaced to the caller, and on a pipelined chunked plan it must sit far
// below the full drain — batching the executor must not turn time-to-first-
// row into time-to-first-chunk-of-the-whole-result.
func TestChunkTTFRMeasuresFirstRow(t *testing.T) {
	db := segmentedDB(t, 50_000, 500)
	// A selective filter over a big scan: chunk-capable top-of-plan, first
	// row after a handful of pages, full drain reads all ~379.
	plan, err := db.Optimize(db.Scan("big").Filter(Gt(Col("pad"), Int(10))))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := db.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if !cur.Next() {
		t.Fatal(cur.Err())
	}
	afterFirst := cur.Stats()
	if afterFirst.TimeToFirstRow <= 0 {
		t.Fatal("TimeToFirstRow not stamped at the first row")
	}
	for cur.Next() {
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	st := cur.Stats()
	if st.TimeToFirstRow != afterFirst.TimeToFirstRow {
		t.Fatalf("TimeToFirstRow moved after the first row: %v then %v",
			afterFirst.TimeToFirstRow, st.TimeToFirstRow)
	}
	if st.TimeToFirstRow > st.Elapsed/2 {
		t.Fatalf("TTFR %v vs elapsed %v — first row waited on work batching should not front-load",
			st.TimeToFirstRow, st.Elapsed)
	}
	if st.Rows == 0 || st.TimeToFirstRow > time.Second {
		t.Fatalf("implausible run: %d rows, TTFR %v", st.Rows, st.TimeToFirstRow)
	}
}

// TestConcurrentChunkCursors drains the chunked path from several cursors
// on one Database at once (the race-serve CI job gates the chunk pool and
// shared-plan plumbing underneath), alternating with row-drained cursors —
// all required to agree exactly.
func TestConcurrentChunkCursors(t *testing.T) {
	db := segmentedDB(t, 20_000, 2_000)
	plan, err := db.Optimize(db.Scan("big").Filter(Gt(Col("v"), Int(5_000))))
	if err != nil {
		t.Fatal(err)
	}
	want, err := queryAll(db, plan)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	results := make([][][]any, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur, err := drainModes[w%len(drainModes)].query(db, plan)
			if err != nil {
				errs[w] = err
				return
			}
			defer cur.Close()
			for cur.Next() {
				results[w] = append(results[w], cur.Row())
			}
			errs[w] = cur.Err()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("cursor %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(results[w], want.Data) {
			t.Fatalf("cursor %d (%s drain) diverged from the reference drain",
				w, drainModes[w%len(drainModes)].name)
		}
	}
}
