package pyro

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// chunkBatchSizes are the executor batch sizes the differential tests sweep:
// 1 is the exact legacy row-at-a-time path (the reference), 7 forces many
// partially-filled chunks and odd chunk boundaries, 64 exercises mid-size
// refills, 1024 is the default capacity.
var chunkBatchSizes = []int{1, 7, 64, 1024}

// chunkDiffPlans builds the plan corpus for the batch-vs-row differential
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

// chunkDiffOpts pins serial sort execution so every counter in SortStats is
// bit-deterministic and the only variable across runs is the batch size.
func chunkDiffOpts(batch int) []ExecOption {
	return []ExecOption{
		WithExecBatchSize(batch),
		WithSortParallelism(1),
	}
}

// TestChunkMatchesRowAtATime is the tentpole's differential property test:
// for every plan shape and every batch size, the chunked executor must be
// indistinguishable from the row-at-a-time engine — identical rows in
// identical order, identical sort counters, identical per-query I/O.
// Batching may only remove per-row overhead, never change what the engine
// reads or computes.
func TestChunkMatchesRowAtATime(t *testing.T) {
	db := openTestDB(t)
	for name, plan := range chunkDiffPlans(t, db) {
		t.Run(name, func(t *testing.T) {
			type result struct {
				rows  [][]any
				sorts []SortStats
				io    IOStats
			}
			drain := func(batch int) result {
				t.Helper()
				cur, err := db.Query(context.Background(), plan, chunkDiffOpts(batch)...)
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close()
				var r result
				for cur.Next() {
					r.rows = append(r.rows, cur.Row())
				}
				if err := cur.Err(); err != nil {
					t.Fatal(err)
				}
				st := cur.Stats()
				r.sorts, r.io = st.Sorts, st.IO
				return r
			}

			want := drain(1) // the untouched legacy row path
			for _, batch := range chunkBatchSizes[1:] {
				got := drain(batch)
				if !reflect.DeepEqual(got.rows, want.rows) {
					t.Fatalf("batch %d: rows diverge from row path (%d vs %d rows)",
						batch, len(got.rows), len(want.rows))
				}
				if !reflect.DeepEqual(got.sorts, want.sorts) {
					t.Fatalf("batch %d: sort stats diverge:\n got %+v\nwant %+v",
						batch, got.sorts, want.sorts)
				}
				if got.io != want.io {
					t.Fatalf("batch %d: per-query I/O diverges:\n got %+v\nwant %+v",
						batch, got.io, want.io)
				}
			}
		})
	}
}

// TestChunkMatchesRowAtATimeEarlyClose extends the differential property to
// mid-stream Close: stopping after j rows must freeze identical stats at
// every batch size. This is the "free work only" invariant — a chunk refill
// may only do the work the row path's next Next would have done, plus work
// that is free (rows co-resident on an already-read page), so an early stop
// observes the same pages read and the same sort segments touched.
func TestChunkMatchesRowAtATimeEarlyClose(t *testing.T) {
	db := openTestDB(t)
	plans := chunkDiffPlans(t, db)
	for _, name := range []string{"scan-filter", "join-orderby", "union-all", "orderby-limit"} {
		plan := plans[name]
		t.Run(name, func(t *testing.T) {
			for _, j := range []int{1, 13} {
				type frozen struct {
					rows  [][]any
					sorts []SortStats
					io    IOStats
				}
				take := func(batch int) frozen {
					t.Helper()
					cur, err := db.Query(context.Background(), plan, chunkDiffOpts(batch)...)
					if err != nil {
						t.Fatal(err)
					}
					var f frozen
					for i := 0; i < j; i++ {
						if !cur.Next() {
							t.Fatalf("row %d: %v", i, cur.Err())
						}
						f.rows = append(f.rows, cur.Row())
					}
					if err := cur.Close(); err != nil {
						t.Fatal(err)
					}
					st := cur.Stats()
					f.sorts, f.io = st.Sorts, st.IO
					return f
				}
				want := take(1)
				for _, batch := range chunkBatchSizes[1:] {
					got := take(batch)
					if !reflect.DeepEqual(got.rows, want.rows) {
						t.Fatalf("batch %d, stop %d: served rows diverge", batch, j)
					}
					if !reflect.DeepEqual(got.sorts, want.sorts) {
						t.Fatalf("batch %d, stop %d: frozen sort stats diverge:\n got %+v\nwant %+v",
							batch, j, got.sorts, want.sorts)
					}
					if got.io != want.io {
						t.Fatalf("batch %d, stop %d: frozen I/O diverges:\n got %+v\nwant %+v — batching did non-free work",
							batch, j, got.io, want.io)
					}
				}
			}
		})
	}
}

// TestChunkContextAbort: cancellation mid-stream must surface
// context.Canceled and close cleanly at every batch size, including from
// inside a chunk refill.
func TestChunkContextAbort(t *testing.T) {
	db := segmentedDB(t, 50_000, 500)
	plan, err := db.Optimize(db.Scan("big").Filter(Gt(Col("v"), Int(100))))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range chunkBatchSizes {
		ctx, cancel := context.WithCancel(context.Background())
		cur, err := db.Query(ctx, plan, WithExecBatchSize(batch))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if !cur.Next() {
				t.Fatalf("batch %d row %d: %v", batch, i, cur.Err())
			}
		}
		cancel()
		if cur.Next() {
			t.Fatalf("batch %d: Next after cancellation returned a row", batch)
		}
		if !errors.Is(cur.Err(), context.Canceled) {
			t.Fatalf("batch %d: Err = %v, want context.Canceled", batch, cur.Err())
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("batch %d: Close: %v", batch, err)
		}
	}
}

// TestChunkInvalidBatchSize: a negative batch size is a caller bug and is
// rejected up front.
func TestChunkInvalidBatchSize(t *testing.T) {
	db := openTestDB(t)
	plan, err := db.Optimize(db.Scan("orders"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(context.Background(), plan, WithExecBatchSize(-1)); err == nil {
		t.Fatal("Query accepted a negative exec batch size")
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
// shared-plan plumbing underneath) — each at a different batch size, all
// required to agree exactly.
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

	const perBatch = 2
	workers := len(chunkBatchSizes) * perBatch
	results := make([][][]any, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := chunkBatchSizes[w%len(chunkBatchSizes)]
			cur, err := db.Query(context.Background(), plan, WithExecBatchSize(batch))
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
			t.Fatalf("cursor %d (batch %d) diverged from the reference drain",
				w, chunkBatchSizes[w%len(chunkBatchSizes)])
		}
	}
}
