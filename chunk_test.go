package pyro

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"pyro/internal/core"
	"pyro/internal/exec"
	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
	"pyro/internal/xsort"
)

// queryOneRow is Query with the cursor draining the plan's root in chunks of
// one row. Every operator sizes the chunks it pulls from the chunk it is
// asked to fill, so the tree runs one row per call down to its sorts (which
// pull their input in xsort.Config.BatchSize chunks): this is the reference
// the default drain must match.
func queryOneRow(db *Database, plan *Plan) (*Cursor, error) {
	cur, err := db.Query(context.Background(), plan)
	if err != nil {
		return nil, err
	}
	cur.chunk = types.GetChunk(len(cur.cols), 1)
	return cur, nil
}

// queryChunked is Query: the cursor drains chunks of
// types.DefaultChunkCapacity rows.
func queryChunked(db *Database, plan *Plan) (*Cursor, error) {
	return db.Query(context.Background(), plan)
}

// drainModes are the two chunk capacities a cursor drains its root at: one
// row (the reference) and the default.
var drainModes = []struct {
	name  string
	query func(db *Database, plan *Plan) (*Cursor, error)
}{
	{"cap=1", queryOneRow},
	{"cap=1024", queryChunked},
}

// chunkDiffPlans builds the plan corpus for the chunk-capacity differential
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

// checkInteriorOrders fails t unless every order plan's nodes claim holds
// on what each of those subtrees produces alone (core.CheckOrders), at db's
// sort budget: the plan's root order and every order §4 propagates below
// it.
func checkInteriorOrders(t testing.TB, db *Database, plan *Plan) {
	t.Helper()
	cfg := core.BuildConfig{Disk: db.disk, SortMemoryBlocks: db.cfg.SortMemoryBlocks}
	if err := core.CheckOrders(plan.inner, cfg); err != nil {
		t.Fatalf("%v\n%s", err, plan.Explain())
	}
}

// drained is what a cursor served and froze: rows, sort counters, the
// query's tap-attributed I/O and its sort-memory grant.
type drained struct {
	rows    [][]any
	sorts   []SortStats
	io      IOStats
	granted int
}

// drainStop pulls up to stop rows (all of them when stop < 0) from a cursor
// opened by query, closes it and returns what it froze. db's sort
// parallelism must be 1 for every SortStats counter to be bit-deterministic.
func drainStop(t *testing.T, db *Database, plan *Plan, stop int,
	query func(*Database, *Plan) (*Cursor, error)) drained {
	t.Helper()
	if db.cfg.SortParallelism != 1 {
		t.Fatalf("drainStop needs a database at sort parallelism 1, not %d", db.cfg.SortParallelism)
	}
	cur, err := query(db, plan)
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
	d.sorts, d.io, d.granted = st.Sorts, st.IO, st.GrantedBlocks
	return d
}

// sameDrain fails t when got differs from the reference want in rows, sort
// counters or I/O.
func sameDrain(t *testing.T, at string, got, want drained) {
	t.Helper()
	sameRowsAndIO(t, at, got, want)
	if !reflect.DeepEqual(got.sorts, want.sorts) {
		t.Fatalf("%s: sort stats diverge:\n got %+v\nwant %+v", at, got.sorts, want.sorts)
	}
}

// sameRowsAndIO fails t when got differs from the reference want in rows or
// I/O.
func sameRowsAndIO(t *testing.T, at string, got, want drained) {
	t.Helper()
	if !reflect.DeepEqual(got.rows, want.rows) {
		t.Fatalf("%s: rows diverge from the one-row drain (%d vs %d rows)", at, len(got.rows), len(want.rows))
	}
	if got.io != want.io {
		t.Fatalf("%s: per-query I/O diverges:\n got %+v\nwant %+v — a chunk refill did non-free work",
			at, got.io, want.io)
	}
}

// sameStop is sameDrain for drains stopped mid-stream. Rows and I/O must
// match the one-row reference exactly. A sort may have handed out more rows
// than the reference's — the rest of the chunk its consumer asked for, rows
// in memory or on run pages already read — but at most one chunk more, and
// TuplesOut and Comparisons (which a spilled sort's final merge spends per
// row handed out) are the only counters that may differ. They are pinned
// too: every sort's counters must be exactly replay(i, n), those of sort i
// stopped one row at a time after the n rows it handed out, so run
// formation and merging are checked to the comparison. replay must give the
// reference's counters at the reference's row count; that is checked too.
func sameStop(t *testing.T, at string, got, want drained, replay func(i int, n int64) SortStats) {
	t.Helper()
	sameRowsAndIO(t, at, got, want)
	if len(got.sorts) != len(want.sorts) {
		t.Fatalf("%s: %d sorts, want %d", at, len(got.sorts), len(want.sorts))
	}
	for i, g := range got.sorts {
		w := want.sorts[i]
		if extra := g.TuplesOut - w.TuplesOut; extra < 0 || extra > types.DefaultChunkCapacity {
			t.Fatalf("%s: sort %d handed out %d rows, the one-row drain %d: want at most one chunk more",
				at, i, g.TuplesOut, w.TuplesOut)
		}
		if g.Comparisons < w.Comparisons {
			t.Fatalf("%s: sort %d made %d comparisons, fewer than the one-row drain's %d", at, i, g.Comparisons, w.Comparisons)
		}
		rest := g
		rest.TuplesOut, rest.Comparisons = w.TuplesOut, w.Comparisons
		if rest != w {
			t.Fatalf("%s: sort %d stats diverge beyond TuplesOut and Comparisons:\n got %+v\nwant %+v", at, i, g, w)
		}
		if r := replay(i, w.TuplesOut); r != w {
			t.Fatalf("%s: sort %d replayed to the one-row drain's %d rows is not that drain's sort:\n got %+v\nwant %+v",
				at, i, w.TuplesOut, r, w)
		}
		if r := replay(i, g.TuplesOut); r != g {
			t.Fatalf("%s: sort %d stats differ from the same sort stopped one row at a time after %d rows:\n got %+v\nwant %+v",
				at, i, g.TuplesOut, g, r)
		}
	}
}

// planReplay is sameStop's replay for the plans Query runs: it builds plan
// under a static budget of blocks — a cursor's GrantedBlocks, which its
// sorts run at while no other query shrinks the grant — at sort
// parallelism 1, and drains its i-th sort enforcer (pre-order, as
// ExecStats.Sorts lists them) alone, one row per chunk, for n rows.
func planReplay(t *testing.T, db *Database, plan *Plan, blocks int) func(int, int64) SortStats {
	return func(i int, n int64) SortStats {
		t.Helper()
		op, err := core.Build(plan.inner, core.BuildConfig{Disk: db.disk, SortMemoryBlocks: blocks, SortParallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		sort := exec.CollectSorts(op)[i]
		drainOp(t, sort, 1, int(n))
		return *sort.SortStats()
	}
}

// TestChunkMatchesRowAtATime is the executor's differential property test:
// for every plan shape, draining the cursor in default-capacity chunks must
// be indistinguishable from draining the same operator tree one row per
// call — identical rows in identical order, identical sort counters,
// identical per-query I/O. Chunks may only remove per-row overhead, never
// change what the engine reads or computes.
func TestChunkMatchesRowAtATime(t *testing.T) {
	db := openTestDBWith(t, Config{SortMemoryBlocks: 64, SortParallelism: 1})
	for name, plan := range chunkDiffPlans(t, db) {
		t.Run(name, func(t *testing.T) {
			checkInteriorOrders(t, db, plan)
			want := drainStop(t, db, plan, -1, queryOneRow)
			sameDrain(t, "full drain", drainStop(t, db, plan, -1, queryChunked), want)
		})
	}
}

// TestNothingSortsInOpen: opening a plan sorts nothing. Over the chunk
// corpus and the spill matrix's spilling ORDER BY, every sort — a full sort
// included — has read at most its one lookahead row once core.Build's tree is
// open, and the query's tap has seen no run page written: the sorting waits
// for the first NextChunk.
func TestNothingSortsInOpen(t *testing.T) {
	check := func(t *testing.T, db *Database, plan *Plan) (full bool) {
		t.Helper()
		tap := storage.NewTap()
		op, err := core.Build(plan.inner, core.BuildConfig{Disk: db.disk, SortMemoryBlocks: db.cfg.SortMemoryBlocks, Query: iter.Binding{Tap: tap}})
		if err != nil {
			t.Fatal(err)
		}
		defer op.Close()
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		for i, s := range exec.CollectSorts(op) {
			if in := s.SortStats().TuplesIn; in > 1 {
				t.Errorf("sort %d (given %v) read %d rows in Open, want at most 1", i, s.Given(), in)
			}
			full = full || !s.IsPartial()
		}
		if w := tap.Stats().RunPageWrites; w != 0 {
			t.Errorf("Open wrote %d run pages", w)
		}
		return full
	}
	db := openTestDB(t)
	for name, plan := range chunkDiffPlans(t, db) {
		t.Run(name, func(t *testing.T) { check(t, db, plan) })
	}
	t.Run("spill-matrix", func(t *testing.T) {
		sdb := spillDB(t, 1)
		plan, err := sdb.Optimize(sdb.Scan("t").OrderBy("b", "a"))
		if err != nil {
			t.Fatal(err)
		}
		if !check(t, sdb, plan) {
			t.Fatalf("the spilling ORDER BY was meant to be a full sort:\n%s", plan.Explain())
		}
	})
}

// TestChunkMatchesRowAtATimeEarlyClose extends the differential property to
// mid-stream Close: stopping after j rows must freeze the same I/O under
// both drains, and sort counters that differ only by the rows a sort handed
// to a chunk past the stop (sameStop). This is the "free work only"
// invariant — a chunk refill may only do the work its first row needs, plus
// work that is free (rows co-resident on an already-read page), so an early
// stop observes the same pages read and the same sort segments touched. The
// replayed sorts run at the cursor's grant: a bounded sort's Top-K ask for
// orderby-limit, the full budget for the others.
func TestChunkMatchesRowAtATimeEarlyClose(t *testing.T) {
	db := openTestDBWith(t, Config{SortMemoryBlocks: 64, SortParallelism: 1})
	plans := chunkDiffPlans(t, db)
	for _, name := range []string{"scan-filter", "join-orderby", "union-all", "orderby-limit"} {
		plan := plans[name]
		t.Run(name, func(t *testing.T) {
			for _, j := range []int{1, 13} {
				want := drainStop(t, db, plan, j, queryOneRow)
				if len(want.rows) != j {
					t.Fatalf("stop %d: only %d rows", j, len(want.rows))
				}
				got := drainStop(t, db, plan, j, queryChunked)
				if got.granted != want.granted {
					t.Fatalf("stop %d: granted %d blocks, the one-row drain %d", j, got.granted, want.granted)
				}
				sameStop(t, fmt.Sprintf("stop %d", j), got, want, planReplay(t, db, plan, got.granted))
			}
		})
	}
}

// midPageDB holds one table whose 32 KiB pages carry more rows than a
// chunk, so a chunk fills up partway through a page and the next refill
// resumes on the same page. k groups ten rows; v is a permutation.
func midPageDB(t *testing.T, n int) *Database {
	t.Helper()
	db := Open(Config{PageSize: 32 << 10, SortMemoryBlocks: 64, SortParallelism: 1})
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

// drainOp opens op, pulls up to stop rows (all of them when stop < 0) in
// chunks of the given capacity, closes it and returns the rows.
func drainOp(t *testing.T, op exec.Operator, capacity, stop int) [][]any {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	c := types.NewChunk(op.Schema().Len(), capacity)
	var rows [][]any
	var row types.Tuple
	for stop < 0 || len(rows) < stop {
		if err := op.NextChunk(c); err != nil {
			t.Fatal(err)
		}
		if c.Rows() == 0 {
			break
		}
		for i := 0; i < c.Rows() && (stop < 0 || len(rows) < stop); i++ {
			row = c.CopyRow(row, i)
			vals := make([]any, len(row))
			for j, v := range row {
				vals[j] = datumValue(v)
			}
			rows = append(rows, vals)
		}
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestChunkBoundaryMidPage covers the chunk that fills in the middle of a
// page (storage.TupleReader.ReadChunk stopping partway through it): the
// table's pages hold more than types.DefaultChunkCapacity rows, and each
// plan stops on both sides of the chunk boundary, on the first page and on
// the second. scan→filter→limit is checked against its one-row drain;
// scan→sort against the same partial sort that also pulls its input one row
// per chunk, since the sort's input batch is a setting of its own
// (xsort.Config.BatchSize), not the capacity its consumer asks for.
func TestChunkBoundaryMidPage(t *testing.T) {
	const n = 6_000
	db := midPageDB(t, n)
	capacity := types.DefaultChunkCapacity
	stops := []int{1, capacity - 1, capacity, capacity + 1, 2*capacity - 1, 2 * capacity, 2*capacity + 1, -1}

	scanPlan, err := db.Optimize(db.Scan("wide"))
	if err != nil {
		t.Fatal(err)
	}
	if io := drainStop(t, db, scanPlan, capacity+1, queryOneRow).io; io.PageReads != 1 {
		t.Fatalf("%d rows span %d pages; the test needs more than a chunk on one page", capacity+1, io.PageReads)
	}
	if io := drainStop(t, db, scanPlan, 2*capacity+1, queryOneRow).io; io.PageReads != 2 {
		t.Fatalf("%d rows span %d pages; the last stops must land mid-way on page 2", 2*capacity+1, io.PageReads)
	}

	t.Run("scan-filter-limit", func(t *testing.T) {
		plan, err := db.Optimize(db.Scan("wide").Filter(Gt(Col("v"), Int(100))).Limit(5_000))
		if err != nil {
			t.Fatal(err)
		}
		for _, stop := range stops {
			want := drainStop(t, db, plan, stop, queryOneRow)
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
		// rowFed drains the reference: the same MRS fed and drained one row
		// per chunk, under the budget a lone cursor is granted in full.
		rowFed := func(stop int) drained {
			t.Helper()
			tap := storage.NewTap()
			sort, err := exec.NewSortMRS(exec.NewTableScan(table), target, given, xsort.Config{
				Disk: db.disk, MemoryBlocks: 64, Parallelism: 1, BatchSize: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			exec.Bind(sort, iter.Binding{Tap: tap})
			return drained{rows: drainOp(t, sort, 1, stop), sorts: []SortStats{*sort.SortStats()}, io: tap.Stats()}
		}
		replay := func(_ int, n int64) SortStats { return rowFed(int(n)).sorts[0] }
		for _, stop := range stops {
			got := drainStop(t, db, plan, stop, queryChunked)
			if stop < 0 {
				sameDrain(t, "full drain", got, rowFed(stop))
			} else {
				sameStop(t, fmt.Sprintf("stop %d", stop), got, rowFed(stop), replay)
			}
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
		if mode.name == "cap=1" {
			cur.chunk = types.GetChunk(len(cur.cols), 1)
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
	// A selective filter over a big scan: a filter at the top of the plan, first
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

// TestConcurrentChunkCursors drains several cursors on one Database at once
// (the race-serve CI job gates the chunk pool and shared-plan plumbing
// underneath), alternating the default capacity with cursors drained one
// row per chunk — all required to agree exactly.
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

// TestChunkStopsInSpilledMerge pins the merge's page rule: a chunk served
// from a spilled sort's final merge stops before any row whose load would
// read a new run page, so its rows stay spans over pages already read and a
// consumer that stops mid-chunk has read no page a one-row consumer would
// not have. Draining at capacity 1 and at the default capacity must charge
// the same I/O and sort counters at every stop — for a spilled SRS at the
// plan's root and for a merge join reading two of them.
func TestChunkStopsInSpilledMerge(t *testing.T) {
	const n = 8_000
	db := segmentedDBWith(t, Config{SortMemoryBlocks: 4, SortParallelism: 1}, n, n)
	stops := []int{1, 2, 100, 1023, 1024, 1025, 4_000, -1}
	spilled := func(t *testing.T, sorts []SortStats) {
		t.Helper()
		for _, st := range sorts {
			if st.Segments != 1 || st.RunsGenerated < 3 {
				t.Fatalf("want SRS sorts spilling several runs, got %+v", sorts)
			}
		}
	}

	t.Run("root-srs", func(t *testing.T) {
		plan, err := db.Optimize(db.Scan("big").OrderBy("v", "pad"))
		if err != nil {
			t.Fatal(err)
		}
		spilled(t, drainStop(t, db, plan, -1, queryChunked).sorts)
		for _, stop := range stops {
			got, want := drainStop(t, db, plan, stop, queryChunked), drainStop(t, db, plan, stop, queryOneRow)
			if stop < 0 {
				sameDrain(t, "full drain", got, want)
			} else {
				sameStop(t, fmt.Sprintf("stop %d", stop), got, want, planReplay(t, db, plan, 4))
			}
		}
	})

	t.Run("merge-join", func(t *testing.T) {
		rows := make([][]any, n)
		for i := range rows {
			rows[i] = []any{int64(i * 7 % 10_000), int64(i)}
		}
		if err := db.CreateTable("other", []Column{
			{Name: "w", Type: Int64},
			{Name: "id", Type: Int64},
		}, ClusterOn("id"), rows); err != nil {
			t.Fatal(err)
		}
		// side builds the SRS that sorts one join input (big on v, other on
		// w), pulling its input in chunks of the given capacity.
		side := func(tap *storage.Tap, i, capacity int) *exec.Sort {
			t.Helper()
			name, key := "big", "v"
			if i == 1 {
				name, key = "other", "w"
			}
			table, err := db.cat.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := exec.NewSortSRS(exec.NewTableScan(table), sortord.New(key), xsort.Config{
				Disk: db.disk, MemoryBlocks: 4, Parallelism: 1, BatchSize: capacity,
			})
			if err != nil {
				t.Fatal(err)
			}
			exec.Bind(s, iter.Binding{Tap: tap})
			return s
		}
		// join drains big ⋈ other on v = w, every operator pulling chunks of
		// the given capacity.
		join := func(capacity, stop int) drained {
			t.Helper()
			tap := storage.NewTap()
			left, right := side(tap, 0, capacity), side(tap, 1, capacity)
			mj, err := exec.NewMergeJoin(left, right, sortord.New("v"), sortord.New("w"), exec.InnerJoin)
			if err != nil {
				t.Fatal(err)
			}
			d := drained{rows: drainOp(t, mj, capacity, stop), io: tap.Stats()}
			d.sorts = []SortStats{*left.SortStats(), *right.SortStats()}
			return d
		}
		// replay stops side i alone after n rows, one row at a time.
		replay := func(i int, n int64) SortStats {
			t.Helper()
			s := side(storage.NewTap(), i, 1)
			drainOp(t, s, 1, int(n))
			return *s.SortStats()
		}
		full := join(types.DefaultChunkCapacity, -1)
		spilled(t, full.sorts)
		if len(full.rows) != n {
			t.Fatalf("join served %d rows, want %d", len(full.rows), n)
		}
		for _, stop := range stops {
			got, want := join(types.DefaultChunkCapacity, stop), join(1, stop)
			if stop < 0 {
				sameDrain(t, "full drain", got, want)
			} else {
				sameStop(t, fmt.Sprintf("stop %d", stop), got, want, replay)
			}
		}
	})
}
