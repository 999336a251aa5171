package pyro

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"pyro/internal/core"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// TestTopKCorrectness: LIMIT over ORDER BY returns the first K rows of the
// full ordering.
func TestTopKCorrectness(t *testing.T) {
	db := openTestDB(t)
	full, err := db.Optimize(db.Scan("items").OrderBy("i_qty", "i_order"))
	if err != nil {
		t.Fatal(err)
	}
	checkInteriorOrders(t, db, full)
	fullRows, err := queryAll(db, full)
	if err != nil {
		t.Fatal(err)
	}
	topk, err := db.Optimize(db.Scan("items").OrderBy("i_qty", "i_order").Limit(25))
	if err != nil {
		t.Fatal(err)
	}
	checkInteriorOrders(t, db, topk)
	kRows, err := queryAll(db, topk)
	if err != nil {
		t.Fatal(err)
	}
	if len(kRows.Data) != 25 {
		t.Fatalf("top-k rows = %d, want 25", len(kRows.Data))
	}
	for i := range kRows.Data {
		for j := range kRows.Data[i] {
			if kRows.Data[i][j] != fullRows.Data[i][j] {
				t.Fatalf("top-k row %d differs from full ordering", i)
			}
		}
	}
}

// TestTopKEarlyTermination: with a clustering prefix available, the Top-K
// plan uses a pipelined partial sort and touches far less data than the
// full-sort alternative (the paper's §3.1 benefit 2).
func TestTopKEarlyTermination(t *testing.T) {
	db := Open(Config{SortMemoryBlocks: 64})
	var rows [][]any
	for i := 0; i < 50_000; i++ {
		rows = append(rows, []any{int64(i / 500), int64(i * 7 % 10_000), int64(i)})
	}
	if err := db.CreateTable("big", []Column{
		{Name: "g", Type: Int64},
		{Name: "v", Type: Int64},
		{Name: "pad", Type: Int64},
	}, ClusterOn("g"), rows); err != nil {
		t.Fatal(err)
	}
	q := db.Scan("big").OrderBy("g", "v").Limit(10)

	partial, err := db.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	checkInteriorOrders(t, db, partial)
	db.ResetIOStats()
	if _, err := queryAll(db, partial); err != nil {
		t.Fatal(err)
	}
	ioPartial := db.IOStats().PageReads

	fullSort, err := db.Optimize(q, WithoutPartialSort())
	if err != nil {
		t.Fatal(err)
	}
	checkInteriorOrders(t, db, fullSort)
	db.ResetIOStats()
	if _, err := queryAll(db, fullSort); err != nil {
		t.Fatal(err)
	}
	ioFull := db.IOStats().PageReads

	// The MRS plan stops after the first segment; the SRS plan must read
	// the whole table (and its own run files) before emitting anything.
	if ioPartial*5 > ioFull {
		t.Fatalf("early termination missing: partial read %d pages, full %d", ioPartial, ioFull)
	}
}

func TestLimitValidation(t *testing.T) {
	db := openTestDB(t)
	if err := db.Scan("orders").Limit(-1).Err(); err == nil {
		t.Fatal("negative limit should error")
	}
	plan, err := db.Optimize(db.Scan("orders").Limit(0))
	if err != nil {
		t.Fatal(err)
	}
	checkInteriorOrders(t, db, plan)
	rows, err := queryAll(db, plan)
	if err != nil || len(rows.Data) != 0 {
		t.Fatalf("limit 0: %d rows, err %v", len(rows.Data), err)
	}
	// Limit larger than input returns everything.
	plan2, err := db.Optimize(db.Scan("orders").Limit(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	checkInteriorOrders(t, db, plan2)
	rows2, err := queryAll(db, plan2)
	if err != nil || len(rows2.Data) != 200 {
		t.Fatalf("oversized limit: %d rows", len(rows2.Data))
	}
}

// boundDB builds `segs` partial-sort segments of segSize rows clustered on g,
// v drawn from a small domain so ties straddle every cut-off, and returns the
// rows it loaded.
func boundDB(t testing.TB, cfg Config, segs, segSize int) (*Database, [][]any) {
	t.Helper()
	db := Open(cfg)
	t.Cleanup(func() { storage.AssertNoLeaks(t, db.disk) })
	rng := rand.New(rand.NewSource(int64(segs*1000 + segSize)))
	rows := make([][]any, segs*segSize)
	for i := range rows {
		rows[i] = []any{int64(i / segSize), rng.Int63n(int64(segSize)), int64(i)}
	}
	if err := db.CreateTable("big", []Column{
		{Name: "g", Type: Int64},
		{Name: "v", Type: Int64},
		{Name: "pad", Type: Int64},
	}, ClusterOn("g"), rows); err != nil {
		t.Fatal(err)
	}
	return db, rows
}

// queryRows runs plan to exhaustion and returns its rows and stats.
func queryRows(db *Database, plan *Plan) ([][]any, ExecStats, error) {
	cur, err := db.Query(context.Background(), plan)
	if err != nil {
		return nil, ExecStats{}, err
	}
	var rows [][]any
	for cur.Next() {
		rows = append(rows, cur.Row())
	}
	if err := cur.Close(); err != nil {
		return nil, ExecStats{}, err
	}
	return rows, cur.Stats(), cur.Err()
}

// drainStats is queryRows for the test's own goroutine: any error is fatal.
func drainStats(t testing.TB, db *Database, plan *Plan) ([][]any, ExecStats) {
	t.Helper()
	rows, st, err := queryRows(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	return rows, st
}

// TestLimitInsideFirstSegmentDoesOneSegmentsWork is the read-ahead
// regression: LIMIT k with its answer wholly inside the first segment must
// cost exactly what it costs on a table that ends right after that segment —
// same tuples pulled, no run formed, the same pages — at SortParallelism 1
// and 2. (At the parent commit parallelism 2 read ahead, and spilled, the
// following segments.)
func TestLimitInsideFirstSegmentDoesOneSegmentsWork(t *testing.T) {
	const segSize, k = 2000, 100
	for _, par := range []int{1, 2} {
		cfg := Config{SortMemoryBlocks: 16, SortParallelism: par}
		many, rows := boundDB(t, cfg, 6, segSize)
		// The same first segment plus the one row whose g ends it.
		one := Open(cfg)
		t.Cleanup(func() { storage.AssertNoLeaks(t, one.disk) })
		if err := one.CreateTable("big", []Column{
			{Name: "g", Type: Int64},
			{Name: "v", Type: Int64},
			{Name: "pad", Type: Int64},
		}, ClusterOn("g"), rows[:segSize+1]); err != nil {
			t.Fatal(err)
		}
		run := func(db *Database) ExecStats {
			plan, err := db.Optimize(db.Scan("big").OrderBy("g", "v").Limit(k))
			if err != nil {
				t.Fatal(err)
			}
			checkInteriorOrders(t, db, plan)
			got, st := drainStats(t, db, plan)
			if len(got) != k {
				t.Fatalf("par=%d: %d rows, want %d", par, len(got), k)
			}
			return st
		}
		want, got := run(one), run(many)
		if got.Sorts[0].TuplesIn != segSize+1 {
			t.Fatalf("par=%d: sort pulled %d tuples, want the first segment + 1 = %d", par, got.Sorts[0].TuplesIn, segSize+1)
		}
		if got.Sorts[0] != want.Sorts[0] {
			t.Fatalf("par=%d: sort work differs from the one-segment table:\n got %+v\nwant %+v", par, got.Sorts[0], want.Sorts[0])
		}
		if got.Sorts[0].RunsGenerated != 0 {
			t.Fatalf("par=%d: %d rows fit 16 blocks, yet %d runs were formed", par, k, got.Sorts[0].RunsGenerated)
		}
		if got.IO != want.IO {
			t.Fatalf("par=%d: I/O differs from the one-segment table: got %+v, want %+v", par, got.IO, want.IO)
		}
	}
}

// TestLimitIsPrefixOfUnlimited is the metamorphic property through the
// public API: LIMIT k returns the ORDER BY keys of the first k rows of the
// unlimited result (rows tied on the keys at the cut-off may be any of the
// tied rows), whatever the position of k against the segment boundaries,
// the sort budget, the parallelism, the presence of a usable prefix, the
// governor's grant and the heuristic.
func TestLimitIsPrefixOfUnlimited(t *testing.T) {
	const segs, segSize = 7, 60
	const n = segs * segSize
	heuristics := []Heuristic{PYRO, PYROOMinus, PYROP, PYROO, PYROE}
	orders := map[string][]string{"prefix": {"g", "v"}, "noprefix": {"v", "g"}}
	for _, blocks := range []int{4, 16, 1000} {
		for _, par := range []int{1, 2} {
			for _, pool := range []int{0, 16} { // one cursor at the static budget; two cursors share 16 blocks
				db, rows := boundDB(t, Config{
					SortMemoryBlocks: blocks, SortParallelism: par, GlobalSortMemoryBlocks: pool,
				}, segs, segSize)
				for name, cols := range orders {
					ki := []int{0, 1}
					if name == "noprefix" {
						ki = []int{1, 0}
					}
					ref := append([][]any(nil), rows...)
					sort.SliceStable(ref, func(i, j int) bool {
						a, b := ref[i], ref[j]
						if a[ki[0]] != b[ki[0]] {
							return a[ki[0]].(int64) < b[ki[0]].(int64)
						}
						return a[ki[1]].(int64) < b[ki[1]].(int64)
					})
					for _, k := range []int{1, segSize - 1, segSize, segSize + 1, 2*segSize + 1, n, n + 5} {
						for _, h := range heuristics {
							at := fmt.Sprintf("M=%d par=%d pool=%d %s k=%d %v", blocks, par, pool, name, k, h)
							plan, err := db.Optimize(db.Scan("big").OrderBy(cols...).Limit(int64(k)), WithHeuristic(h))
							if err != nil {
								t.Fatal(err)
							}
							checkInteriorOrders(t, db, plan)
							check := func(got [][]any) error {
								if len(got) != min(k, n) {
									return fmt.Errorf("%s: %d rows, want %d", at, len(got), min(k, n))
								}
								for i, r := range got {
									w := ref[i]
									if r[0] != w[0] || r[1] != w[1] {
										return fmt.Errorf("%s: row %d = %v, want keys of %v", at, i, r, w)
									}
									if src := rows[r[2].(int64)]; src[0] != r[0] || src[1] != r[1] {
										return fmt.Errorf("%s: row %d = %v is not a row of the table", at, i, r)
									}
								}
								return nil
							}
							// Under a shared pool two cursors run at once, so
							// grants are partial and shrink mid-query. Without
							// one, a single cursor is granted its ask, so a
							// Limit sort runs at its small Top-K ask; the plan
							// built below the API runs it at the static M.
							cursors := 1
							if pool > 0 {
								cursors = 2
							} else {
								op, err := core.Build(plan.inner, core.BuildConfig{
									Disk: db.disk, SortMemoryBlocks: blocks, SortParallelism: par,
								})
								if err != nil {
									t.Fatal(err)
								}
								if err := check(drainOp(t, op, types.DefaultChunkCapacity, -1)); err != nil {
									t.Fatalf("static M: %v", err)
								}
							}
							errs := make([]error, cursors)
							var wg sync.WaitGroup
							for c := range errs {
								wg.Add(1)
								go func() {
									defer wg.Done()
									got, _, err := queryRows(db, plan)
									if err == nil {
										err = check(got)
									}
									errs[c] = err
								}()
							}
							wg.Wait()
							for _, err := range errs {
								if err != nil {
									t.Fatal(err)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestLimitBoundsOnlyItsOwnOrderBy is the same property for stacked
// ORDER BYs, where a Limit's bound belongs to the sort it reads and to no
// sort below that one: a re-sort needs every row of its input, and an inner
// LIMIT decides which rows the outer ORDER BY ever sees. Every order ends in
// the unique pad column, so the expected rows are exact.
func TestLimitBoundsOnlyItsOwnOrderBy(t *testing.T) {
	const segs, segSize = 7, 60
	const n = segs * segSize
	col := map[string]int{"g": 0, "v": 1, "pad": 2}
	sorted := func(in [][]any, cols ...string) [][]any {
		out := append([][]any(nil), in...)
		sort.SliceStable(out, func(i, j int) bool {
			for _, c := range cols {
				if a, b := out[i][col[c]].(int64), out[j][col[c]].(int64); a != b {
					return a < b
				}
			}
			return false
		})
		return out
	}
	inners := [][]string{{"g", "v", "pad"}, {"v", "pad"}} // partial sort; full sort
	outer := []string{"v", "g", "pad"}
	for _, blocks := range []int{4, 16, 1000} {
		for _, par := range []int{1, 2} {
			db, rows := boundDB(t, Config{SortMemoryBlocks: blocks, SortParallelism: par}, segs, segSize)
			for _, h := range []Heuristic{PYRO, PYROOMinus, PYROP, PYROO, PYROE} {
				for _, inner := range inners {
					byInner := sorted(rows, inner...)
					for _, k := range []int{1, segSize - 1, segSize + 1, n + 5} {
						at := fmt.Sprintf("M=%d par=%d %v inner=%v k=%d", blocks, par, h, inner, k)
						expect := func(what string, q *Query, want [][]any) {
							t.Helper()
							plan, err := db.Optimize(q, WithHeuristic(h))
							if err != nil {
								t.Fatal(err)
							}
							checkInteriorOrders(t, db, plan)
							got, _ := drainStats(t, db, plan)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s %s: got %d rows %v…, want %d rows %v…\n%s", at, what,
									len(got), got[:min(3, len(got))], len(want), want[:min(3, len(want))], plan.Explain())
							}
						}
						// The inner sort is re-sorted whole: top-k of the outer order.
						expect("order-by over order-by",
							db.Scan("big").OrderBy(inner...).OrderBy(outer...).Limit(int64(k)),
							sorted(rows, outer...)[:min(k, n)])
						// The inner LIMIT picks the rows; the outer one only
						// trims them — tighter (k < k2) or looser (k > k2).
						for _, k2 := range []int{segSize, 2*segSize + 1} {
							expect(fmt.Sprintf("limit %d under the re-sort", k2),
								db.Scan("big").OrderBy(inner...).Limit(int64(k2)).OrderBy(outer...).Limit(int64(k)),
								sorted(byInner[:k2], outer...)[:min(k, k2)])
						}
						// … and seen through a projection above the ORDER BY.
						expect("limit over project over order-by",
							db.Scan("big").OrderBy(inner...).Select("g", "v", "pad").Limit(int64(k)),
							byInner[:min(k, n)])
					}
				}
			}
		}
	}
}

// TestExplainShowsPushedBound: the sort a Limit reads — directly or through
// a projection — prints limit=k and emits k rows; a sort below an operator
// that changes cardinality does not, and neither does one that only a
// row-target hint reaches.
func TestExplainShowsPushedBound(t *testing.T) {
	db, _ := boundDB(t, Config{SortMemoryBlocks: 16}, 10, 500)
	explain := func(q *Query) string {
		t.Helper()
		plan, err := db.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		checkInteriorOrders(t, db, plan)
		return plan.Explain()
	}
	direct := explain(db.Scan("big").OrderBy("g", "v").Limit(7))
	if !strings.Contains(direct, "Sort(partial) (g) -> (g, v) limit=7") || !strings.Contains(direct, "rows=7") {
		t.Fatalf("partial sort under a Limit should print its bound:\n%s", direct)
	}
	full := explain(db.Scan("big").OrderBy("v").Limit(7))
	if !strings.Contains(full, "Sort (v) limit=7") {
		t.Fatalf("full sort under a Limit should print its bound:\n%s", full)
	}
	projected := explain(db.Scan("big").Select("g", "v").OrderBy("g", "v").Limit(7))
	if !strings.Contains(projected, "limit=7") {
		t.Fatalf("the bound should pass through a projection:\n%s", projected)
	}
	projected = explain(db.Scan("big").OrderBy("g", "v").Select("g", "v").Limit(7))
	if !strings.Contains(projected, "limit=7") {
		t.Fatalf("the bound should pass through a projection above the ORDER BY:\n%s", projected)
	}
	resorted := explain(db.Scan("big").OrderBy("g", "v").OrderBy("v").Limit(7))
	if !strings.Contains(resorted, "Sort (v) limit=7") || strings.Count(resorted, "limit=") != 1 {
		t.Fatalf("only the sort the Limit reads is bounded, not the one it re-sorts:\n%s", resorted)
	}
	grouped := explain(db.Scan("big").
		GroupBy([]string{"g", "v"}, Agg{Name: "n", Func: Count}).OrderBy("g", "v").Limit(7))
	if strings.Contains(grouped, "limit=") {
		t.Fatalf("a sort below an aggregate must stay unbounded:\n%s", grouped)
	}
	if unlimited := explain(db.Scan("big").OrderBy("g", "v")); strings.Contains(unlimited, "limit=") {
		t.Fatalf("an unlimited sort printed a bound:\n%s", unlimited)
	}

	// A row target is a hint: it steers plan choice, never truncates, never
	// bounds.
	plan, err := db.Optimize(db.Scan("big").OrderBy("g", "v"), WithRowTarget(7))
	if err != nil {
		t.Fatal(err)
	}
	checkInteriorOrders(t, db, plan)
	if strings.Contains(plan.Explain(), "limit=") {
		t.Fatalf("a row target bounded a sort:\n%s", plan.Explain())
	}
	got, st := drainStats(t, db, plan)
	if len(got) != 5000 || st.Sorts[0].TuplesOut != 5000 {
		t.Fatalf("WithRowTarget(7) truncated the stream: %d rows, sort emitted %d", len(got), st.Sorts[0].TuplesOut)
	}
}

// TestBoundedSortAsksForLittleMemory: a query whose only sort is bounded by
// a small Limit asks the governor for room for 2k rows, not a full grant; an
// unbounded sort, or a bound too large to matter, asks for everything.
func TestBoundedSortAsksForLittleMemory(t *testing.T) {
	db, _ := boundDB(t, Config{SortMemoryBlocks: 16}, 10, 500)
	granted := func(q *Query) int {
		t.Helper()
		plan, err := db.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		checkInteriorOrders(t, db, plan)
		_, st := drainStats(t, db, plan)
		return st.GrantedBlocks
	}
	// 3 int64 columns are 28 bytes encoded, and a store entry for the one
	// column left to sort on is 14: 2·10 rows take a row block and an entry
	// block (the least a sort holds), 2·100 rows two row blocks and one of
	// entries. (Priced at Tuple.MemSize's 120 bytes a row — memory nobody
	// measured — these were 1 and 6.)
	if g := granted(db.Scan("big").OrderBy("g", "v").Limit(10)); g != 2 {
		t.Fatalf("LIMIT 10 was granted %d blocks, want 2", g)
	}
	if g := granted(db.Scan("big").OrderBy("g", "v").Limit(100)); g != 3 {
		t.Fatalf("LIMIT 100 was granted %d blocks, want 3", g)
	}
	if g := granted(db.Scan("big").OrderBy("g", "v").Limit(1000)); g != 16 {
		t.Fatalf("LIMIT 1000 was granted %d blocks, want the full 16", g)
	}
	if g := granted(db.Scan("big").OrderBy("g", "v")); g != 16 {
		t.Fatalf("the unlimited sort was granted %d blocks, want the full 16", g)
	}
}
