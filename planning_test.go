package pyro

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"pyro/internal/core"
	"pyro/internal/cost"
)

// groupedDB builds the tentpole's plan-flip workload: 50k rows clustered on
// g (100 partial-sort segments), with a coarse v so the (g, v) group count
// sits well below the row count. Unlimited, Sort(HashAggregate) wins on
// full-drain cost; under a small row budget the pipelined
// GroupAggregate(PartialSort) wins on prefix cost.
func groupedDB(t testing.TB) *Database {
	t.Helper()
	db := Open(Config{})
	rows := make([][]any, 50_000)
	for i := range rows {
		rows[i] = []any{int64(i / 500), int64((i * 7 % 10_000) / 100), int64(i)}
	}
	if err := db.CreateTable("big", []Column{
		{Name: "g", Type: Int64},
		{Name: "v", Type: Int64},
		{Name: "pad", Type: Int64},
	}, ClusterOn("g"), rows); err != nil {
		t.Fatal(err)
	}
	return db
}

func groupedQuery(db *Database) *Query {
	return db.Scan("big").
		GroupBy([]string{"g", "v"}, Agg{Name: "total", Func: Sum, Arg: Col("pad")}).
		OrderBy("g", "v")
}

// TestTopKPlanFlipMatrix is the PR's acceptance test: with Limit(k) for
// small k the optimizer selects the pipelined partial-sort plan
// (GroupAggregate over a partial-sort enforcer) where the unlimited query
// selects the blocking hash plan (Sort over HashAggregate); and at k = N
// the prefix cost equals the total, so the choice reverts to the unlimited
// plan exactly.
func TestTopKPlanFlipMatrix(t *testing.T) {
	db := groupedDB(t)

	unlimited, err := db.Optimize(groupedQuery(db))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(unlimited.Explain(), "HashAggregate") ||
		strings.Contains(unlimited.Explain(), "partial") {
		t.Fatalf("unlimited query should pick the blocking hash plan:\n%s", unlimited.Explain())
	}
	// Prefix(N) ≡ Total at the public surface.
	if got := unlimited.EstimatedPrefixCost(1 << 40); got != unlimited.EstimatedCost() {
		t.Fatalf("EstimatedPrefixCost(∞) = %f, want EstimatedCost %f", got, unlimited.EstimatedCost())
	}

	for _, k := range []int64{1, 100} {
		plan, err := db.Optimize(groupedQuery(db).Limit(k))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan.Explain(), "partial") ||
			strings.Contains(plan.Explain(), "HashAggregate") {
			t.Fatalf("Limit(%d) should flip to the pipelined partial-sort plan:\n%s", k, plan.Explain())
		}
		if plan.EstimatedCost() >= unlimited.EstimatedCost() {
			t.Fatalf("Limit(%d) plan prices full drain: %f >= %f",
				k, plan.EstimatedCost(), unlimited.EstimatedCost())
		}
		// The pipelined plan's startup is a fraction of the blocking plan's.
		if 5*plan.EstimatedStartupCost() > unlimited.EstimatedStartupCost() {
			t.Fatalf("Limit(%d) startup %f not ≪ blocking startup %f",
				k, plan.EstimatedStartupCost(), unlimited.EstimatedStartupCost())
		}
	}

	// k = N: Prefix(N) ≡ Total, so the plan under the Limit is the
	// unlimited plan again, bit-identical shape and cost.
	atN, err := db.Optimize(groupedQuery(db).Limit(50_000))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(atN.Explain(), "HashAggregate") || strings.Contains(atN.Explain(), "partial") {
		t.Fatalf("Limit(N) should keep the unlimited plan:\n%s", atN.Explain())
	}
	if atN.EstimatedCost() != unlimited.EstimatedCost() {
		t.Fatalf("Limit(N) cost %f != unlimited cost %f — Prefix(N) must equal Total",
			atN.EstimatedCost(), unlimited.EstimatedCost())
	}

	// Correctness across the flip: the limited plans return the first k
	// rows of the unlimited ordering.
	want, err := queryAll(db, unlimited)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{1, 100} {
		plan, err := db.Optimize(groupedQuery(db).Limit(k))
		if err != nil {
			t.Fatal(err)
		}
		got, err := queryAll(db, plan)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(got.Data)) != k {
			t.Fatalf("Limit(%d) returned %d rows", k, len(got.Data))
		}
		for i := range got.Data {
			if !reflect.DeepEqual(got.Data[i], want.Data[i]) {
				t.Fatalf("Limit(%d) row %d = %v, want %v", k, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestWithRowTargetReplansWithoutTruncating: Optimize(q, WithRowTarget(k))
// plans an unlimited query for first-k consumption — the plan becomes the
// pipelined partial-sort plan, bounding no sort — but the stream is NOT
// truncated: a full drain still yields every row, identical to the
// blocking plan's output. The targeted plan is exactly core.Optimize's at
// RowTarget k, and a negative k is rejected.
func TestWithRowTargetReplansWithoutTruncating(t *testing.T) {
	db := groupedDB(t)
	plan, err := db.Optimize(groupedQuery(db))
	if err != nil {
		t.Fatal(err)
	}
	want, err := queryAll(db, plan)
	if err != nil {
		t.Fatal(err)
	}

	drain := func(p *Plan) ([][]any, ExecStats) {
		t.Helper()
		cur, err := db.Query(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]any
		for cur.Next() {
			rows = append(rows, cur.Row())
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		return rows, cur.Stats()
	}

	// Without a row target the blocking plan runs: its enforcer is a full
	// sort (its whole input one segment).
	base, baseStats := drain(plan)
	if len(baseStats.Sorts) != 1 || baseStats.Sorts[0].Segments != 1 {
		t.Fatalf("expected one full-sort enforcer, got %+v", baseStats.Sorts)
	}

	// With a row target the pipelined plan is chosen — the enforcer is an
	// MRS partial sort, unbounded — and the full drain returns everything.
	targetedPlan, err := db.Optimize(groupedQuery(db), WithRowTarget(10))
	if err != nil {
		t.Fatal(err)
	}
	if ex := targetedPlan.Explain(); !strings.Contains(ex, "partial") || strings.Contains(ex, "limit=") {
		t.Fatalf("WithRowTarget(10) should plan an unbounded partial sort:\n%s", ex)
	}
	targeted, targetStats := drain(targetedPlan)
	if len(targetStats.Sorts) != 1 || targetStats.Sorts[0].Segments <= 1 {
		t.Fatalf("WithRowTarget did not plan a partial sort: %+v", targetStats.Sorts)
	}
	if targetStats.Rows != int64(len(want.Data)) {
		t.Fatalf("WithRowTarget truncated the stream: %d rows, want %d",
			targetStats.Rows, len(want.Data))
	}
	if !reflect.DeepEqual(base, targeted) {
		t.Fatal("row-targeted plan and blocking plan disagree on the result")
	}

	// The untargeted plan of the same query is still the blocking one.
	if again, err := db.Optimize(groupedQuery(db)); err != nil || !strings.Contains(again.Explain(), "HashAggregate") {
		t.Fatalf("a row target leaked into the untargeted plan (%v):\n%s", err, again.Explain())
	}

	// The option sets core.Options.RowTarget and nothing else: one k per
	// row-target band, so each is the first sighting of its band.
	for _, k := range []int64{1, 3, 100, 1000, 50_000} {
		got, err := db.Optimize(groupedQuery(db), WithRowTarget(k))
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions(core.HeuristicFavorable)
		opts.Model = cost.DefaultModel()
		opts.Model.PageSize = db.cfg.PageSize
		opts.Model.MemoryBlocks = int64(db.cfg.SortMemoryBlocks)
		opts.RowTarget = k
		ref, err := core.Optimize(groupedQuery(db).node, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Explain() != ref.Plan.Format() {
			t.Fatalf("WithRowTarget(%d) plan differs from core.Optimize at RowTarget %d:\n%s\nwant\n%s",
				k, k, got.Explain(), ref.Plan.Format())
		}
	}

	if _, err := db.Optimize(groupedQuery(db), WithRowTarget(-1)); err == nil {
		t.Fatal("negative row target should error")
	}
}

// TestPushedDownLimitMatchesEarlyClose is the satellite's acceptance test:
// a planned Limit(k), drained to completion, must shed exactly the work
// the early-Close Top-K test sheds by hand — same sorted-segment count,
// same page reads — and report Stats().Rows == k. Serial sort parallelism
// pins the segment pipeline so the two runs are comparable number for
// number.
func TestPushedDownLimitMatchesEarlyClose(t *testing.T) {
	db := segmentedDBWith(t, Config{SortMemoryBlocks: 64, SortParallelism: 1}, 50_000, 500) // 100 segments
	const k = 10

	// Arm 1: unlimited plan, consumer pulls k rows and closes.
	unlimited, err := db.Optimize(db.Scan("big").OrderBy("g", "v"))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := db.Query(context.Background(), unlimited)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if !cur.Next() {
			t.Fatalf("row %d: %v", i, cur.Err())
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	earlyClose := cur.Stats()

	// Arm 2: planned Limit(k), drained to exhaustion — the Limit operator
	// closes the sort by itself.
	limited, err := db.Optimize(db.Scan("big").OrderBy("g", "v").Limit(k))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(limited.Explain(), "partial") {
		t.Fatalf("expected a partial-sort Top-K plan:\n%s", limited.Explain())
	}
	cur2, err := db.Query(context.Background(), limited)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for cur2.Next() {
		rows++
	}
	if err := cur2.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cur2.Close(); err != nil {
		t.Fatal(err)
	}
	planned := cur2.Stats()

	if rows != k || planned.Rows != k {
		t.Fatalf("planned limit rows = %d (stats %d), want %d", rows, planned.Rows, k)
	}
	if es, ps := earlyClose.Sorts[0].Segments, planned.Sorts[0].Segments; es != ps {
		t.Fatalf("segments sorted: early close %d, planned limit %d — must match", es, ps)
	}
	if er, pr := earlyClose.IO.PageReads, planned.IO.PageReads; er != pr {
		t.Fatalf("page reads: early close %d, planned limit %d — must match", er, pr)
	}
	if ei, pi := earlyClose.Sorts[0].TuplesIn, planned.Sorts[0].TuplesIn; ei != pi {
		t.Fatalf("tuples consumed: early close %d, planned limit %d — must match", ei, pi)
	}
	// And both abandoned almost all of the 100 segments.
	if planned.Sorts[0].Segments >= 100 {
		t.Fatalf("planned limit sorted every segment (%d)", planned.Sorts[0].Segments)
	}
	t.Logf("planned Limit(%d): %d/100 segments sorted, %d pages read, %d tuples pulled",
		k, planned.Sorts[0].Segments, planned.IO.PageReads, planned.Sorts[0].TuplesIn)
}

// TestLimitZeroSemantics pins the defined k = 0 behavior end to end: a
// valid, empty, zero-cost cursor whose plan contains no sort and whose
// execution does no I/O.
func TestLimitZeroSemantics(t *testing.T) {
	db := segmentedDB(t, 10_000, 100)
	plan, err := db.Optimize(db.Scan("big").OrderBy("g", "v").Limit(0))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.Explain(), "Sort") {
		t.Fatalf("LIMIT 0 planned a degenerate sort:\n%s", plan.Explain())
	}
	if plan.EstimatedCost() != 0 || plan.EstimatedStartupCost() != 0 {
		t.Fatalf("LIMIT 0 cost = %f/%f, want zero", plan.EstimatedCost(), plan.EstimatedStartupCost())
	}
	cur, err := db.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Next() {
		t.Fatal("LIMIT 0 produced a row")
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	st := cur.Stats()
	if st.Rows != 0 || st.IO.Total() != 0 {
		t.Fatalf("LIMIT 0 stats: %d rows, %d transfers — want zero work", st.Rows, st.IO.Total())
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestContendedPoolFlipsPlanChoice pins the governor-aware cost model: the
// optimizer prices sorts at the grant the sort-memory pool would issue
// right now, so the same query flips plans under contention. Alone, the
// pool's full 1 200 blocks hold the sort of the hash aggregate's 10 000
// groups (31-byte rows and 23-byte entries: ≈ 1 080 blocks of sort memory)
// and the blocking Sort(HashAggregate) wins on full-drain cost; with another
// cursor pinning the pool the expected grant halves, that sort spills, and
// the optimizer switches to the pipelined GroupAggregate(PartialSort) —
// whose per-segment memory it can actually afford. Releasing the contention restores the original choice
// (the two plans cache under different model keys, so neither pollutes
// the other).
func TestContendedPoolFlipsPlanChoice(t *testing.T) {
	db := Open(Config{PageSize: 512, SortMemoryBlocks: 1200})
	rows := make([][]any, 50_000)
	for i := range rows {
		rows[i] = []any{int64(i / 500), int64((i * 7 % 10_000) / 100), int64(i)}
	}
	if err := db.CreateTable("big", []Column{
		{Name: "g", Type: Int64},
		{Name: "v", Type: Int64},
		{Name: "pad", Type: Int64},
	}, ClusterOn("g"), rows); err != nil {
		t.Fatal(err)
	}

	alone, err := db.Optimize(groupedQuery(db))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(alone.Explain(), "HashAggregate") ||
		strings.Contains(alone.Explain(), "partial") {
		t.Fatalf("uncontended query should pick the blocking hash plan:\n%s", alone.Explain())
	}

	// Pin the pool: a concurrent sorting cursor holds a grant from Query
	// until Close, so the optimizer now sees two claimants and expects a
	// fair-share grant of 600 blocks.
	holdPlan, err := db.Optimize(db.Scan("big").OrderBy("g", "v"))
	if err != nil {
		t.Fatal(err)
	}
	hold, err := db.Query(context.Background(), holdPlan)
	if err != nil {
		t.Fatal(err)
	}

	contended, err := db.Optimize(groupedQuery(db))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(contended.Explain(), "partial") ||
		strings.Contains(contended.Explain(), "HashAggregate") {
		t.Fatalf("contended query should flip to the pipelined partial-sort plan:\n%s", contended.Explain())
	}

	if err := hold.Close(); err != nil {
		t.Fatal(err)
	}
	released, err := db.Optimize(groupedQuery(db))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(released.Explain(), "HashAggregate") {
		t.Fatalf("releasing contention should restore the hash plan:\n%s", released.Explain())
	}
}
