package pyro

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"pyro/internal/storage"
)

// resultRows is a query's whole result.
type resultRows struct {
	Columns []string
	Data    [][]any
}

// queryAll drains a Query cursor over p: what a test that compares whole
// results does with the streaming API.
func queryAll(db *Database, p *Plan) (*resultRows, error) {
	cur, err := db.Query(context.Background(), p)
	if err != nil {
		return nil, err
	}
	out := &resultRows{Columns: cur.Columns(), Data: make([][]any, 0)}
	for cur.Next() {
		out.Data = append(out.Data, cur.Row())
	}
	if err := cur.Err(); err != nil {
		return nil, errors.Join(err, cur.Close())
	}
	return out, cur.Close()
}

// openTestDB loads a small two-table database exercising clustering,
// covering indices and all query-builder verbs.
func openTestDB(t *testing.T) *Database {
	t.Helper()
	return openTestDBWith(t, Config{SortMemoryBlocks: 64})
}

// openTestDBWith is openTestDB opened under cfg.
func openTestDBWith(t *testing.T, cfg Config) *Database {
	t.Helper()
	db := Open(cfg)
	t.Cleanup(func() { storage.AssertNoLeaks(t, db.disk) })
	var orders, items [][]any
	for i := 0; i < 200; i++ {
		orders = append(orders, []any{int64(i), int64(i % 10), "status-" + string(rune('A'+i%3))})
		for k := 0; k < 3; k++ {
			items = append(items, []any{int64(i), int64(k), int64((i*k)%50 + 1), float64(i%7) + 0.5})
		}
	}
	if err := db.CreateTable("orders", []Column{
		{Name: "o_id", Type: Int64},
		{Name: "o_cust", Type: Int64},
		{Name: "o_status", Type: String, Width: 10},
	}, ClusterOn("o_id"), orders); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("items", []Column{
		{Name: "i_order", Type: Int64},
		{Name: "i_line", Type: Int64},
		{Name: "i_qty", Type: Int64},
		{Name: "i_price", Type: Float64},
	}, ClusterOn("i_order", "i_line"), items); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("items_order", "items", []string{"i_order"}, []string{"i_qty"}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQuickstartFlow(t *testing.T) {
	db := openTestDB(t)
	q := db.Scan("orders").
		Filter(Eq(Col("o_cust"), Int(3))).
		OrderBy("o_id")
	plan, err := db.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.EstimatedCost() <= 0 {
		t.Fatal("cost should be positive")
	}
	if !strings.Contains(plan.Explain(), "Filter") {
		t.Fatalf("Explain:\n%s", plan.Explain())
	}
	rows, err := queryAll(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 20 {
		t.Fatalf("rows = %d, want 20", len(rows.Data))
	}
	prev := int64(-1)
	for _, r := range rows.Data {
		id := r[0].(int64)
		if id < prev {
			t.Fatal("ORDER BY violated")
		}
		prev = id
		if r[1].(int64) != 3 {
			t.Fatal("filter violated")
		}
	}
	if got := rows.Columns; got[0] != "o_id" {
		t.Fatalf("columns = %v", got)
	}
}

func TestJoinGroupByFlow(t *testing.T) {
	db := openTestDB(t)
	q := db.Scan("orders").
		Join(db.Scan("items"), Eq(Col("o_id"), Col("i_order"))).
		GroupBy([]string{"o_id", "o_cust"},
			Agg{Name: "n", Func: Count},
			Agg{Name: "qty", Func: Sum, Arg: Col("i_qty")},
			Agg{Name: "value", Func: Sum, Arg: Mul(Col("i_qty"), Col("i_price"))}).
		OrderBy("o_id")
	plan, err := db.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := queryAll(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 200 {
		t.Fatalf("groups = %d, want 200", len(rows.Data))
	}
	for _, r := range rows.Data {
		if r[2].(int64) != 3 {
			t.Fatalf("count per order = %v, want 3", r[2])
		}
	}
}

func TestSelfJoinWithAlias(t *testing.T) {
	db := openTestDB(t)
	t1 := db.Scan("orders").As("x_")
	t2 := db.Scan("orders").As("y_")
	q := t1.Join(t2, And(
		Eq(Col("x_o_cust"), Col("y_o_cust")),
		Eq(Col("x_o_status"), Col("y_o_status")),
	))
	plan, err := db.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := queryAll(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) == 0 {
		t.Fatal("self join returned nothing")
	}
}

func TestHeuristicOptionsAffectPlans(t *testing.T) {
	db := openTestDB(t)
	q := db.Scan("orders").
		Join(db.Scan("items"), Eq(Col("o_id"), Col("i_order"))).
		OrderBy("o_id")
	base, err := db.Optimize(q, WithHeuristic(PYROO), WithoutHashJoin())
	if err != nil {
		t.Fatal(err)
	}
	arb, err := db.Optimize(q, WithHeuristic(PYRO), WithoutHashJoin())
	if err != nil {
		t.Fatal(err)
	}
	if base.EstimatedCost() > arb.EstimatedCost()+1e-9 {
		t.Fatalf("PYRO-O (%f) should not exceed PYRO (%f)",
			base.EstimatedCost(), arb.EstimatedCost())
	}
	if base.OptimizerStats().GoalsExplored == 0 {
		t.Fatal("stats should be populated")
	}
}

func TestDistinctUnionLimitlessFlow(t *testing.T) {
	db := openTestDB(t)
	d := db.Scan("orders").Select("o_cust").Distinct().OrderBy("o_cust")
	plan, err := db.Optimize(d)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := queryAll(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 10 {
		t.Fatalf("distinct customers = %d, want 10", len(rows.Data))
	}
	u := db.Scan("orders").Select("o_cust").Union(db.Scan("orders").Select("o_cust")).OrderBy("o_cust")
	uPlan, err := db.Optimize(u)
	if err != nil {
		t.Fatal(err)
	}
	uRows, err := queryAll(db, uPlan)
	if err != nil {
		t.Fatal(err)
	}
	if len(uRows.Data) != 10 {
		t.Fatalf("union customers = %d, want 10", len(uRows.Data))
	}
}

func TestBuilderErrorsStick(t *testing.T) {
	db := openTestDB(t)
	if err := db.Scan("nope").Filter(Eq(Col("x"), Int(1))).Err(); err == nil {
		t.Fatal("missing table should error")
	}
	if _, err := db.Optimize(db.Scan("nope")); err == nil {
		t.Fatal("Optimize must surface builder errors")
	}
	if err := db.Scan("orders").Select("zzz").Err(); err == nil {
		t.Fatal("bad projection should error")
	}
	if err := db.Scan("orders").OrderBy("zzz").Err(); err == nil {
		t.Fatal("bad order column should error")
	}
	if err := db.Scan("orders").GroupBy([]string{"zzz"}).Err(); err == nil {
		t.Fatal("bad group column should error")
	}
	if err := db.Scan("orders").Union(db.Scan("items")).Err(); err == nil {
		t.Fatal("union arity mismatch should error")
	}
	other := Open(Config{})
	other.CreateTable("t", []Column{{Name: "a", Type: Int64}}, nil, nil)
	if err := db.Scan("orders").Join(other.Scan("t"), Eq(Col("o_id"), Col("a"))).Err(); err == nil {
		t.Fatal("cross-database join should error")
	}
}

func TestCreateTableValidation(t *testing.T) {
	db := Open(Config{})
	err := db.CreateTable("t", []Column{{Name: "a", Type: Int64}}, nil,
		[][]any{{int64(1), int64(2)}})
	if err == nil {
		t.Fatal("arity mismatch should error")
	}
	err = db.CreateTable("t", []Column{{Name: "a", Type: Int64}}, nil,
		[][]any{{struct{}{}}})
	if err == nil {
		t.Fatal("unsupported value should error")
	}
	if err := db.CreateIndex("i", "missing", []string{"a"}, nil); err == nil {
		t.Fatal("index on missing table should error")
	}
}

func TestValueConversions(t *testing.T) {
	for _, v := range []any{nil, 1, int64(2), 3.5, "s", true} {
		if _, err := Value(v); err != nil {
			t.Fatalf("Value(%v): %v", v, err)
		}
	}
	if _, err := Value([]int{1}); err == nil {
		t.Fatal("slice should be unsupported")
	}
}

func TestCrossDatabaseExecuteRejected(t *testing.T) {
	db1 := openTestDB(t)
	db2 := openTestDB(t)
	plan, err := db1.Optimize(db1.Scan("orders").OrderBy("o_id"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := queryAll(db2, plan); err == nil {
		t.Fatal("executing another database's plan should error")
	}
}

func TestIOStatsVisible(t *testing.T) {
	db := openTestDB(t)
	db.ResetIOStats()
	plan, err := db.Optimize(db.Scan("items").OrderBy("i_qty"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := queryAll(db, plan); err != nil {
		t.Fatal(err)
	}
	if db.IOStats().PageReads == 0 {
		t.Fatal("execution should charge reads")
	}
}

func TestExprBuilders(t *testing.T) {
	db := openTestDB(t)
	q := db.Scan("orders").Filter(And(
		Or(Eq(Col("o_cust"), Int(1)), Ne(Col("o_cust"), Int(1))),
		Le(Col("o_id"), Int(1000)),
		Ge(Col("o_id"), Int(0)),
		Lt(Col("o_id"), Int(1001)),
		Gt(Col("o_id"), Int(-1)),
		Not(Eq(Col("o_status"), Str("nope"))),
	)).Project(
		Proj{Name: "a", Expr: Add(Col("o_id"), Int(1))},
		Proj{Name: "s", Expr: Sub(Col("o_id"), Int(1))},
		Proj{Name: "m", Expr: Mul(Col("o_id"), Int(2))},
		Proj{Name: "d", Expr: Div(Col("o_id"), Int(2))},
		Proj{Name: "f", Expr: Float(1.5)},
	)
	plan, err := db.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := queryAll(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 200 {
		t.Fatalf("rows = %d", len(rows.Data))
	}
	if q.LogicalString() == "" {
		t.Fatal("LogicalString empty")
	}
}

// TestSpillAwarePlanPricing: no execution setting reaches the optimizer. A
// spilling ORDER BY is priced — and planned — the same whatever sort
// parallelism the database runs with.
func TestSpillAwarePlanPricing(t *testing.T) {
	plan := func(cfg Config) *Plan {
		// Small enough that the ORDER BY sort prices as external, large
		// enough that log_{M-1} stays meaningful.
		cfg.SortMemoryBlocks = 8
		cfg.PageSize = 512
		db := Open(cfg)
		var rows [][]any
		for i := 0; i < 4000; i++ {
			rows = append(rows, []any{int64(i), int64((i * 7919) % 4000)})
		}
		if err := db.CreateTable("t", []Column{
			{Name: "a", Type: Int64},
			{Name: "b", Type: Int64},
		}, ClusterOn("a"), rows); err != nil {
			t.Fatal(err)
		}
		p, err := db.Optimize(db.Scan("t").OrderBy("b", "a"))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ref := plan(Config{})
	if !strings.Contains(ref.Explain(), "Sort") {
		t.Fatalf("the ORDER BY must sort:\n%s", ref.Explain())
	}
	for _, par := range []int{1, 4} {
		got := plan(Config{SortParallelism: par})
		if got.EstimatedCost() != ref.EstimatedCost() || got.Explain() != ref.Explain() {
			t.Fatalf("SortParallelism %d changed the plan: cost %f vs %f\n%s\nvs\n%s",
				par, got.EstimatedCost(), ref.EstimatedCost(), got.Explain(), ref.Explain())
		}
	}
}

// TestNLJoinEmitsNoOuterOrder: a block nested-loops join is inner-major
// within each outer block (for each inner row it scans the block), so even a
// one-block outer comes out in inner order, not outer order. The plan must
// not claim the outer's order: the ORDER BY above it sorts.
func TestNLJoinEmitsNoOuterOrder(t *testing.T) {
	db := Open(Config{SortMemoryBlocks: 64})
	t.Cleanup(func() { storage.AssertNoLeaks(t, db.disk) })
	var as, bs [][]any
	for x := 0; x < 5; x++ {
		as = append(as, []any{int64(x)})
	}
	for _, y := range []int64{0, 10, 20, 30} {
		bs = append(bs, []any{y})
	}
	if err := db.CreateTable("a", []Column{{Name: "x", Type: Int64}}, ClusterOn("x"), as); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("b", []Column{{Name: "y", Type: Int64}}, nil, bs); err != nil {
		t.Fatal(err)
	}
	plan, err := db.Optimize(db.Scan("a").Join(db.Scan("b"), Lt(Col("x"), Col("y"))).OrderBy("x"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "NestedLoopsJoin") {
		t.Fatalf("a non-equijoin must plan a nested-loops join:\n%s", plan.Explain())
	}
	checkInteriorOrders(t, db, plan)
	res, err := queryAll(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	var xs []int64
	for _, r := range res.Data {
		xs = append(xs, r[0].(int64))
	}
	want := []int64{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4}
	if !reflect.DeepEqual(xs, want) {
		t.Fatalf("x = %v, want %v\n%s", xs, want, plan.Explain())
	}
}
