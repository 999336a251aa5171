package core

import (
	"slices"
	"testing"

	"pyro/internal/exec"
	"pyro/internal/expr"
	"pyro/internal/logical"
	"pyro/internal/sortord"
)

// TestPrefixCostEqualsTotalAtFullDrain pins the acceptance identity
// Prefix(N) ≡ Total for whole optimized plan trees: costing the full
// result through the prefix machinery must agree exactly with the
// full-drain totals, so unlimited plan choices cannot drift.
func TestPrefixCostEqualsTotalAtFullDrain(t *testing.T) {
	f := newFixture(t)
	f.buildQ3World(t, 30, 6)
	for _, h := range []Heuristic{HeuristicArbitrary, HeuristicFavorable, HeuristicExhaustive} {
		res := mustOptimize(t, f.q3(t), DefaultOptions(h))
		res.Plan.Walk(func(p *Plan) {
			if p.Rows > 0 {
				if got := p.PrefixCost(p.Rows); got != p.Cost.Total {
					t.Fatalf("%v: %v PrefixCost(Rows=%d) = %f, want Total %f",
						h, p.Kind, p.Rows, got, p.Cost.Total)
				}
			}
			if p.Cost.Startup > p.Cost.Total {
				t.Fatalf("%v: %v Startup %f exceeds Total %f", h, p.Kind, p.Cost.Startup, p.Cost.Total)
			}
		})
	}
}

// TestRowTargetDoesNotChangeUnlimitedChoice: optimizing with RowTarget = N
// (or more) must produce the same plan shape as the plain full-drain
// optimization, because Prefix(N) ≡ Total.
func TestRowTargetDoesNotChangeUnlimitedChoice(t *testing.T) {
	f := newFixture(t)
	f.buildQ3World(t, 30, 6)
	base := mustOptimize(t, f.q3(t), DefaultOptions(HeuristicFavorable))
	opts := DefaultOptions(HeuristicFavorable)
	opts.RowTarget = 1 << 40 // beyond any cardinality in the tree
	targeted := mustOptimize(t, f.q3(t), opts)
	if base.Plan.Signature() != targeted.Plan.Signature() {
		t.Fatalf("huge row target changed the plan:\n--- base:\n%s\n--- targeted:\n%s",
			base.Plan.Format(), targeted.Plan.Format())
	}
	if base.Plan.Cost != targeted.Plan.Cost {
		t.Fatalf("huge row target changed the cost: %+v vs %+v", base.Plan.Cost, targeted.Plan.Cost)
	}
}

// TestPartialSortEnforcerTwoPhase pins the enforcer's cost split: a partial
// sort's startup is one segment of input plus one segment sort — far below
// its total — while the forced full sort of the same input blocks on
// everything; and the partial enforcer's PrefixCost steps by SegmentBudget.
func TestPartialSortEnforcerTwoPhase(t *testing.T) {
	f := newFixture(t)
	f.buildQ3World(t, 40, 8)
	// partsupp is clustered on (ps_partkey, ps_suppkey); requiring
	// (ps_partkey, ps_availqty) forces a partial sort over the ps_partkey
	// prefix.
	scan := logical.NewScan(mustTable(f.cat, "partsupp"))
	root := logical.NewOrderBy(scan, sortord.New("ps_partkey", "ps_availqty"))

	res := mustOptimize(t, root, DefaultOptions(HeuristicFavorable))
	sortNode := res.Plan
	if !sortNode.IsPartialSort() {
		t.Fatalf("expected a partial-sort root:\n%s", res.Plan.Format())
	}
	if sortNode.Sort.Segments <= 1 {
		t.Fatalf("partial sort recorded %d segments", sortNode.Sort.Segments)
	}
	if sortNode.Cost.Startup >= sortNode.Cost.Total {
		t.Fatalf("partial sort should be pipelined: startup %f, total %f",
			sortNode.Cost.Startup, sortNode.Cost.Total)
	}

	full := mustOptimizeWith(t, root, DefaultOptions(HeuristicFavorable), withNoPartialSort())
	if full.Plan.IsPartialSort() {
		t.Fatalf("ablation still chose a partial sort:\n%s", full.Plan.Format())
	}
	if full.Plan.Cost.Startup < full.Plan.Children[0].Cost.Total {
		t.Fatalf("full sort must block on its whole input: startup %f, child total %f",
			full.Plan.Cost.Startup, full.Plan.Children[0].Cost.Total)
	}

	// PrefixCost is monotone and steps with the segment budget.
	prev := 0.0
	for k := int64(0); k <= sortNode.Rows+10; k += sortNode.Rows / 7 {
		got := sortNode.PrefixCost(k)
		if got < prev {
			t.Fatalf("PrefixCost not monotone at k=%d: %f < %f", k, got, prev)
		}
		prev = got
	}
	// At tiny k, the pipelined enforcer must be far cheaper than the
	// blocking one.
	if p, fl := sortNode.PrefixCost(1), full.Plan.PrefixCost(1); p >= fl {
		t.Fatalf("first-row cost: partial %f should beat full %f", p, fl)
	}
}

func withNoPartialSort() func(*Options) {
	return func(o *Options) { o.DisablePartialSort = true }
}

// TestLimitPlansUnderRowBudget: a LIMIT K node prices its subtree at the
// first K rows (total = child prefix cost) and LIMIT 0 is a childless,
// zero-cost plan — no degenerate sort below it.
func TestLimitPlansUnderRowBudget(t *testing.T) {
	f := newFixture(t)
	f.buildQ3World(t, 40, 8)
	scan := logical.NewScan(mustTable(f.cat, "partsupp"))
	ordered := logical.NewOrderBy(scan, sortord.New("ps_partkey", "ps_availqty"))

	limited := mustOptimize(t, logical.NewLimit(ordered, 5), DefaultOptions(HeuristicFavorable))
	if limited.Plan.Kind != OpLimit || limited.Plan.LimitK != 5 {
		t.Fatalf("expected a Limit 5 root:\n%s", limited.Plan.Format())
	}
	child := limited.Plan.Children[0]
	if limited.Plan.Cost.Total != child.PrefixCost(5) {
		t.Fatalf("Limit total %f != child PrefixCost(5) %f",
			limited.Plan.Cost.Total, child.PrefixCost(5))
	}
	// The sort under the Limit is bounded by it: it emits 5 rows and its
	// total is already the 5-row cost, far below the unlimited query's.
	if child.Kind != OpSort || child.Sort.Limit != 5 || child.Rows != 5 {
		t.Fatalf("expected a sort bounded at 5 rows under the Limit:\n%s", limited.Plan.Format())
	}
	unlimited := mustOptimize(t, ordered, DefaultOptions(HeuristicFavorable))
	if limited.Plan.Cost.Total >= unlimited.Plan.Cost.Total {
		t.Fatalf("Limit 5 must cost less than the unlimited query: %f vs %f",
			limited.Plan.Cost.Total, unlimited.Plan.Cost.Total)
	}
	// The stepped prefix total can undercut the child's interpolated
	// startup at tiny K; the Limit node must clamp to keep the invariant.
	if limited.Plan.Cost.Startup > limited.Plan.Cost.Total {
		t.Fatalf("Limit plan violates Startup ≤ Total: %+v", limited.Plan.Cost)
	}

	zero := mustOptimize(t, logical.NewLimit(ordered, 0), DefaultOptions(HeuristicFavorable))
	if zero.Plan.Kind != OpLimit || len(zero.Plan.Children) != 0 {
		t.Fatalf("LIMIT 0 should be a childless Limit:\n%s", zero.Plan.Format())
	}
	if zero.Plan.Cost.Total != 0 || zero.Plan.Rows != 0 || zero.Plan.PrefixCost(10) != 0 {
		t.Fatalf("LIMIT 0 cost = %+v rows = %d prefix %f, want zero", zero.Plan.Cost, zero.Plan.Rows, zero.Plan.PrefixCost(10))
	}
	if zero.Plan.CountKind(OpSort) != 0 {
		t.Fatalf("LIMIT 0 planned a sort:\n%s", zero.Plan.Format())
	}
}

func mustOptimizeWith(t *testing.T, root logical.Node, opts Options, muts ...func(*Options)) *Result {
	t.Helper()
	for _, m := range muts {
		m(&opts)
	}
	return mustOptimize(t, root, opts)
}

// TestMergeSideBudget pins the key-granularity budget split of merge-join
// inputs. The correlated-key scenario: a near-unique narrow side joins a
// wide side whose key domain is ten times larger, so only a tenth of the
// wide side's keys ever match. The row-ratio split (scaleBudget) budgets
// the wide side by its share of output rows — 500 rows here — but a
// consumer stopping after 100 of the join's 10k output rows advances past
// just 10 join keys, which is 10 narrow rows and 50 wide rows at the
// sides' own key densities.
func TestMergeSideBudget(t *testing.T) {
	key := []string{"k"}
	out := logical.Props{Rows: 10_000, Distinct: map[string]int64{"k": 1_000}}
	narrow := logical.Props{Rows: 1_000, Distinct: map[string]int64{"k": 1_000}}
	wide := logical.Props{Rows: 50_000, Distinct: map[string]int64{"k": 10_000}}

	if got := mergeSideBudget(100, out, key, narrow, key); got != 10 {
		t.Fatalf("narrow side budget = %d, want 10 (10 keys x 1 row/key)", got)
	}
	if got := mergeSideBudget(100, out, key, wide, key); got != 50 {
		t.Fatalf("wide side budget = %d, want 50 (10 keys x 5 rows/key)", got)
	}
	// The row-ratio split would have over-budgeted the wide side 10x.
	if rr := scaleBudget(100, out.Rows, wide.Rows); rr != 500 {
		t.Fatalf("row-ratio baseline moved: %d, want 500", rr)
	}

	// No budget propagates as no budget; a budget at or past the output
	// cardinality degrades to the whole side.
	if got := mergeSideBudget(0, out, key, wide, key); got != 0 {
		t.Fatalf("zero budget = %d, want 0", got)
	}
	if got := mergeSideBudget(10_000, out, key, wide, key); got != wide.Rows {
		t.Fatalf("full-drain budget = %d, want all %d side rows", got, wide.Rows)
	}
	// Unknown output stats degrade to the conservative unique-key
	// assumption, which reproduces the row-ratio value here.
	if got := mergeSideBudget(100, logical.Props{Rows: 10_000}, key, wide, key); got != 500 {
		t.Fatalf("stat-less output budget = %d, want row-ratio 500", got)
	}
}

// TestLimitBoundReachesOnlyTheSortItSitsOn pins which sorts a Limit bounds
// (Plan.Sort.Limit): the enforcer directly below it or below projections,
// tightened by an enclosing Limit — never a sort under a filter or an
// aggregate, whose cardinality the bound says nothing about, never a sort
// under another sort, which needs every row, and never on the strength of a
// row-target hint. It also pins the execution side: the
// bounded sort emits no more than its bound, and a bounded full sort is
// built as the (empty-prefix) bounded collector.
func TestLimitBoundReachesOnlyTheSortItSitsOn(t *testing.T) {
	f := newFixture(t)
	f.buildQ3World(t, 40, 8)
	scan := logical.NewScan(mustTable(f.cat, "partsupp"))
	order := sortord.New("ps_partkey", "ps_availqty")
	opts := DefaultOptions(HeuristicFavorable)

	// allSortLimits lists the Sort.Limit of every sort, outermost first.
	allSortLimits := func(root logical.Node, opts Options) (*Plan, []int64) {
		t.Helper()
		plan := mustOptimize(t, root, opts).Plan
		var limits []int64
		plan.Walk(func(p *Plan) {
			if p.Kind == OpSort {
				limits = append(limits, p.Sort.Limit)
			}
		})
		return plan, limits
	}
	sortLimits := func(root logical.Node, opts Options) (*Plan, []int64) {
		t.Helper()
		plan, limits := allSortLimits(root, opts)
		if len(limits) != 1 {
			t.Fatalf("expected exactly one sort:\n%s", plan.Format())
		}
		return plan, limits
	}

	cases := []struct {
		name string
		root logical.Node
		want int64
	}{
		{"direct", logical.NewLimit(logical.NewOrderBy(scan, order), 5), 5},
		{"through a projection", logical.NewLimit(logical.NewOrderBy(
			logical.NewProjectNames(scan, []string{"ps_partkey", "ps_availqty"}), order), 5), 5},
		{"through a projection above the order-by", logical.NewLimit(logical.NewProjectNames(
			logical.NewOrderBy(scan, order), []string{"ps_partkey", "ps_availqty"}), 5), 5},
		{"nested limits take the tighter", logical.NewLimit(logical.NewLimit(logical.NewOrderBy(scan, order), 50), 5), 5},
		{"bound at the input's rows is no bound", logical.NewLimit(logical.NewOrderBy(scan, order), 320), 0},
		{"not through a filter", logical.NewLimit(logical.NewSelect(logical.NewOrderBy(scan, order),
			expr.Compare(expr.GT, expr.Col("ps_availqty"), expr.IntLit(20))), 5), 0},
	}
	for _, tc := range cases {
		plan, limits := sortLimits(tc.root, opts)
		if limits[0] != tc.want {
			t.Fatalf("%s: Sort.Limit = %d, want %d\n%s", tc.name, limits[0], tc.want, plan.Format())
		}
		rows := execPlan(t, f, plan)
		if want := int(plan.Rows); len(rows) != want {
			t.Fatalf("%s: executed %d rows, plan says %d", tc.name, len(rows), want)
		}
	}

	// Stacked order-bys: only the outer sort may stop at the bound — the
	// first 5 rows by availqty can be anywhere in the inner sort's output.
	byQty := sortord.New("ps_availqty")
	stacked := []struct {
		name string
		root logical.Node
		want []int64 // outermost sort first
	}{
		{"order-by over order-by", logical.NewLimit(logical.NewOrderBy(logical.NewOrderBy(scan, order), byQty), 5),
			[]int64{5, 0}},
		{"each limit bounds its own order-by", logical.NewLimit(logical.NewOrderBy(
			logical.NewLimit(logical.NewOrderBy(scan, order), 50), byQty), 5), []int64{5, 50}},
		{"an outer limit does not tighten a sort below a re-sort", logical.NewLimit(logical.NewOrderBy(
			logical.NewLimit(logical.NewOrderBy(scan, order), 5), byQty), 50), []int64{0, 5}},
	}
	for _, tc := range stacked {
		plan, limits := allSortLimits(tc.root, opts)
		if !slices.Equal(limits, tc.want) {
			t.Fatalf("%s: Sort.Limits = %v, want %v\n%s", tc.name, limits, tc.want, plan.Format())
		}
		if rows := execPlan(t, f, plan); len(rows) != int(plan.Rows) {
			t.Fatalf("%s: executed %d rows, plan says %d", tc.name, len(rows), plan.Rows)
		}
	}

	// A row target steers plan choice but promises nothing.
	hinted := opts
	hinted.RowTarget = 5
	if plan, limits := sortLimits(logical.NewOrderBy(scan, order), hinted); limits[0] != 0 {
		t.Fatalf("a row-target hint bounded the sort:\n%s", plan.Format())
	}

	// A bounded full sort (no usable prefix) runs as one bounded segment.
	full, limits := sortLimits(logical.NewLimit(logical.NewOrderBy(scan, sortord.New("ps_availqty")), 5), opts)
	if limits[0] != 5 {
		t.Fatalf("full sort under a Limit is not bounded:\n%s", full.Format())
	}
	op, err := Build(full, BuildConfig{Disk: f.disk, SortMemoryBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(op)
	if err != nil || len(rows) != 5 {
		t.Fatalf("bounded full sort: %d rows, err %v", len(rows), err)
	}
	st := exec.CollectSorts(op)[0].SortStats()
	if st.Segments != 1 || st.TuplesOut != 5 || st.RunsGenerated != 0 {
		t.Fatalf("bounded full sort should be one in-memory bounded segment: %+v", st)
	}
}
