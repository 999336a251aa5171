package core

import (
	"sort"
	"testing"

	"pyro/internal/catalog"
	"pyro/internal/exec"
	"pyro/internal/expr"
	"pyro/internal/logical"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// fixture bundles a catalog and its disk for optimizer tests.
type fixture struct {
	cat  *catalog.Catalog
	disk *storage.Disk
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	// The disk's page size must match the cost model's (4 KiB): plan
	// Blocks mix actual file pages (scans) with model-derived estimates
	// (intermediate results), so differing units would misprice sorts.
	d := storage.NewDisk(0)
	return &fixture{cat: catalog.New(d), disk: d}
}

// buildQ3World loads a miniature of the paper's Query 3 environment.
func (f *fixture) buildQ3World(t *testing.T, parts, supps int64) {
	t.Helper()
	psSchema := types.NewSchema(
		types.Column{Name: "ps_partkey", Kind: types.KindInt},
		types.Column{Name: "ps_suppkey", Kind: types.KindInt},
		types.Column{Name: "ps_availqty", Kind: types.KindInt},
	)
	// As in the paper, lineitem is clustered on its own primary key
	// (l_orderkey), NOT on the join attributes — the join order must be
	// produced by indices or sorting.
	liSchema := types.NewSchema(
		types.Column{Name: "l_orderkey", Kind: types.KindInt},
		types.Column{Name: "l_partkey", Kind: types.KindInt},
		types.Column{Name: "l_suppkey", Kind: types.KindInt},
		types.Column{Name: "l_quantity", Kind: types.KindInt},
		types.Column{Name: "l_linestatus", Kind: types.KindString, Width: 1},
	)
	var psRows, liRows []types.Tuple
	orderkey := int64(0)
	for p := int64(0); p < parts; p++ {
		for s := int64(0); s < supps; s++ {
			psRows = append(psRows, types.NewTuple(
				types.NewInt(p), types.NewInt(s), types.NewInt((p*7+s)%50+10)))
			// Several lineitems per (part, supp).
			for k := int64(0); k < 3; k++ {
				status := "O"
				if (p+s+k)%3 == 0 {
					status = "F"
				}
				orderkey = (orderkey*2654435761 + 1) % 1000003 // scatter
				liRows = append(liRows, types.NewTuple(
					types.NewInt(orderkey), types.NewInt(p), types.NewInt(s),
					types.NewInt(k*5+1), types.NewString(status)))
			}
		}
	}
	ps, err := f.cat.CreateTable("partsupp", psSchema, sortord.New("ps_partkey", "ps_suppkey"), psRows)
	if err != nil {
		t.Fatal(err)
	}
	li, err := f.cat.CreateTable("lineitem", liSchema, sortord.New("l_orderkey"), liRows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.cat.CreateIndex("ps_sk", ps, sortord.New("ps_suppkey"), []string{"ps_partkey", "ps_availqty"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.cat.CreateIndex("li_sk", li, sortord.New("l_suppkey"), []string{"l_partkey", "l_quantity", "l_linestatus"}); err != nil {
		t.Fatal(err)
	}
}

// q3 assembles the paper's Query 3.
func (f *fixture) q3(t *testing.T) logical.Node {
	t.Helper()
	ps := logical.NewScan(mustTable(f.cat, "partsupp"))
	li := logical.NewScan(mustTable(f.cat, "lineitem"))
	liF := logical.NewSelect(li, expr.Eq(expr.Col("l_linestatus"), expr.StrLit("O")))
	join := logical.NewJoin(ps, liF, expr.AndOf(
		expr.Eq(expr.Col("ps_suppkey"), expr.Col("l_suppkey")),
		expr.Eq(expr.Col("ps_partkey"), expr.Col("l_partkey")),
	), exec.InnerJoin)
	gb := logical.NewGroupBy(join,
		[]string{"ps_availqty", "ps_partkey", "ps_suppkey"},
		[]logical.AggSpec{{Name: "total_qty", Func: exec.AggSum, Arg: expr.Col("l_quantity")}})
	having := logical.NewSelect(gb, expr.Compare(expr.GT, expr.Col("total_qty"), expr.Col("ps_availqty")))
	return logical.NewOrderBy(having, sortord.New("ps_partkey"))
}

func mustOptimize(t *testing.T, root logical.Node, opts Options) *Result {
	t.Helper()
	res, err := Optimize(root, opts)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	return res
}

func execPlan(t *testing.T, f *fixture, p *Plan) []types.Tuple {
	t.Helper()
	op, err := Build(p, BuildConfig{Disk: f.disk, SortMemoryBlocks: 64})
	if err != nil {
		t.Fatalf("Build: %v\n%s", err, p.Format())
	}
	rows, err := exec.Drain(op)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, p.Format())
	}
	return rows
}

// canonicalize sorts rows by their encoding for set comparison.
func canonicalize(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	var buf []byte
	for i, r := range rows {
		buf = r.Encode(buf[:0])
		out[i] = string(buf)
	}
	sort.Strings(out)
	return out
}

func TestOptimizeQ3AllHeuristicsAgreeOnResults(t *testing.T) {
	f := newFixture(t)
	f.buildQ3World(t, 12, 4)
	root := f.q3(t)
	var reference []string
	for _, h := range []Heuristic{HeuristicArbitrary, HeuristicFavorableExact, HeuristicPostgres, HeuristicFavorable, HeuristicExhaustive} {
		res := mustOptimize(t, root, DefaultOptions(h))
		rows := execPlan(t, f, res.Plan)
		got := canonicalize(rows)
		if reference == nil {
			reference = got
			if len(reference) == 0 {
				t.Fatal("query returned no rows — fixture broken")
			}
			continue
		}
		if len(got) != len(reference) {
			t.Fatalf("%v returned %d rows, reference %d", h, len(got), len(reference))
		}
		for i := range got {
			if got[i] != reference[i] {
				t.Fatalf("%v results differ from reference at row %d", h, i)
			}
		}
	}
}

func TestOptimizeQ3OutputIsSorted(t *testing.T) {
	f := newFixture(t)
	f.buildQ3World(t, 12, 4)
	root := f.q3(t)
	res := mustOptimize(t, root, DefaultOptions(HeuristicFavorable))
	rows := execPlan(t, f, res.Plan)
	ord := res.Plan.Schema.MustOrdinal("ps_partkey")
	for i := 1; i < len(rows); i++ {
		if rows[i-1][ord].Compare(rows[i][ord]) > 0 {
			t.Fatal("ORDER BY ps_partkey violated")
		}
	}
}

func TestHeuristicCostOrdering(t *testing.T) {
	// Fig 15's shape: cost(PYRO-E) ≤ cost(PYRO-O) ≤ cost(PYRO-P) and all
	// ≤ cost(PYRO). (PYRO-O⁻ sits between PYRO-O and PYRO.)
	f := newFixture(t)
	f.buildQ3World(t, 20, 5)
	root := f.q3(t)
	costs := map[Heuristic]float64{}
	for _, h := range []Heuristic{HeuristicArbitrary, HeuristicFavorableExact, HeuristicPostgres, HeuristicFavorable, HeuristicExhaustive} {
		res := mustOptimize(t, root, DefaultOptions(h))
		costs[h] = res.Plan.Cost.Total
	}
	if costs[HeuristicExhaustive] > costs[HeuristicFavorable]+1e-9 {
		t.Fatalf("PYRO-E (%f) must not exceed PYRO-O (%f)", costs[HeuristicExhaustive], costs[HeuristicFavorable])
	}
	if costs[HeuristicFavorable] > costs[HeuristicPostgres]+1e-9 {
		t.Fatalf("PYRO-O (%f) must not exceed PYRO-P (%f)", costs[HeuristicFavorable], costs[HeuristicPostgres])
	}
	if costs[HeuristicFavorable] > costs[HeuristicArbitrary]+1e-9 {
		t.Fatalf("PYRO-O (%f) must not exceed PYRO (%f)", costs[HeuristicFavorable], costs[HeuristicArbitrary])
	}
	if costs[HeuristicFavorable] > costs[HeuristicFavorableExact]+1e-9 {
		t.Fatalf("PYRO-O (%f) must not exceed PYRO-O- (%f)", costs[HeuristicFavorable], costs[HeuristicFavorableExact])
	}
}

func TestPartialSortEnforcerChosen(t *testing.T) {
	// Among sort-based plans (hash operators disabled, as in the paper's
	// forced merge-join comparison), the favorable-order optimizer should
	// exploit the covering indices' suppkey prefixes with partial sorts
	// rather than full sorts.
	// Large enough that the lineitem sort is external under a 4-block
	// memory budget (the paper's effect needs B(e) > M; with everything
	// in memory a full CPU sort can legitimately win).
	f := newFixture(t)
	f.buildQ3World(t, 200, 10)
	root := f.q3(t)
	opts := DefaultOptions(HeuristicFavorable)
	opts.Model.MemoryBlocks = 4 // make full sorts expensive
	opts.DisableHashJoin = true
	opts.DisableHashAgg = true
	res := mustOptimize(t, root, opts)
	partial, full := 0, 0
	res.Plan.Walk(func(p *Plan) {
		if p.Kind == OpSort {
			if p.IsPartialSort() {
				partial++
			} else {
				full++
			}
		}
	})
	if partial == 0 {
		t.Fatalf("expected a partial sort in the PYRO-O plan:\n%s", res.Plan.Format())
	}
	// The ablation (PYRO-O⁻) must not contain partial sorts.
	resMinus := mustOptimize(t, root, DefaultOptions(HeuristicFavorableExact))
	resMinus.Plan.Walk(func(p *Plan) {
		if p.IsPartialSort() {
			t.Fatalf("PYRO-O- must not use partial sorts:\n%s", resMinus.Plan.Format())
		}
	})
}

func TestForcedPlanShapes(t *testing.T) {
	f := newFixture(t)
	f.buildQ3World(t, 12, 4)
	root := f.q3(t)
	// Force a hash-join plan (SYS1's default in Fig 11a).
	optsH := DefaultOptions(HeuristicFavorable)
	optsH.DisableMergeJoin = true
	resH := mustOptimize(t, root, optsH)
	if resH.Plan.CountKind(OpHashJoin) == 0 {
		t.Fatalf("expected hash join:\n%s", resH.Plan.Format())
	}
	// Force a merge-join plan (Fig 11b).
	optsM := DefaultOptions(HeuristicFavorable)
	optsM.DisableHashJoin = true
	resM := mustOptimize(t, root, optsM)
	if resM.Plan.CountKind(OpMergeJoin) == 0 {
		t.Fatalf("expected merge join:\n%s", resM.Plan.Format())
	}
	// Both must produce identical results.
	a := canonicalize(execPlan(t, f, resH.Plan))
	b := canonicalize(execPlan(t, f, resM.Plan))
	if len(a) != len(b) {
		t.Fatalf("forced plans disagree: %d vs %d rows", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("forced plans disagree on content")
		}
	}
}

// q4World builds the R1/R2/R3 environment of Experiment B2.
func (f *fixture) q4World(t *testing.T, rows int64) (r1, r2, r3 *catalog.Table) {
	t.Helper()
	mk := func(name, prefix string) *catalog.Table {
		schema := types.NewSchema(
			types.Column{Name: prefix + "c1", Kind: types.KindInt},
			types.Column{Name: prefix + "c2", Kind: types.KindInt},
			types.Column{Name: prefix + "c3", Kind: types.KindInt},
			types.Column{Name: prefix + "c4", Kind: types.KindInt},
			types.Column{Name: prefix + "c5", Kind: types.KindInt},
		)
		var data []types.Tuple
		for i := int64(0); i < rows; i++ {
			data = append(data, types.NewTuple(
				types.NewInt(i%17), types.NewInt(i%5), types.NewInt(i%11),
				types.NewInt(i%7), types.NewInt(i%13),
			))
		}
		tb, err := f.cat.CreateTable(name, schema, sortord.Empty, data)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	return mk("r1", "a_"), mk("r2", "b_"), mk("r3", "c_")
}

// q4 assembles Experiment B2's Query 4: two full outer joins sharing the
// attributes c4 and c5.
func (f *fixture) q4(t *testing.T) logical.Node {
	t.Helper()
	r1 := logical.NewScan(mustTable(f.cat, "r1"))
	r2 := logical.NewScan(mustTable(f.cat, "r2"))
	r3 := logical.NewScan(mustTable(f.cat, "r3"))
	j1 := logical.NewJoin(r1, r2, expr.AndOf(
		expr.Eq(expr.Col("a_c5"), expr.Col("b_c5")),
		expr.Eq(expr.Col("a_c4"), expr.Col("b_c4")),
		expr.Eq(expr.Col("a_c3"), expr.Col("b_c3")),
	), exec.FullOuterJoin)
	j2 := logical.NewJoin(j1, r3, expr.AndOf(
		expr.Eq(expr.Col("c_c1"), expr.Col("a_c1")),
		expr.Eq(expr.Col("c_c4"), expr.Col("a_c4")),
		expr.Eq(expr.Col("c_c5"), expr.Col("a_c5")),
	), exec.FullOuterJoin)
	return j2
}

func TestPhase2SharesPrefixAcrossJoins(t *testing.T) {
	f := newFixture(t)
	f.q4World(t, 300)
	root := f.q4(t)
	res := mustOptimize(t, root, DefaultOptions(HeuristicFavorable))
	if !res.Stats.Phase2Applied {
		t.Fatal("phase 2 should run on a two-join plan")
	}
	// Collect merge join keys; the two joins share {c4, c5} and phase 2
	// should give their permutations a common 2-attribute prefix.
	var keys []sortord.Order
	res.Plan.Walk(func(p *Plan) {
		if p.Kind == OpMergeJoin {
			keys = append(keys, p.LeftKey)
		}
	})
	if len(keys) != 2 {
		t.Fatalf("expected 2 merge joins, got %d:\n%s", len(keys), res.Plan.Format())
	}
	// Compare on base attribute suffix (strip the table prefix a_/b_/c_).
	strip := func(o sortord.Order) []string {
		out := make([]string, len(o))
		for i, a := range o {
			out[i] = a[len(a)-2:]
		}
		return out
	}
	k0, k1 := strip(keys[0]), strip(keys[1])
	shared := 0
	for i := 0; i < len(k0) && i < len(k1); i++ {
		if k0[i] != k1[i] {
			break
		}
		shared++
	}
	if shared < 2 {
		t.Fatalf("joins should share a 2-attribute prefix after phase 2: %v vs %v\n%s",
			keys[0], keys[1], res.Plan.Format())
	}
}

func TestPhase2NeverWorsensCost(t *testing.T) {
	f := newFixture(t)
	f.q4World(t, 200)
	root := f.q4(t)
	with := mustOptimize(t, root, DefaultOptions(HeuristicFavorable))
	optsNo := DefaultOptions(HeuristicFavorable)
	optsNo.DisablePhase2 = true
	without := mustOptimize(t, root, optsNo)
	if with.Plan.Cost.Total > without.Plan.Cost.Total+1e-9 {
		t.Fatalf("phase 2 made the plan worse: %f > %f", with.Plan.Cost.Total, without.Plan.Cost.Total)
	}
}

func TestQ4ExecutionAgreesAcrossHeuristics(t *testing.T) {
	f := newFixture(t)
	f.q4World(t, 120)
	root := f.q4(t)
	var reference []string
	for _, h := range []Heuristic{HeuristicArbitrary, HeuristicFavorable} {
		res := mustOptimize(t, root, DefaultOptions(h))
		got := canonicalize(execPlan(t, f, res.Plan))
		if reference == nil {
			reference = got
			continue
		}
		if len(got) != len(reference) {
			t.Fatalf("%v: %d rows vs reference %d", h, len(got), len(reference))
		}
		for i := range got {
			if got[i] != reference[i] {
				t.Fatalf("%v differs at row %d", h, i)
			}
		}
	}
}

func TestFullOuterJoinUsesMergeEvenWithHashEnabled(t *testing.T) {
	f := newFixture(t)
	f.q4World(t, 100)
	root := f.q4(t)
	res := mustOptimize(t, root, DefaultOptions(HeuristicFavorable))
	if res.Plan.CountKind(OpHashJoin) != 0 {
		t.Fatal("full outer joins must not use hash join")
	}
	if res.Plan.CountKind(OpMergeJoin) != 2 {
		t.Fatalf("expected two merge joins:\n%s", res.Plan.Format())
	}
}

func TestDeterminingSubsetFD(t *testing.T) {
	// The Query 3 FD: {ps_partkey, ps_suppkey} → ps_availqty means the
	// aggregate's interesting orders only involve partkey and suppkey.
	f := newFixture(t)
	f.buildQ3World(t, 12, 4)
	root := f.q3(t)
	res := mustOptimize(t, root, DefaultOptions(HeuristicFavorable))
	res.Plan.Walk(func(p *Plan) {
		if p.Kind == OpGroupAgg {
			for _, a := range p.OutOrder {
				if a == "ps_availqty" {
					t.Fatalf("FD-determined column in the aggregate's input order: %v", p.OutOrder)
				}
			}
		}
	})
}

func TestOptimizeStatsPopulated(t *testing.T) {
	f := newFixture(t)
	f.buildQ3World(t, 8, 3)
	root := f.q3(t)
	res := mustOptimize(t, root, DefaultOptions(HeuristicExhaustive))
	if res.Stats.GoalsExplored == 0 || res.Stats.PlansCosted == 0 || res.Stats.OrdersTried == 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
	// Exhaustive must try at least as many orders as favorable.
	resO := mustOptimize(t, root, DefaultOptions(HeuristicFavorable))
	if res.Stats.OrdersTried < resO.Stats.OrdersTried {
		t.Fatalf("PYRO-E tried %d orders, PYRO-O %d", res.Stats.OrdersTried, resO.Stats.OrdersTried)
	}
}

func TestDistinctAndUnionPlans(t *testing.T) {
	f := newFixture(t)
	f.buildQ3World(t, 10, 3)
	ps := mustTable(f.cat, "partsupp")

	// DISTINCT over a projection: a group-by over every column.
	proj := logical.NewProjectNames(logical.NewScan(ps), []string{"ps_suppkey", "ps_partkey"})
	dist := logical.NewGroupBy(proj, proj.Schema().Names(), nil)
	root := logical.NewOrderBy(dist, sortord.New("ps_suppkey"))
	res := mustOptimize(t, root, DefaultOptions(HeuristicFavorable))
	rows := execPlan(t, f, res.Plan)
	if len(rows) != 30 {
		t.Fatalf("distinct rows = %d, want 30", len(rows))
	}
	ord := res.Plan.Schema.MustOrdinal("ps_suppkey")
	for i := 1; i < len(rows); i++ {
		if rows[i-1][ord].Compare(rows[i][ord]) > 0 {
			t.Fatal("distinct output not sorted as required")
		}
	}

	// UNION of two projections of the same table: DISTINCT over UNION ALL.
	l := logical.NewProjectNames(logical.NewScan(ps), []string{"ps_partkey", "ps_suppkey"})
	r := logical.NewProjectNames(logical.NewScan(ps), []string{"ps_partkey", "ps_suppkey"})
	ua := logical.NewUnion(l, r)
	u := logical.NewGroupBy(ua, ua.Schema().Names(), nil)
	uRes := mustOptimize(t, logical.NewOrderBy(u, sortord.New("ps_partkey")), DefaultOptions(HeuristicFavorable))
	uRows := execPlan(t, f, uRes.Plan)
	if len(uRows) != 30 {
		t.Fatalf("union dedup rows = %d, want 30", len(uRows))
	}
	if uRes.Plan.CountKind(OpMergeUnion) == 0 {
		t.Fatalf("expected a merge union:\n%s", uRes.Plan.Format())
	}

	// UNION ALL.
	uaRes := mustOptimize(t, ua, DefaultOptions(HeuristicFavorable))
	uaRows := execPlan(t, f, uaRes.Plan)
	if len(uaRows) != 60 {
		t.Fatalf("union all rows = %d, want 60", len(uaRows))
	}
}

func TestNLJoinForNonEquiPredicate(t *testing.T) {
	f := newFixture(t)
	f.q4World(t, 40)
	r1 := logical.NewScan(mustTable(f.cat, "r1"))
	r2 := logical.NewScan(mustTable(f.cat, "r2"))
	j := logical.NewJoin(r1, r2, expr.Compare(expr.LT, expr.Col("a_c1"), expr.Col("b_c1")), exec.InnerJoin)
	res := mustOptimize(t, j, DefaultOptions(HeuristicFavorable))
	if res.Plan.CountKind(OpNLJoin) == 0 {
		t.Fatalf("non-equijoin needs nested loops:\n%s", res.Plan.Format())
	}
	rows := execPlan(t, f, res.Plan)
	// Verify against a direct count.
	want := 0
	r1Rows, _ := storage.ReadAll(mustTable(f.cat, "r1").File())
	r2Rows, _ := storage.ReadAll(mustTable(f.cat, "r2").File())
	for _, a := range r1Rows {
		for _, b := range r2Rows {
			if a[0].Int() < b[0].Int() {
				want++
			}
		}
	}
	if len(rows) != want {
		t.Fatalf("NL join rows = %d, want %d", len(rows), want)
	}
}

func TestPlanFormatAndSignature(t *testing.T) {
	f := newFixture(t)
	f.buildQ3World(t, 8, 3)
	root := f.q3(t)
	res := mustOptimize(t, root, DefaultOptions(HeuristicFavorable))
	s := res.Plan.Format()
	if s == "" || res.Plan.Signature() == "" {
		t.Fatal("plan rendering empty")
	}
	if res.Plan.LocalCost() < 0 {
		t.Fatalf("local cost negative: %f", res.Plan.LocalCost())
	}
}

func TestMemoizationReusesGoals(t *testing.T) {
	f := newFixture(t)
	f.buildQ3World(t, 8, 3)
	root := f.q3(t)
	// Optimizing the same tree twice in one optimizer is not exposed;
	// instead verify the same logical node with the same requirement is
	// not exploded: goals explored must stay well under plans costed
	// with the exhaustive heuristic on a 2-attribute join (2! orders).
	res := mustOptimize(t, root, DefaultOptions(HeuristicExhaustive))
	if res.Stats.GoalsExplored > 200 {
		t.Fatalf("memoization broken: %d goals for a two-table query", res.Stats.GoalsExplored)
	}
}

func TestRequiredOrderOnGeneratedColumnFallsBack(t *testing.T) {
	// ORDER BY a computed projection column: the requirement cannot be
	// pushed below the Project, so an enforcer must appear above it.
	f := newFixture(t)
	f.buildQ3World(t, 8, 3)
	ps := logical.NewScan(mustTable(f.cat, "partsupp"))
	proj := logical.NewProject(ps, []logical.ProjCol{
		{Name: "x", Expr: expr.Arith{Op: expr.Mul, L: expr.Col("ps_partkey"), R: expr.IntLit(2)}},
		{Name: "ps_suppkey", Expr: expr.Col("ps_suppkey")},
	})
	root := logical.NewOrderBy(proj, sortord.New("x"))
	res := mustOptimize(t, root, DefaultOptions(HeuristicFavorable))
	rows := execPlan(t, f, res.Plan)
	ord := res.Plan.Schema.MustOrdinal("x")
	for i := 1; i < len(rows); i++ {
		if rows[i-1][ord].Compare(rows[i][ord]) > 0 {
			t.Fatal("computed-column order violated")
		}
	}
	if res.Plan.CountKind(OpSort) == 0 {
		t.Fatal("expected an explicit sort above the projection")
	}
}

// mustTable fetches a table the test fixture itself created; a lookup
// failure is a fixture bug, not a condition under test.
func mustTable(c *catalog.Catalog, name string) *catalog.Table {
	tb, err := c.Table(name)
	if err != nil {
		panic(err)
	}
	return tb
}
