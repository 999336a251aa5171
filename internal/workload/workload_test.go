package workload

import (
	"testing"

	"pyro/internal/catalog"
	"pyro/internal/core"
	"pyro/internal/exec"
	"pyro/internal/logical"
	"pyro/internal/storage"
)

func newCat() *catalog.Catalog {
	return catalog.New(storage.NewDisk(0))
}

func TestBuildTPCHStructure(t *testing.T) {
	cat := newCat()
	cfg := DefaultTPCH()
	cfg.Suppliers, cfg.PartsPerSupplier = 20, 10
	if err := BuildTPCH(cat, cfg); err != nil {
		t.Fatal(err)
	}
	ps := mustTable(cat, "partsupp")
	li := mustTable(cat, "lineitem")
	if ps.Stats.NumRows != 200 {
		t.Fatalf("partsupp rows = %d", ps.Stats.NumRows)
	}
	if li.Stats.NumRows != 200*cfg.LinesPerPair {
		t.Fatalf("lineitem rows = %d", li.Stats.NumRows)
	}
	// The structural properties the experiments rely on:
	if !ps.ClusterOrder.Equal(ps.ClusterOrder) || ps.ClusterOrder.Len() != 2 {
		t.Fatalf("partsupp clustering = %v", ps.ClusterOrder)
	}
	if len(ps.Stats.KeyCols) != 2 {
		t.Fatalf("partsupp clustering must be a verified key: %v", ps.Stats.KeyCols)
	}
	if li.ClusterOrder.Len() != 1 || li.ClusterOrder[0] != "l_orderkey" {
		t.Fatalf("lineitem must cluster on its own key, got %v", li.ClusterOrder)
	}
	if ps.Index("ps_sk") == nil || li.Index("li_sk") == nil {
		t.Fatal("covering indices missing")
	}
	if ps.Stats.Distinct["ps_suppkey"] != 20 {
		t.Fatalf("suppkey distinct = %d", ps.Stats.Distinct["ps_suppkey"])
	}
}

func TestTPCHDeterministic(t *testing.T) {
	build := func() int64 {
		cat := newCat()
		cfg := DefaultTPCH()
		cfg.Suppliers, cfg.PartsPerSupplier = 10, 5
		if err := BuildTPCH(cat, cfg); err != nil {
			t.Fatal(err)
		}
		rows, err := storage.ReadAll(mustTable(cat, "lineitem").File())
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, r := range rows {
			sum = sum*31 + r[3].Int()
		}
		return sum
	}
	if build() != build() {
		t.Fatal("generation must be deterministic")
	}
}

func runsAndReturnsRows(t *testing.T, cat *catalog.Catalog, q logical.Node, minRows int) {
	t.Helper()
	res, err := core.Optimize(q, core.DefaultOptions(core.HeuristicFavorable))
	if err != nil {
		t.Fatal(err)
	}
	op, err := core.Build(res.Plan, core.BuildConfig{Disk: cat.Disk(), SortMemoryBlocks: 32})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < minRows {
		t.Fatalf("query returned %d rows, want >= %d", len(rows), minRows)
	}
}

func TestAllQueriesRunEndToEnd(t *testing.T) {
	{
		cat := newCat()
		cfg := DefaultTPCH()
		cfg.Suppliers, cfg.PartsPerSupplier = 20, 10
		if err := BuildTPCH(cat, cfg); err != nil {
			t.Fatal(err)
		}
		for _, build := range []func(*catalog.Catalog) (logical.Node, error){Query1, Query2, Query3} {
			q, err := build(cat)
			if err != nil {
				t.Fatal(err)
			}
			runsAndReturnsRows(t, cat, q, 1)
		}
	}
	{
		cat := newCat()
		if err := BuildOuterJoinTables(cat, 500, 5); err != nil {
			t.Fatal(err)
		}
		q, err := Query4(cat)
		if err != nil {
			t.Fatal(err)
		}
		runsAndReturnsRows(t, cat, q, 500)
	}
	{
		cat := newCat()
		if _, err := BuildTran(cat, 300, 9); err != nil {
			t.Fatal(err)
		}
		q, err := Query5(cat)
		if err != nil {
			t.Fatal(err)
		}
		runsAndReturnsRows(t, cat, q, 300)
	}
	{
		cat := newCat()
		if err := BuildBasketAnalytics(cat, 500, 400, 13); err != nil {
			t.Fatal(err)
		}
		q, err := Query6(cat)
		if err != nil {
			t.Fatal(err)
		}
		runsAndReturnsRows(t, cat, q, 1)
	}
	{
		cat := newCat()
		if err := BuildExample1(cat, 1000, 3); err != nil {
			t.Fatal(err)
		}
		q, err := Example1Query(cat)
		if err != nil {
			t.Fatal(err)
		}
		runsAndReturnsRows(t, cat, q, 1)
	}
	{
		cat := newCat()
		if err := BuildScalability(cat, 3, 200, 21); err != nil {
			t.Fatal(err)
		}
		q, err := ScalabilityQuery(cat, 3)
		if err != nil {
			t.Fatal(err)
		}
		runsAndReturnsRows(t, cat, q, 1)
	}
}

func TestSegmentTableStructure(t *testing.T) {
	cat := newCat()
	tb, err := BuildSegmentTable(cat, "s", 1000, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Stats.NumRows != 1000 || tb.Stats.Distinct["c1"] != 10 {
		t.Fatalf("stats = %+v", tb.Stats)
	}
	rows, err := storage.ReadAll(tb.File())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].Int() > rows[i][0].Int() {
			t.Fatal("segment table not clustered on c1")
		}
	}
	if _, err := BuildSegmentTable(cat, "bad", 10, 0, 1); err == nil {
		t.Fatal("zero rowsPerC1 should error")
	}
}

func TestTranMatchesExecuted(t *testing.T) {
	cat := newCat()
	tb, err := BuildTran(cat, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := storage.ReadAll(tb.File())
	if err != nil {
		t.Fatal(err)
	}
	news, execs := 0, 0
	for _, r := range rows {
		switch r[5].Str() {
		case "New":
			news++
		case "Executed":
			execs++
		}
	}
	if news != 100 || execs == 0 {
		t.Fatalf("news=%d execs=%d", news, execs)
	}
}

func TestMissingTablesErr(t *testing.T) {
	cat := newCat()
	for _, build := range []func(*catalog.Catalog) (logical.Node, error){
		Query1, Query2, Query3, Query4, Query5, Query6, Example1Query,
	} {
		if _, err := build(cat); err == nil {
			t.Fatal("query build on empty catalog should error")
		}
	}
	if _, err := ScalabilityQuery(cat, 2); err == nil {
		t.Fatal("scalability query on empty catalog should error")
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
