package ford

import (
	"testing"

	"pyro/internal/catalog"
	"pyro/internal/exec"
	"pyro/internal/expr"
	"pyro/internal/logical"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// buildQ3Catalog builds a miniature of the paper's Query 3 environment:
// partsupp clustered on (ps_partkey, ps_suppkey) with a covering secondary
// index on ps_suppkey, lineitem clustered on its key with a covering
// secondary index on l_suppkey.
func buildQ3Catalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New(storage.NewDisk(512))
	psSchema := types.NewSchema(
		types.Column{Name: "ps_partkey", Kind: types.KindInt},
		types.Column{Name: "ps_suppkey", Kind: types.KindInt},
		types.Column{Name: "ps_availqty", Kind: types.KindInt},
	)
	liSchema := types.NewSchema(
		types.Column{Name: "l_partkey", Kind: types.KindInt},
		types.Column{Name: "l_suppkey", Kind: types.KindInt},
		types.Column{Name: "l_quantity", Kind: types.KindInt},
		types.Column{Name: "l_linestatus", Kind: types.KindString, Width: 1},
	)
	var psRows, liRows []types.Tuple
	for p := int64(0); p < 20; p++ {
		for s := int64(0); s < 4; s++ {
			psRows = append(psRows, types.NewTuple(types.NewInt(p), types.NewInt(s), types.NewInt(100)))
			liRows = append(liRows, types.NewTuple(types.NewInt(p), types.NewInt(s), types.NewInt(7), types.NewString("O")))
		}
	}
	ps, err := c.CreateTable("partsupp", psSchema, sortord.New("ps_partkey", "ps_suppkey"), psRows)
	if err != nil {
		t.Fatal(err)
	}
	li, err := c.CreateTable("lineitem", liSchema, sortord.New("l_partkey", "l_suppkey"), liRows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("ps_sk", ps, sortord.New("ps_suppkey"), []string{"ps_partkey", "ps_availqty"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("li_sk", li, sortord.New("l_suppkey"), []string{"l_partkey", "l_quantity", "l_linestatus"}); err != nil {
		t.Fatal(err)
	}
	return c
}

// buildQ3 assembles the paper's Query 3 logical tree.
func buildQ3(t *testing.T, c *catalog.Catalog) (logical.Node, *logical.Join) {
	t.Helper()
	ps := logical.NewScan(mustTable(c, "partsupp"))
	li := logical.NewScan(mustTable(c, "lineitem"))
	liFiltered := logical.NewSelect(li, expr.Eq(expr.Col("l_linestatus"), expr.StrLit("O")))
	join := logical.NewJoin(ps, liFiltered, expr.AndOf(
		expr.Eq(expr.Col("ps_suppkey"), expr.Col("l_suppkey")),
		expr.Eq(expr.Col("ps_partkey"), expr.Col("l_partkey")),
	), exec.InnerJoin)
	gb := logical.NewGroupBy(join,
		[]string{"ps_availqty", "ps_partkey", "ps_suppkey"},
		[]logical.AggSpec{{Name: "total_qty", Func: exec.AggSum, Arg: expr.Col("l_quantity")}})
	having := logical.NewSelect(gb, expr.Compare(expr.GT, expr.Col("total_qty"), expr.Col("ps_availqty")))
	root := logical.NewOrderBy(having, sortord.New("ps_partkey"))
	return root, join
}

func hasOrder(orders []sortord.Order, want sortord.Order) bool {
	for _, o := range orders {
		if o.Equal(want) {
			return true
		}
	}
	return false
}

func TestAFMScanIncludesClusteringAndCoveringIndices(t *testing.T) {
	c := buildQ3Catalog(t)
	root, _ := buildQ3(t, c)
	fc := NewComputer(root)
	var psScan *logical.Scan
	var walk func(n logical.Node)
	walk = func(n logical.Node) {
		if s, ok := n.(*logical.Scan); ok && s.Table.Name == "partsupp" {
			psScan = s
		}
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(root)
	orders := fc.AFM(psScan)
	if !hasOrder(orders, sortord.New("ps_partkey", "ps_suppkey")) {
		t.Fatalf("afm missing clustering order: %v", orders)
	}
	if !hasOrder(orders, sortord.New("ps_suppkey")) {
		t.Fatalf("afm missing covering index order: %v", orders)
	}
}

func TestAFMScanExcludesNonCoveringIndex(t *testing.T) {
	c := catalog.New(storage.NewDisk(512))
	schema := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
		types.Column{Name: "c", Kind: types.KindInt},
	)
	rows := []types.Tuple{types.NewTuple(types.NewInt(1), types.NewInt(2), types.NewInt(3))}
	tb, _ := c.CreateTable("t", schema, sortord.New("a"), rows)
	// Index on b storing only b: does NOT cover a query touching c.
	c.CreateIndex("t_b", tb, sortord.New("b"), nil)
	scan := logical.NewScan(tb)
	root := logical.NewOrderBy(
		logical.NewSelect(scan, expr.Compare(expr.GT, expr.Col("c"), expr.IntLit(0))),
		sortord.New("a"))
	fc := NewComputer(root)
	orders := fc.AFM(scan)
	if hasOrder(orders, sortord.New("b")) {
		t.Fatalf("non-covering index must not contribute: %v", orders)
	}
	if !hasOrder(orders, sortord.New("a")) {
		t.Fatalf("clustering order missing: %v", orders)
	}
}

func TestAFMSelectPassthrough(t *testing.T) {
	c := buildQ3Catalog(t)
	root, _ := buildQ3(t, c)
	fc := NewComputer(root)
	var sel *logical.Select
	var walk func(n logical.Node)
	walk = func(n logical.Node) {
		if s, ok := n.(*logical.Select); ok {
			if _, isScan := s.Child.(*logical.Scan); isScan {
				sel = s
			}
		}
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(root)
	if sel == nil {
		t.Fatal("no select over scan found")
	}
	got := fc.AFM(sel)
	want := fc.AFM(sel.Child)
	if len(got) != len(want) {
		t.Fatalf("select afm %v != child afm %v", got, want)
	}
}

func TestAFMJoinExtendsPrefixes(t *testing.T) {
	c := buildQ3Catalog(t)
	root, join := buildQ3(t, c)
	fc := NewComputer(root)
	orders := fc.AFM(join)
	// From the ps_suppkey covering index: (ps_suppkey) extends to
	// (ps_suppkey, ps_partkey).
	if !hasOrder(orders, sortord.New("ps_suppkey", "ps_partkey")) {
		t.Fatalf("join afm missing suppkey-led permutation: %v", orders)
	}
	// From the partsupp clustering order: (ps_partkey, ps_suppkey).
	if !hasOrder(orders, sortord.New("ps_partkey", "ps_suppkey")) {
		t.Fatalf("join afm missing clustering permutation: %v", orders)
	}
}

func TestAFMProjectRenames(t *testing.T) {
	c := buildQ3Catalog(t)
	ps := logical.NewScan(mustTable(c, "partsupp"))
	proj := logical.NewProject(ps, []logical.ProjCol{
		{Name: "pk", Expr: expr.Col("ps_partkey")},
		{Name: "sk", Expr: expr.Col("ps_suppkey")},
	})
	root := logical.NewOrderBy(proj, sortord.New("pk"))
	fc := NewComputer(root)
	orders := fc.AFM(proj)
	if !hasOrder(orders, sortord.New("pk", "sk")) {
		t.Fatalf("project should rename clustering order: %v", orders)
	}
}

func TestAFMProjectTruncatesAtDroppedColumn(t *testing.T) {
	c := buildQ3Catalog(t)
	ps := logical.NewScan(mustTable(c, "partsupp"))
	// Project drops ps_partkey: clustering order (ps_partkey, ps_suppkey)
	// contributes nothing (its first attribute is gone).
	proj := logical.NewProjectNames(ps, []string{"ps_suppkey", "ps_availqty"})
	root := logical.NewOrderBy(proj, sortord.New("ps_suppkey"))
	fc := NewComputer(root)
	orders := fc.AFM(proj)
	for _, o := range orders {
		if o[0] == "ps_partkey" {
			t.Fatalf("dropped column leaked into afm: %v", orders)
		}
	}
	// The suppkey covering index order survives.
	if !hasOrder(orders, sortord.New("ps_suppkey")) {
		t.Fatalf("suppkey order should survive projection: %v", orders)
	}
}

func TestAFMGroupByExtension(t *testing.T) {
	c := buildQ3Catalog(t)
	root, _ := buildQ3(t, c)
	fc := NewComputer(root)
	var gb *logical.GroupBy
	var walk func(n logical.Node)
	walk = func(n logical.Node) {
		if g, ok := n.(*logical.GroupBy); ok {
			gb = g
		}
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(root)
	orders := fc.AFM(gb)
	if len(orders) == 0 {
		t.Fatal("group-by afm empty")
	}
	groupSet := sortord.NewAttrSet("ps_availqty", "ps_partkey", "ps_suppkey")
	for _, o := range orders {
		if !o.Attrs().Equal(groupSet) && !o.Attrs().ContainsAll(groupSet) {
			// Orders must be (at least) permutations of the group columns.
			t.Fatalf("group-by afm order %v does not span group columns", o)
		}
	}
}

func TestInterestingOrders(t *testing.T) {
	s := sortord.NewAttrSet("x", "y")
	afms := [][]sortord.Order{
		{sortord.New("x", "z")},      // restricts to (x)
		{sortord.New("y", "x", "q")}, // restricts to (y,x)
	}
	got := InterestingOrders(afms, s, sortord.New("q", "x"))
	// (x) extends to (x,y); (y,x) is already full. Required out (q,x)
	// restricts to ε (q not in S).
	if !hasOrder(got, sortord.New("x", "y")) || !hasOrder(got, sortord.New("y", "x")) {
		t.Fatalf("interesting orders = %v", got)
	}
	if len(got) != 2 {
		t.Fatalf("expected 2 orders, got %v", got)
	}
	// Empty afms: fall back to one arbitrary permutation.
	fallback := InterestingOrders(nil, s, sortord.Empty)
	if len(fallback) != 1 || fallback[0].Len() != 2 {
		t.Fatalf("fallback = %v", fallback)
	}
}

func TestInterestingOrdersRedundantPrefixDropped(t *testing.T) {
	s := sortord.NewAttrSet("x", "y", "z")
	afms := [][]sortord.Order{
		{sortord.New("x")},
		{sortord.New("x", "y")},
	}
	got := InterestingOrders(afms, s, sortord.Empty)
	// (x) ≤ (x,y): only (x,y,...) survives.
	if len(got) != 1 || !got[0][0:2].Equal(sortord.New("x", "y")) {
		t.Fatalf("redundant prefix not dropped: %v", got)
	}
}

func TestRemoveRedundant(t *testing.T) {
	in := []sortord.Order{
		sortord.New("a"),
		sortord.New("a", "b"),
		sortord.New("c"),
	}
	got := RemoveRedundant(in)
	if len(got) != 2 || !hasOrder(got, sortord.New("a", "b")) || !hasOrder(got, sortord.New("c")) {
		t.Fatalf("RemoveRedundant = %v", got)
	}
	// Duplicates: keep exactly one.
	dup := []sortord.Order{sortord.New("a"), sortord.New("a")}
	if got := RemoveRedundant(dup); len(got) != 1 {
		t.Fatalf("duplicate handling = %v", got)
	}
}

func TestAFMUnion(t *testing.T) {
	c := buildQ3Catalog(t)
	l := logical.NewProjectNames(logical.NewScan(mustTable(c, "partsupp")), []string{"ps_partkey", "ps_suppkey"})
	r := logical.NewProjectNames(logical.NewScan(mustTable(c, "partsupp")), []string{"ps_partkey", "ps_suppkey"})
	u := logical.NewUnion(l, r)
	root := logical.NewOrderBy(u, sortord.New("ps_partkey"))
	fc := NewComputer(root)
	orders := fc.AFM(u)
	if len(orders) == 0 {
		t.Fatal("union afm empty")
	}
	// All orders span both union columns (distinct-style extension).
	cols := sortord.NewAttrSet("ps_partkey", "ps_suppkey")
	for _, o := range orders {
		if !o.Attrs().Equal(cols) {
			t.Fatalf("union afm order %v should span %v", o, cols)
		}
	}
	if !hasOrder(orders, sortord.New("ps_partkey", "ps_suppkey")) {
		t.Fatalf("clustered order should survive union: %v", orders)
	}
}

func TestNeededAttrsUnknownTable(t *testing.T) {
	c := buildQ3Catalog(t)
	root, _ := buildQ3(t, c)
	fc := NewComputer(root)
	// A table not in the query: needed = all its columns (conservative).
	other := mustTable(c, "lineitem")
	if fc.NeededAttrs(other).Len() == 0 {
		t.Fatal("needed attrs must never be empty for a real table")
	}
}

func TestAFMMemoization(t *testing.T) {
	c := buildQ3Catalog(t)
	root, join := buildQ3(t, c)
	fc := NewComputer(root)
	a := fc.AFM(join)
	b := fc.AFM(join)
	if len(a) != len(b) {
		t.Fatal("memoized result changed")
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("memoized orders differ")
		}
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
