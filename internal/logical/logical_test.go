package logical

import (
	"reflect"
	"strings"
	"testing"

	"pyro/internal/catalog"
	"pyro/internal/exec"
	"pyro/internal/expr"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

func testTable(t *testing.T, name string, rows int64) (*catalog.Catalog, *catalog.Table) {
	t.Helper()
	c := catalog.New(storage.NewDisk(0))
	schema := types.NewSchema(
		types.Column{Name: name + "_id", Kind: types.KindInt},
		types.Column{Name: name + "_grp", Kind: types.KindInt},
		types.Column{Name: name + "_val", Kind: types.KindInt},
	)
	data := make([]types.Tuple, rows)
	for i := int64(0); i < rows; i++ {
		data[i] = types.NewTuple(types.NewInt(i), types.NewInt(i%10), types.NewInt(i*3))
	}
	tb, err := c.CreateTable(name, schema, sortord.New(name+"_id"), data)
	if err != nil {
		t.Fatal(err)
	}
	return c, tb
}

func TestScanProps(t *testing.T) {
	_, tb := testTable(t, "t", 100)
	s := NewScan(tb)
	p := s.Props()
	if p.Rows != 100 || p.Distinct["t_grp"] != 10 {
		t.Fatalf("props = %+v", p)
	}
	if len(p.FDs) != 1 || !p.FDs[0].Det.Equal(sortord.NewAttrSet("t_id")) {
		t.Fatalf("scan should carry the key FD: %+v", p.FDs)
	}
	if s.Children() != nil {
		t.Fatal("scan has no children")
	}
}

func TestScanNoKeyNoFD(t *testing.T) {
	c := catalog.New(storage.NewDisk(0))
	schema := types.NewSchema(types.Column{Name: "x", Kind: types.KindInt})
	rows := []types.Tuple{
		types.NewTuple(types.NewInt(1)),
		types.NewTuple(types.NewInt(1)), // duplicate: x is not a key
	}
	tb, err := c.CreateTable("dup", schema, sortord.New("x"), rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(NewScan(tb).Props().FDs) != 0 {
		t.Fatal("non-unique clustering must not yield a key FD")
	}
}

func TestSelectSelectivity(t *testing.T) {
	_, tb := testTable(t, "t", 1000)
	s := NewScan(tb)
	// Equality on t_grp (10 distinct): 1/10 selectivity.
	eq := NewSelect(s, expr.Eq(expr.Col("t_grp"), expr.IntLit(3)))
	if eq.Props().Rows != 100 {
		t.Fatalf("eq rows = %d, want 100", eq.Props().Rows)
	}
	// Reversed orientation: const = col.
	eq2 := NewSelect(s, expr.Eq(expr.IntLit(3), expr.Col("t_grp")))
	if eq2.Props().Rows != 100 {
		t.Fatalf("reversed eq rows = %d", eq2.Props().Rows)
	}
	// Range: 1/3.
	rng := NewSelect(s, expr.Compare(expr.LT, expr.Col("t_val"), expr.IntLit(10)))
	if rng.Props().Rows != 333 {
		t.Fatalf("range rows = %d, want 333", rng.Props().Rows)
	}
	// Conjuncts multiply.
	both := NewSelect(s, expr.AndOf(
		expr.Eq(expr.Col("t_grp"), expr.IntLit(3)),
		expr.Compare(expr.LT, expr.Col("t_val"), expr.IntLit(10)),
	))
	if both.Props().Rows != 33 {
		t.Fatalf("conjunct rows = %d, want 33", both.Props().Rows)
	}
	// FDs survive selection.
	if len(eq.Props().FDs) != 1 {
		t.Fatal("select should keep FDs")
	}
}

func TestProjectPropsAndFDs(t *testing.T) {
	_, tb := testTable(t, "t", 100)
	p := NewProject(NewScan(tb), []ProjCol{
		{Name: "id", Expr: expr.Col("t_id")},
		{Name: "doubled", Expr: expr.Arith{Op: expr.Mul, L: expr.Col("t_val"), R: expr.IntLit(2)}},
		{Name: "v", Expr: expr.Col("t_val")},
	})
	props := p.Props()
	if props.Rows != 100 {
		t.Fatalf("rows = %d", props.Rows)
	}
	if props.Distinct["id"] != 100 {
		t.Fatalf("renamed distinct lost: %v", props.Distinct)
	}
	// Key FD renamed: {id} -> {id, v} (doubled's det is v which is
	// projected, so doubled also appears via the computed-column FD).
	if !Determines(sortord.NewAttrSet("id"), sortord.NewAttrSet("v"), props.FDs) {
		t.Fatalf("renamed key FD lost: %+v", props.FDs)
	}
	if !Determines(sortord.NewAttrSet("v"), sortord.NewAttrSet("doubled"), props.FDs) {
		t.Fatalf("computed-column FD missing: %+v", props.FDs)
	}
	// Transitively: id -> v -> doubled.
	if !Determines(sortord.NewAttrSet("id"), sortord.NewAttrSet("doubled"), props.FDs) {
		t.Fatal("closure not transitive")
	}
}

func TestJoinPropsAndEquiPairs(t *testing.T) {
	_, ta := testTable(t, "a", 100)
	cb := catalog.New(storage.NewDisk(0))
	schemaB := types.NewSchema(
		types.Column{Name: "b_id", Kind: types.KindInt},
		types.Column{Name: "b_grp", Kind: types.KindInt},
	)
	var rowsB []types.Tuple
	for i := int64(0); i < 50; i++ {
		rowsB = append(rowsB, types.NewTuple(types.NewInt(i), types.NewInt(i%10)))
	}
	tbB, err := cb.CreateTable("b", schemaB, sortord.New("b_id"), rowsB)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJoin(NewScan(ta), NewScan(tbB),
		expr.AndOf(
			expr.Eq(expr.Col("a_id"), expr.Col("b_id")),
			expr.Compare(expr.GT, expr.Col("a_val"), expr.IntLit(0)),
		), exec.InnerJoin)
	if len(j.EquiPairs) != 1 || j.EquiPairs[0].Left != "a_id" {
		t.Fatalf("equi pairs = %v", j.EquiPairs)
	}
	if len(j.Residual) != 1 {
		t.Fatalf("residual = %v", j.Residual)
	}
	// |L||R| / max(D) = 100*50/100 = 50.
	if j.Props().Rows != 50 {
		t.Fatalf("join rows = %d, want 50", j.Props().Rows)
	}
	if !j.JoinAttrSetLeft().Equal(sortord.NewAttrSet("a_id")) {
		t.Fatal("left attr set")
	}
	if !j.JoinAttrSetRight().Equal(sortord.NewAttrSet("b_id")) {
		t.Fatal("right attr set")
	}
	if r, ok := j.RightName("a_id"); !ok || r != "b_id" {
		t.Fatal("RightName")
	}
	if l, ok := j.LeftName("b_id"); !ok || l != "a_id" {
		t.Fatal("LeftName")
	}
	if _, ok := j.RightName("zz"); ok {
		t.Fatal("unknown name should not resolve")
	}
	// Equi-pair FD: a_id <-> b_id.
	if !Determines(sortord.NewAttrSet("a_id"), sortord.NewAttrSet("b_id"), j.Props().FDs) {
		t.Fatal("equijoin FD missing")
	}
	// Canonicalization maps right names to left.
	got := j.CanonicalizeOrder(sortord.New("b_id", "a_grp"))
	if !got.Equal(sortord.New("a_id", "a_grp")) {
		t.Fatalf("CanonicalizeOrder = %v", got)
	}
}

func TestOuterJoinCardinalityFloor(t *testing.T) {
	_, ta := testTable(t, "a", 100)
	cb := catalog.New(storage.NewDisk(0))
	schemaB := types.NewSchema(types.Column{Name: "b_id", Kind: types.KindInt})
	tbB, _ := cb.CreateTable("b", schemaB, sortord.New("b_id"),
		[]types.Tuple{types.NewTuple(types.NewInt(1))})
	lo := NewJoin(NewScan(ta), NewScan(tbB), expr.Eq(expr.Col("a_id"), expr.Col("b_id")), exec.LeftOuterJoin)
	if lo.Props().Rows < 100 {
		t.Fatalf("left outer rows = %d, must be >= left size", lo.Props().Rows)
	}
	fo := NewJoin(NewScan(ta), NewScan(tbB), expr.Eq(expr.Col("a_id"), expr.Col("b_id")), exec.FullOuterJoin)
	if fo.Props().Rows < 100 {
		t.Fatalf("full outer rows = %d", fo.Props().Rows)
	}
	// Outer joins must not carry equi-pair FDs (padded rows break them).
	if Determines(sortord.NewAttrSet("a_id"), sortord.NewAttrSet("b_id"), fo.Props().FDs) {
		t.Fatal("outer join must not assert key equality FDs")
	}
}

func TestGroupByProps(t *testing.T) {
	_, tb := testTable(t, "t", 1000)
	g := NewGroupBy(NewScan(tb), []string{"t_grp"}, []AggSpec{
		{Name: "n", Func: exec.AggCount},
		{Name: "total", Func: exec.AggSum, Arg: expr.Col("t_val")},
	})
	if g.Props().Rows != 10 {
		t.Fatalf("groupby rows = %d, want 10", g.Props().Rows)
	}
	names := g.Schema().Names()
	if len(names) != 3 || names[0] != "t_grp" || names[1] != "n" {
		t.Fatalf("schema = %v", names)
	}
	// Group cols determine the aggregates.
	if !Determines(sortord.NewAttrSet("t_grp"), sortord.NewAttrSet("total"), g.Props().FDs) {
		t.Fatal("group-by FD missing")
	}
}

func TestDistinctAndUnionProps(t *testing.T) {
	_, tb := testTable(t, "t", 100)
	proj := NewProjectNames(NewScan(tb), []string{"t_grp"})
	// DISTINCT is a group-by over every column with no aggregates.
	d := NewGroupBy(proj, proj.Schema().Names(), nil)
	if d.Props().Rows != 10 {
		t.Fatalf("distinct rows = %d", d.Props().Rows)
	}
	if !reflect.DeepEqual(d.Schema().Columns(), proj.Schema().Columns()) {
		t.Fatalf("distinct schema = %v, want %v", d.Schema().Names(), proj.Schema().Names())
	}
	u := NewUnion(proj, proj)
	if u.Props().Rows != 200 {
		t.Fatalf("union rows = %d (upper bound before dedup)", u.Props().Rows)
	}
	if u.Schema() != proj.Schema() {
		t.Fatal("union schema should be the left input's")
	}
}

func TestOrderByAndFormat(t *testing.T) {
	_, tb := testTable(t, "t", 10)
	ob := NewOrderBy(NewSelect(NewScan(tb), expr.Compare(expr.GT, expr.Col("t_val"), expr.IntLit(0))),
		sortord.New("t_id"))
	if ob.Props().Rows == 0 {
		t.Fatal("orderby props should pass through")
	}
	s := Format(ob)
	for _, want := range []string{"OrderBy", "Select", "Scan t"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Format missing %q:\n%s", want, s)
		}
	}
}

func TestPropsBlocks(t *testing.T) {
	p := Props{Rows: 1000, Width: 100}
	if got := p.Blocks(4096); got != 25 {
		t.Fatalf("Blocks = %d, want 25", got)
	}
	if got := (Props{Rows: 0, Width: 10}).Blocks(4096); got != 0 {
		t.Fatalf("empty Blocks = %d", got)
	}
	if got := (Props{Rows: 1, Width: 10000}).Blocks(4096); got != 1 {
		t.Fatalf("wide Blocks = %d", got)
	}
}

func TestClosure(t *testing.T) {
	fds := []FD{
		{Det: sortord.NewAttrSet("a"), Dep: sortord.NewAttrSet("b")},
		{Det: sortord.NewAttrSet("b"), Dep: sortord.NewAttrSet("c")},
		{Det: sortord.NewAttrSet("c", "d"), Dep: sortord.NewAttrSet("e")},
	}
	got := Closure(sortord.NewAttrSet("a"), fds)
	if !got.Equal(sortord.NewAttrSet("a", "b", "c")) {
		t.Fatalf("closure(a) = %v", got)
	}
	got = Closure(sortord.NewAttrSet("a", "d"), fds)
	if !got.Equal(sortord.NewAttrSet("a", "b", "c", "d", "e")) {
		t.Fatalf("closure(a,d) = %v", got)
	}
	if Determines(sortord.NewAttrSet("b"), sortord.NewAttrSet("a"), fds) {
		t.Fatal("b must not determine a")
	}
}
