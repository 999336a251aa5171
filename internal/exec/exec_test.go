package exec

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"pyro/internal/catalog"
	"pyro/internal/expr"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
	"pyro/internal/xsort"
)

// sliceOp adapts literal rows to the Operator interface.
func sliceOp(t *testing.T, schema *types.Schema, rows []types.Tuple) Operator {
	t.Helper()
	v, err := NewValues(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

var abSchema = types.NewSchema(
	types.Column{Name: "a", Kind: types.KindInt},
	types.Column{Name: "b", Kind: types.KindInt},
)

func ab(a, b int64) types.Tuple { return types.NewTuple(types.NewInt(a), types.NewInt(b)) }

func intsOf(t *testing.T, rows []types.Tuple, col int) []int64 {
	t.Helper()
	out := make([]int64, len(rows))
	for i, r := range rows {
		if r[col].IsNull() {
			out[i] = -999
		} else {
			out[i] = r[col].Int()
		}
	}
	return out
}

func eqInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func newTestCatalog(t *testing.T, pageSize int) *catalog.Catalog {
	t.Helper()
	d := storage.NewDisk(pageSize)
	t.Cleanup(func() { storage.AssertNoLeaks(t, d) })
	return catalog.New(d)
}

func TestTableScanAndIndexScan(t *testing.T) {
	c := newTestCatalog(t, 512)
	rows := make([]types.Tuple, 100)
	for i := range rows {
		rows[i] = ab(int64(100-i), int64(i%7))
	}
	tb, err := c.CreateTable("t", abSchema, sortord.New("a"), rows)
	if err != nil {
		t.Fatal(err)
	}
	scan := NewTableScan(tb)
	got, err := Drain(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 || scan.Rows() != 100 {
		t.Fatalf("scan rows = %d / %d", len(got), scan.Rows())
	}
	for i := 1; i < len(got); i++ {
		if got[i-1][0].Int() > got[i][0].Int() {
			t.Fatal("table scan should deliver clustering order")
		}
	}
	if c.Disk().Stats().PageReads == 0 {
		t.Fatal("scan must charge reads")
	}

	ix, err := c.CreateIndex("t_b", tb, sortord.New("b"), []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	iscan := NewIndexScan(ix)
	igot, err := Drain(iscan)
	if err != nil {
		t.Fatal(err)
	}
	if len(igot) != 100 || iscan.Rows() != 100 {
		t.Fatal("index scan row count")
	}
	for i := 1; i < len(igot); i++ {
		if igot[i-1][0].Int() > igot[i][0].Int() {
			t.Fatal("index scan should deliver key order")
		}
	}
	if got := iscan.Schema().Names(); len(got) != 2 || got[0] != "b" {
		t.Fatalf("index scan schema = %v", got)
	}
}

func TestValuesValidation(t *testing.T) {
	if _, err := NewValues(abSchema, []types.Tuple{types.NewTuple(types.NewInt(1))}); err == nil {
		t.Fatal("arity mismatch should error")
	}
}

func TestFilter(t *testing.T) {
	rows := []types.Tuple{ab(1, 10), ab(2, 20), ab(3, 30), ab(4, 40)}
	f, err := NewFilter(sliceOp(t, abSchema, rows), expr.Compare(expr.GT, expr.Col("a"), expr.IntLit(2)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(f)
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(intsOf(t, got, 0), []int64{3, 4}) {
		t.Fatalf("filter output = %v", got)
	}
	if f.Selectivity() != 0.5 {
		t.Fatalf("selectivity = %f", f.Selectivity())
	}
	if f.Predicate() == "" {
		t.Fatal("predicate text missing")
	}
	if _, err := NewFilter(sliceOp(t, abSchema, nil), expr.Col("zz")); err == nil {
		t.Fatal("bad predicate should error")
	}
}

func TestProject(t *testing.T) {
	rows := []types.Tuple{ab(2, 3)}
	p, err := NewProject(sliceOp(t, abSchema, rows), []ProjCol{
		{Name: "sum", Expr: expr.Arith{Op: expr.Add, L: expr.Col("a"), R: expr.Col("b")}},
		{Name: "a", Expr: expr.Col("a")},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].Int() != 5 || got[0][1].Int() != 2 {
		t.Fatalf("project = %v", got[0])
	}
	if p.Schema().Col(0).Kind != types.KindInt {
		t.Fatal("inferred kind for int+int should be int")
	}
	p2, err := NewProjectNames(sliceOp(t, abSchema, rows), []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := Drain(p2)
	if got2[0][0].Int() != 3 || p2.Schema().Len() != 1 {
		t.Fatal("NewProjectNames broken")
	}
	if _, err := NewProject(sliceOp(t, abSchema, nil), []ProjCol{{Name: "x", Expr: expr.Col("zz")}}); err == nil {
		t.Fatal("bad projection should error")
	}
}

func TestSortOperators(t *testing.T) {
	d := storage.NewDisk(512)
	cfg := xsort.Config{Disk: d, MemoryBlocks: 16}
	rows := []types.Tuple{ab(2, 9), ab(1, 5), ab(2, 1), ab(1, 7)}
	s, err := NewSortSRS(sliceOp(t, abSchema, rows), sortord.New("a", "b"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(intsOf(t, got, 1), []int64{5, 7, 1, 9}) {
		t.Fatalf("SRS sort output = %v", got)
	}
	if s.IsPartial() {
		t.Fatal("SRS enforcer is not partial")
	}

	// Partial sort: input already ordered on a.
	sortedRows := []types.Tuple{ab(1, 5), ab(1, 2), ab(2, 9), ab(2, 3)}
	m, err := NewSortMRS(sliceOp(t, abSchema, sortedRows), sortord.New("a", "b"), sortord.New("a"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := Drain(m)
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(intsOf(t, got2, 1), []int64{2, 5, 3, 9}) {
		t.Fatalf("MRS sort output = %v", got2)
	}
	if !m.IsPartial() {
		t.Fatal("MRS enforcer with a prefix should report partial")
	}
	if m.SortStats().Segments != 2 {
		t.Fatalf("segments = %d", m.SortStats().Segments)
	}
	if !m.Target().Equal(sortord.New("a", "b")) || !m.Given().Equal(sortord.New("a")) {
		t.Fatal("order accessors broken")
	}
}

func TestMergeJoinInner(t *testing.T) {
	left := []types.Tuple{ab(1, 10), ab(2, 20), ab(2, 21), ab(4, 40)}
	rightSchema := types.NewSchema(
		types.Column{Name: "c", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
	)
	right := []types.Tuple{ab(2, 200), ab(2, 201), ab(3, 300), ab(4, 400)}
	mj, err := NewMergeJoin(
		sliceOp(t, abSchema, left), sliceOp(t, rightSchema, right),
		sortord.New("a"), sortord.New("c"), InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(mj)
	if err != nil {
		t.Fatal(err)
	}
	// a=2 (2 left) x c=2 (2 right) = 4 rows, plus a=4 x c=4 = 1 row.
	if len(got) != 5 {
		t.Fatalf("inner join rows = %d, want 5", len(got))
	}
	if mj.Schema().Len() != 4 {
		t.Fatal("join schema should concat")
	}
	if mj.Comparisons() == 0 {
		t.Fatal("comparisons should be counted")
	}
	if !mj.LeftKey().Equal(sortord.New("a")) {
		t.Fatal("LeftKey accessor")
	}
}

func TestMergeJoinFullOuter(t *testing.T) {
	leftSchema := abSchema
	rightSchema := types.NewSchema(
		types.Column{Name: "c", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
	)
	left := []types.Tuple{ab(1, 10), ab(3, 30)}
	right := []types.Tuple{ab(2, 200), ab(3, 300)}
	mj, err := NewMergeJoin(
		sliceOp(t, leftSchema, left), sliceOp(t, rightSchema, right),
		sortord.New("a"), sortord.New("c"), FullOuterJoin)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(mj)
	if err != nil {
		t.Fatal(err)
	}
	// left {1,3}, right {2,3}: 1 match + 1 unmatched left + 1 unmatched
	// right = 3 rows. Padded rows have coalesced join keys (USING-style):
	// classify by the non-key columns b (index 1) and d (index 3).
	if len(got) != 3 {
		t.Fatalf("full outer rows = %d, want 3: %v", len(got), got)
	}
	var sawLeftPad, sawRightPad, sawMatch bool
	for _, r := range got {
		switch {
		case r[1].IsNull():
			sawRightPad = true // right tuple, left side padded
			if r[0].Int() != 2 || r[2].Int() != 2 {
				t.Fatalf("right-unmatched row should have coalesced keys: %v", r)
			}
		case r[3].IsNull():
			sawLeftPad = true
			if r[0].Int() != 1 || r[2].Int() != 1 {
				t.Fatalf("left-unmatched row should have coalesced keys: %v", r)
			}
		default:
			sawMatch = true
			if r[0].Int() != 3 || r[2].Int() != 3 {
				t.Fatalf("wrong match row: %v", r)
			}
		}
	}
	if !sawLeftPad || !sawRightPad || !sawMatch {
		t.Fatalf("missing row classes: %v", got)
	}
	// The coalesced output is sorted on the key permutation — the property
	// §4 relies on for order propagation.
	for i := 1; i < len(got); i++ {
		if got[i-1][0].Compare(got[i][0]) > 0 {
			t.Fatalf("full outer output not sorted on key: %v", got)
		}
	}
}

func TestMergeJoinLeftOuter(t *testing.T) {
	rightSchema := types.NewSchema(
		types.Column{Name: "c", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
	)
	left := []types.Tuple{ab(1, 10), ab(2, 20)}
	right := []types.Tuple{ab(2, 200)}
	mj, err := NewMergeJoin(
		sliceOp(t, abSchema, left), sliceOp(t, rightSchema, right),
		sortord.New("a"), sortord.New("c"), LeftOuterJoin)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(mj)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("left outer rows = %d, want 2", len(got))
	}
	if !got[0][2].IsNull() {
		t.Fatalf("first row should be padded: %v", got[0])
	}
}

func TestMergeJoinNullKeysNeverMatch(t *testing.T) {
	rightSchema := types.NewSchema(
		types.Column{Name: "c", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
	)
	left := []types.Tuple{types.NewTuple(types.Null, types.NewInt(1)), ab(2, 20)}
	right := []types.Tuple{types.NewTuple(types.Null, types.NewInt(2)), ab(2, 200)}
	mj, err := NewMergeJoin(
		sliceOp(t, abSchema, left), sliceOp(t, rightSchema, right),
		sortord.New("a"), sortord.New("c"), FullOuterJoin)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(mj)
	if err != nil {
		t.Fatal(err)
	}
	// NULLs never match: 1 match (a=2) + 2 padded rows.
	if len(got) != 3 {
		t.Fatalf("rows = %d, want 3: %v", len(got), got)
	}
}

func TestMergeJoinValidation(t *testing.T) {
	if _, err := NewMergeJoin(sliceOp(t, abSchema, nil), sliceOp(t, abSchema, nil),
		sortord.New("a", "b"), sortord.New("a"), InnerJoin); err == nil {
		t.Fatal("key arity mismatch should error")
	}
	if _, err := NewMergeJoin(sliceOp(t, abSchema, nil), sliceOp(t, abSchema, nil),
		sortord.Empty, sortord.Empty, InnerJoin); err == nil {
		t.Fatal("empty key should error")
	}
	// Note: joining a schema with itself duplicates names; engine panics on
	// concat of duplicate schemas, so plans must rename — validated here.
	defer func() { recover() }()
	rightSchema := types.NewSchema(types.Column{Name: "zz", Kind: types.KindInt})
	if _, err := NewMergeJoin(sliceOp(t, abSchema, nil), sliceOp(t, rightSchema, nil),
		sortord.New("a"), sortord.New("nope"), InnerJoin); err == nil {
		t.Fatal("unknown key should error")
	}
}

func TestHashJoin(t *testing.T) {
	rightSchema := types.NewSchema(
		types.Column{Name: "c", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
	)
	left := []types.Tuple{ab(1, 10), ab(2, 20), ab(3, 30)}
	right := []types.Tuple{ab(2, 200), ab(2, 201), ab(9, 900)}
	hj, err := NewHashJoin(
		sliceOp(t, abSchema, left), sliceOp(t, rightSchema, right),
		[]string{"a"}, []string{"c"}, InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(hj)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || hj.BuildRows() != 3 {
		t.Fatalf("hash join rows = %d build = %d", len(got), hj.BuildRows())
	}
	// Probe order preserved.
	if got[0][1].Int() != 20 || got[0][3].Int() != 200 || got[1][3].Int() != 201 {
		t.Fatalf("hash join output = %v", got)
	}

	// Left outer.
	hj2, _ := NewHashJoin(
		sliceOp(t, abSchema, left), sliceOp(t, rightSchema, right),
		[]string{"a"}, []string{"c"}, LeftOuterJoin)
	got2, err := Drain(hj2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 4 {
		t.Fatalf("left outer hash join rows = %d, want 4", len(got2))
	}
}

func TestHashJoinNullsAndValidation(t *testing.T) {
	rightSchema := types.NewSchema(
		types.Column{Name: "c", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
	)
	left := []types.Tuple{types.NewTuple(types.Null, types.NewInt(1))}
	right := []types.Tuple{types.NewTuple(types.Null, types.NewInt(2))}
	hj, _ := NewHashJoin(sliceOp(t, abSchema, left), sliceOp(t, rightSchema, right),
		[]string{"a"}, []string{"c"}, InnerJoin)
	got, err := Drain(hj)
	if err != nil || len(got) != 0 {
		t.Fatalf("NULL keys must not match: %v %v", got, err)
	}
	if _, err := NewHashJoin(sliceOp(t, abSchema, nil), sliceOp(t, rightSchema, nil),
		[]string{"a"}, []string{"c"}, FullOuterJoin); err == nil {
		t.Fatal("full outer hash join should error")
	}
	if _, err := NewHashJoin(sliceOp(t, abSchema, nil), sliceOp(t, rightSchema, nil),
		[]string{"a", "b"}, []string{"c"}, InnerJoin); err == nil {
		t.Fatal("key mismatch should error")
	}
}

// fSchema is a one-column float schema named name.
func fSchema(name string) *types.Schema {
	return types.NewSchema(types.Column{Name: name, Kind: types.KindFloat})
}

// signedZeros are -0.0 and +0.0, which Datum.Compare calls equal.
var signedZeros = []types.Tuple{
	types.NewTuple(types.NewFloat(math.Copysign(0, -1))),
	types.NewTuple(types.NewFloat(0)),
}

// TestHashJoinMatchesSignedZeros: a hash join matches -0.0 with +0.0 exactly
// as a merge join does, in either build/probe arrangement.
func TestHashJoinMatchesSignedZeros(t *testing.T) {
	for _, probe := range []int{0, 1} {
		left := signedZeros[probe : probe+1]
		right := signedZeros[1-probe : 2-probe]
		hj, err := NewHashJoin(sliceOp(t, fSchema("a"), left), sliceOp(t, fSchema("c"), right),
			[]string{"a"}, []string{"c"}, InnerJoin)
		if err != nil {
			t.Fatal(err)
		}
		mj, err := NewMergeJoin(sliceOp(t, fSchema("a"), left), sliceOp(t, fSchema("c"), right),
			sortord.New("a"), sortord.New("c"), InnerJoin)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []Operator{hj, mj} {
			got, err := Drain(op)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 {
				t.Fatalf("probe %v: %T matched %d times, want 1", left[0], op, len(got))
			}
		}
	}
}

// TestHashAggregateGroupsSignedZeros: -0.0 and +0.0 are one group under a
// hash aggregate, as under a sort-based one.
func TestHashAggregateGroupsSignedZeros(t *testing.T) {
	aggs := []AggSpec{{Name: "n", Func: AggCount}}
	ha, err := NewHashAggregate(sliceOp(t, fSchema("a"), signedZeros), []string{"a"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	ga, err := NewGroupAggregate(sliceOp(t, fSchema("a"), signedZeros), []string{"a"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []Operator{ha, ga} {
		got, err := Drain(op)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0][1].Int() != 2 {
			t.Fatalf("%T groups = %v, want one group of 2", op, got)
		}
	}
}

func TestNLJoin(t *testing.T) {
	d := storage.NewDisk(256)
	rightSchema := types.NewSchema(
		types.Column{Name: "c", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
	)
	var left, right []types.Tuple
	for i := 0; i < 30; i++ {
		left = append(left, ab(int64(i), int64(i*10)))
	}
	for i := 0; i < 20; i++ {
		right = append(right, ab(int64(i%10), int64(i)))
	}
	nl, err := NewNLJoin(
		sliceOp(t, abSchema, left), sliceOp(t, rightSchema, right),
		expr.Eq(expr.Col("a"), expr.Col("c")), InnerJoin, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(nl)
	if err != nil {
		t.Fatal(err)
	}
	// Every right row (c in 0..9, twice) matches exactly one left row.
	if len(got) != 20 {
		t.Fatalf("NL join rows = %d, want 20", len(got))
	}
	if d.Stats().RunTotal() == 0 {
		t.Fatal("NL join must charge spool I/O")
	}
	// Cross join (nil predicate).
	nl2, _ := NewNLJoin(sliceOp(t, abSchema, left[:3]), sliceOp(t, rightSchema, right[:4]),
		nil, InnerJoin, d, 4)
	got2, err := Drain(nl2)
	if err != nil || len(got2) != 12 {
		t.Fatalf("cross join = %d rows, err %v", len(got2), err)
	}
}

func TestNLJoinLeftOuter(t *testing.T) {
	d := storage.NewDisk(256)
	rightSchema := types.NewSchema(
		types.Column{Name: "c", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
	)
	left := []types.Tuple{ab(1, 10), ab(5, 50)}
	right := []types.Tuple{ab(1, 100)}
	nl, err := NewNLJoin(sliceOp(t, abSchema, left), sliceOp(t, rightSchema, right),
		expr.Eq(expr.Col("a"), expr.Col("c")), LeftOuterJoin, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("left outer NL rows = %d, want 2: %v", len(got), got)
	}
	padded := 0
	for _, r := range got {
		if r[2].IsNull() {
			padded++
			if r[0].Int() != 5 {
				t.Fatalf("wrong padded row: %v", r)
			}
		}
	}
	if padded != 1 {
		t.Fatalf("padded rows = %d, want 1", padded)
	}
	if _, err := NewNLJoin(sliceOp(t, abSchema, nil), sliceOp(t, rightSchema, nil),
		nil, FullOuterJoin, d, 4); err == nil {
		t.Fatal("full outer NL should error")
	}
	if _, err := NewNLJoin(sliceOp(t, abSchema, nil), sliceOp(t, rightSchema, nil),
		nil, InnerJoin, nil, 4); err == nil {
		t.Fatal("nil disk should error")
	}
}

func TestGroupAggregate(t *testing.T) {
	rows := []types.Tuple{ab(1, 10), ab(1, 20), ab(2, 5), ab(3, 1), ab(3, 3)}
	ga, err := NewGroupAggregate(sliceOp(t, abSchema, rows), []string{"a"}, []AggSpec{
		{Name: "cnt", Func: AggCount, Arg: nil},
		{Name: "total", Func: AggSum, Arg: expr.Col("b")},
		{Name: "lo", Func: AggMin, Arg: expr.Col("b")},
		{Name: "hi", Func: AggMax, Arg: expr.Col("b")},
		{Name: "mean", Func: AggAvg, Arg: expr.Col("b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(ga)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("groups = %d, want 3", len(got))
	}
	// group a=1: cnt 2, sum 30, min 10, max 20, avg 15
	r := got[0]
	if r[0].Int() != 1 || r[1].Int() != 2 || r[2].Int() != 30 || r[3].Int() != 10 || r[4].Int() != 20 || r[5].Float() != 15 {
		t.Fatalf("group 1 = %v", r)
	}
	if got[2][2].Int() != 4 {
		t.Fatalf("group 3 sum = %v", got[2])
	}
	names := ga.Schema().Names()
	if names[0] != "a" || names[1] != "cnt" {
		t.Fatalf("agg schema = %v", names)
	}
	if len(ga.GroupCols()) != 1 {
		t.Fatal("GroupCols accessor")
	}
}

func TestGroupAggregateEmptyAndNulls(t *testing.T) {
	ga, _ := NewGroupAggregate(sliceOp(t, abSchema, nil), []string{"a"}, []AggSpec{
		{Name: "cnt", Func: AggCount},
	})
	got, err := Drain(ga)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input: %v %v", got, err)
	}
	// NULL arguments are ignored by COUNT(col) and SUM.
	rows := []types.Tuple{
		types.NewTuple(types.NewInt(1), types.Null),
		ab(1, 5),
	}
	ga2, _ := NewGroupAggregate(sliceOp(t, abSchema, rows), []string{"a"}, []AggSpec{
		{Name: "cnt", Func: AggCount, Arg: expr.Col("b")},
		{Name: "s", Func: AggSum, Arg: expr.Col("b")},
	})
	got2, err := Drain(ga2)
	if err != nil {
		t.Fatal(err)
	}
	if got2[0][1].Int() != 1 || got2[0][2].Int() != 5 {
		t.Fatalf("null handling = %v", got2[0])
	}
}

func TestAggValidation(t *testing.T) {
	if _, err := NewGroupAggregate(sliceOp(t, abSchema, nil), []string{"zz"}, nil); err == nil {
		t.Fatal("bad group col should error")
	}
	if _, err := NewGroupAggregate(sliceOp(t, abSchema, nil), []string{"a"},
		[]AggSpec{{Name: "x", Func: AggSum}}); err == nil {
		t.Fatal("sum without arg should error")
	}
	if _, err := NewHashAggregate(sliceOp(t, abSchema, nil), []string{"a"},
		[]AggSpec{{Name: "x", Func: AggMin}}); err == nil {
		t.Fatal("min without arg should error")
	}
}

func TestHashAggregateMatchesGroupAggregate(t *testing.T) {
	var rows []types.Tuple
	for i := 0; i < 200; i++ {
		rows = append(rows, ab(int64(i%13), int64(i)))
	}
	sorted := append([]types.Tuple(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i][0].Int() < sorted[j][0].Int() })
	aggs := []AggSpec{
		{Name: "cnt", Func: AggCount},
		{Name: "s", Func: AggSum, Arg: expr.Col("b")},
	}
	ga, _ := NewGroupAggregate(sliceOp(t, abSchema, sorted), []string{"a"}, aggs)
	ha, _ := NewHashAggregate(sliceOp(t, abSchema, rows), []string{"a"}, aggs)
	g1, err := Drain(ga)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Drain(ha)
	if err != nil {
		t.Fatal(err)
	}
	if len(g1) != 13 || len(g2) != 13 {
		t.Fatalf("group counts: %d vs %d", len(g1), len(g2))
	}
	m1 := map[int64][2]int64{}
	for _, r := range g1 {
		m1[r[0].Int()] = [2]int64{r[1].Int(), r[2].Int()}
	}
	for _, r := range g2 {
		want := m1[r[0].Int()]
		if r[1].Int() != want[0] || r[2].Int() != want[1] {
			t.Fatalf("hash agg mismatch for %v: %v vs %v", r[0], r, want)
		}
	}
}

func TestMergeUnion(t *testing.T) {
	left := []types.Tuple{ab(1, 1), ab(3, 3), ab(5, 5)}
	right := []types.Tuple{ab(2, 2), ab(3, 3), ab(6, 6)}
	u, err := NewMergeUnion(sliceOp(t, abSchema, left), sliceOp(t, abSchema, right), sortord.New("a"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(u)
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(intsOf(t, got, 0), []int64{1, 2, 3, 3, 5, 6}) {
		t.Fatalf("union all = %v", intsOf(t, got, 0))
	}
	if !u.Order().Equal(sortord.New("a")) {
		t.Fatal("Order accessor")
	}
}

func TestMergeUnionValidation(t *testing.T) {
	other := types.NewSchema(types.Column{Name: "x", Kind: types.KindString})
	if _, err := NewMergeUnion(sliceOp(t, abSchema, nil), sliceOp(t, other, nil),
		sortord.New("a")); err == nil {
		t.Fatal("arity mismatch should error")
	}
	otherKinds := types.NewSchema(
		types.Column{Name: "x", Kind: types.KindString},
		types.Column{Name: "y", Kind: types.KindString},
	)
	if _, err := NewMergeUnion(sliceOp(t, abSchema, nil), sliceOp(t, otherKinds, nil),
		sortord.New("a")); err == nil {
		t.Fatal("kind mismatch should error")
	}
	if _, err := NewMergeUnion(sliceOp(t, abSchema, nil), sliceOp(t, abSchema, nil),
		sortord.New("zz")); err == nil {
		t.Fatal("bad order should error")
	}
}

func TestDedupAndLimit(t *testing.T) {
	// Duplicate elimination is a group-by over every column with no
	// aggregates.
	rows := []types.Tuple{ab(1, 1), ab(1, 1), ab(2, 2), ab(2, 2), ab(2, 3)}
	d, err := NewGroupAggregate(sliceOp(t, abSchema, rows), []string{"a", "b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("dedup rows = %d, want 3", len(got))
	}
	l, err := NewLimit(sliceOp(t, abSchema, rows), 2)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := Drain(l)
	if err != nil || len(got2) != 2 {
		t.Fatalf("limit rows = %d", len(got2))
	}
	if _, err := NewLimit(sliceOp(t, abSchema, nil), -1); err == nil {
		t.Fatal("negative limit should error")
	}
	l3, _ := NewLimit(sliceOp(t, abSchema, rows), 100)
	got3, _ := Drain(l3)
	if len(got3) != 5 {
		t.Fatal("limit above input size returns all")
	}

	// A limit the full sort carries itself (xsort.Config.Limit) bounds it to
	// exactly the first rows of the unbounded sort.
	cfg := xsort.Config{Disk: storage.NewDisk(512), MemoryBlocks: 16}
	desc := []types.Tuple{ab(2, 3), ab(2, 2), ab(1, 9), ab(1, 1), ab(2, 1)}
	all, err := NewSortSRS(sliceOp(t, abSchema, desc), sortord.New("a", "b"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Drain(all)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Limit = 3
	s, err := NewSortSRS(sliceOp(t, abSchema, desc), sortord.New("a", "b"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got4, err := Drain(s)
	if err != nil || !eqInts(intsOf(t, got4, 1), intsOf(t, want[:3], 1)) || len(got4) != 3 {
		t.Fatalf("sort limited to 3 rows = %v, want %v (err %v)", got4, want[:3], err)
	}
}

// closeTracker wraps an operator and records when Close is called and how
// many rows were pulled.
type closeTracker struct {
	Operator
	closes int
	pulls  int
}

func (c *closeTracker) NextChunk(ch *types.Chunk) error {
	err := c.Operator.NextChunk(ch)
	c.pulls += ch.Rows()
	return err
}

func (c *closeTracker) Close() error {
	c.closes++
	return c.Operator.Close()
}

// pull1 asks op for a chunk of one row — the row-at-a-time consumer — and
// reports whether it got one.
func pull1(op Operator) (bool, error) {
	c := types.NewChunk(op.Schema().Len(), 1)
	err := op.NextChunk(c)
	return c.Rows() == 1, err
}

// TestLimitClosesChildEagerly pins the pushed-down Top-K contract: the
// Limit operator closes its input the moment the K-th tuple is produced —
// not when the consumer finally calls Close — so the subtree abandons its
// remaining work even under a consumer that drains to exhaustion.
func TestLimitClosesChildEagerly(t *testing.T) {
	rows := []types.Tuple{ab(1, 1), ab(2, 2), ab(3, 3), ab(4, 4), ab(5, 5)}
	child := &closeTracker{Operator: sliceOp(t, abSchema, rows)}
	l, err := NewLimit(child, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Open(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := pull1(l); !ok {
		t.Fatal("first row missing")
	}
	if child.closes != 0 {
		t.Fatal("child closed before the limit was reached")
	}
	// The K-th row closes the child as it is handed out.
	if ok, _ := pull1(l); !ok {
		t.Fatal("second row missing")
	}
	if child.closes != 1 {
		t.Fatalf("child closes after K-th row = %d, want 1", child.closes)
	}
	if child.pulls != 2 {
		t.Fatalf("child pulls = %d, want exactly K", child.pulls)
	}
	// Exhaustion and Close stay clean and never double-close.
	if ok, err := pull1(l); ok || err != nil {
		t.Fatalf("Next past limit: ok=%v err=%v", ok, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if child.closes != 1 {
		t.Fatalf("child closed %d times, want once", child.closes)
	}

	// A child shorter than K is exhausted, not eagerly closed — the normal
	// consumer-side Close applies.
	short := &closeTracker{Operator: sliceOp(t, abSchema, rows[:1])}
	l2, err := NewLimit(short, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(l2)
	if err != nil || len(got) != 1 {
		t.Fatalf("short child drain: %d rows, err %v", len(got), err)
	}
	if short.closes != 1 {
		t.Fatalf("short child closes = %d, want 1 (from Drain's Close)", short.closes)
	}
}

func TestPipelineComposition(t *testing.T) {
	// scan -> filter -> sort(MRS) -> group aggregate -> limit, end to end.
	c := newTestCatalog(t, 512)
	var rows []types.Tuple
	for i := 0; i < 500; i++ {
		rows = append(rows, ab(int64(i%20), int64(i)))
	}
	tb, err := c.CreateTable("t", abSchema, sortord.New("a"), rows)
	if err != nil {
		t.Fatal(err)
	}
	scan := NewTableScan(tb)
	flt, err := NewFilter(scan, expr.Compare(expr.LT, expr.Col("b"), expr.IntLit(400)))
	if err != nil {
		t.Fatal(err)
	}
	srt, err := NewSortMRS(flt, sortord.New("a", "b"), sortord.New("a"),
		xsort.Config{Disk: c.Disk(), MemoryBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewGroupAggregate(srt, []string{"a"}, []AggSpec{
		{Name: "cnt", Func: AggCount},
		{Name: "minb", Func: AggMin, Arg: expr.Col("b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	lim, err := NewLimit(agg, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(lim)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("pipeline rows = %d", len(got))
	}
	// Group a=0 has b values 0,20,...,380 => 20 rows, min 0.
	if got[0][0].Int() != 0 || got[0][1].Int() != 20 || got[0][2].Int() != 0 {
		t.Fatalf("pipeline group 0 = %v", got[0])
	}
	// MRS below the aggregate must not have spilled: segments are tiny.
	if srt.SortStats().RunsGenerated != 0 {
		t.Fatal("tiny segments should not spill")
	}
}

func TestInferKind(t *testing.T) {
	s := abSchema
	cases := []struct {
		e    expr.Expr
		want types.Kind
	}{
		{expr.Col("a"), types.KindInt},
		{expr.Col("zz"), types.KindNull},
		{expr.IntLit(1), types.KindInt},
		{expr.FloatLit(1), types.KindFloat},
		{expr.StrLit("x"), types.KindString},
		{expr.Eq(expr.Col("a"), expr.Col("b")), types.KindBool},
		{expr.AndOf(expr.Col("a"), expr.Col("b")), types.KindBool},
		{expr.Not{Child: expr.Col("a")}, types.KindBool},
		{expr.Arith{Op: expr.Add, L: expr.Col("a"), R: expr.Col("b")}, types.KindInt},
		{expr.Arith{Op: expr.Add, L: expr.Col("a"), R: expr.FloatLit(1)}, types.KindFloat},
	}
	for _, c := range cases {
		if got := inferKind(c.e, s); got != c.want {
			t.Errorf("inferKind(%v) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestMergeJoinPropagatesOrder(t *testing.T) {
	// The join output must be sorted on the left key — the property §4
	// exploits ("merge-join produces the same order on its output").
	var left, right []types.Tuple
	for i := 0; i < 50; i++ {
		left = append(left, ab(int64(i/2), int64(i)))
		right = append(right, ab(int64(i/2), int64(i+1000)))
	}
	rightSchema := types.NewSchema(
		types.Column{Name: "c", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
	)
	mj, err := NewMergeJoin(sliceOp(t, abSchema, left), sliceOp(t, rightSchema, right),
		sortord.New("a"), sortord.New("c"), InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(mj)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 { // 25 keys x 2x2
		t.Fatalf("rows = %d, want 100", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1][0].Int() > got[i][0].Int() {
			t.Fatal("merge join output must preserve left key order")
		}
	}
}

func TestLargeMergeJoinAgainstHashJoin(t *testing.T) {
	// Cross-validate the two join algorithms on a bigger input.
	var left, right []types.Tuple
	for i := 0; i < 3000; i++ {
		left = append(left, ab(int64(i%100), int64(i)))
	}
	for i := 0; i < 1000; i++ {
		right = append(right, ab(int64(i%50), int64(i)))
	}
	sort.SliceStable(left, func(i, j int) bool { return left[i][0].Int() < left[j][0].Int() })
	sort.SliceStable(right, func(i, j int) bool { return right[i][0].Int() < right[j][0].Int() })
	rightSchema := types.NewSchema(
		types.Column{Name: "c", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
	)
	mj, _ := NewMergeJoin(sliceOp(t, abSchema, left), sliceOp(t, rightSchema, right),
		sortord.New("a"), sortord.New("c"), InnerJoin)
	hj, _ := NewHashJoin(sliceOp(t, abSchema, left), sliceOp(t, rightSchema, right),
		[]string{"a"}, []string{"c"}, InnerJoin)
	g1, err := Drain(mj)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Drain(hj)
	if err != nil {
		t.Fatal(err)
	}
	if len(g1) != len(g2) {
		t.Fatalf("join cardinality disagreement: merge %d vs hash %d", len(g1), len(g2))
	}
	count := func(rows []types.Tuple) map[string]int {
		m := map[string]int{}
		var buf []byte
		for _, r := range rows {
			buf = r.Encode(buf[:0])
			m[string(buf)]++
		}
		return m
	}
	c1, c2 := count(g1), count(g2)
	for k, v := range c1 {
		if c2[k] != v {
			t.Fatal("join outputs differ")
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	if InnerJoin.String() != "inner" || FullOuterJoin.String() != "full outer" || LeftOuterJoin.String() != "left outer" {
		t.Fatal("JoinType strings")
	}
	for f, want := range map[AggFunc]string{
		AggCount: "count", AggSum: "sum", AggMin: "min", AggMax: "max", AggAvg: "avg",
	} {
		if f.String() != want {
			t.Fatalf("AggFunc %d string = %q", f, f.String())
		}
	}
	_ = fmt.Sprintf("%v", JoinType(99))
}
