package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pyro/internal/catalog"
	"pyro/internal/exec"
	"pyro/internal/expr"
	"pyro/internal/logical"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// randWorld builds a random two-table catalog: table x(x0..x3) and y(y0..y3)
// with random clustering orders and an occasional covering index.
func randWorld(rng *rand.Rand) (*catalog.Catalog, *storage.Disk) {
	disk := storage.NewDisk(0)
	cat := catalog.New(disk)
	for _, name := range []string{"x", "y"} {
		cols := make([]types.Column, 4)
		for i := range cols {
			cols[i] = types.Column{Name: fmt.Sprintf("%s%d", name, i), Kind: types.KindInt}
		}
		schema := types.NewSchema(cols...)
		n := 50 + rng.Intn(300)
		rows := make([]types.Tuple, n)
		for r := range rows {
			tup := make(types.Tuple, 4)
			for i := range tup {
				tup[i] = types.NewInt(rng.Int63n(int64(3 + rng.Intn(10))))
			}
			// Occasionally inject a NULL into a non-key column.
			if rng.Intn(10) == 0 {
				tup[3] = types.Null
			}
			rows[r] = tup
		}
		var cluster sortord.Order
		if rng.Intn(2) == 0 {
			cluster = sortord.New(fmt.Sprintf("%s%d", name, rng.Intn(4)))
		}
		if _, err := cat.CreateTable(name, schema, cluster, rows); err != nil {
			panic(err)
		}
		if rng.Intn(2) == 0 {
			key := fmt.Sprintf("%s%d", name, rng.Intn(4))
			include := schema.Names()
			if _, err := cat.CreateIndex(name+"_ix", mustTable(cat, name),
				sortord.New(key), include); err != nil {
				panic(err)
			}
		}
	}
	return cat, disk
}

// randQuery assembles a random join + optional filter/group/order query.
func randQuery(cat *catalog.Catalog, rng *rand.Rand) logical.Node {
	x := logical.NewScan(mustTable(cat, "x"))
	y := logical.NewScan(mustTable(cat, "y"))

	var left logical.Node = x
	if rng.Intn(2) == 0 {
		left = logical.NewSelect(x, expr.Compare(expr.LT,
			expr.Col(fmt.Sprintf("x%d", rng.Intn(4))), expr.IntLit(rng.Int63n(8))))
	}
	nKeys := 1 + rng.Intn(3)
	var conj []expr.Expr
	for i := 0; i < nKeys; i++ {
		conj = append(conj, expr.Eq(expr.Col(fmt.Sprintf("x%d", i)), expr.Col(fmt.Sprintf("y%d", i))))
	}
	jt := exec.InnerJoin
	if rng.Intn(4) == 0 {
		jt = exec.FullOuterJoin
	}
	var node logical.Node = logical.NewJoin(left, y, expr.AndOf(conj...), jt)

	switch rng.Intn(3) {
	case 0:
		node = logical.NewGroupBy(node, []string{"x0", "x1"},
			[]logical.AggSpec{
				{Name: "cnt", Func: exec.AggCount},
				{Name: "mx", Func: exec.AggMax, Arg: expr.Col("x2")},
			})
	case 1:
		node = logical.NewGroupBy(logical.NewProjectNames(node, []string{"x0", "x1"}), []string{"x0", "x1"}, nil)
	default:
		// SELECT with an explicit column list: without it the output
		// column order would legitimately vary with the chosen access
		// path (covering indices store key columns first).
		node = logical.NewProjectNames(node,
			[]string{"x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3"})
	}
	// Random required order over available columns.
	avail := node.Schema().Names()
	k := rng.Intn(3)
	var ord sortord.Order
	for i := 0; i < k && i < len(avail); i++ {
		ord = append(ord, avail[rng.Intn(len(avail))])
	}
	ord = ord.Dedup()
	if len(ord) > 0 {
		node = logical.NewOrderBy(node, ord)
	}
	return node
}

// TestRandomQueriesAgreeAcrossHeuristics is the engine's main correctness
// property: for random catalogs and queries, every heuristic's plan
// produces the same multiset of rows, and any required order holds.
func TestRandomQueriesAgreeAcrossHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	heuristics := []Heuristic{
		HeuristicArbitrary, HeuristicFavorableExact, HeuristicPostgres,
		HeuristicFavorable, HeuristicExhaustive,
	}
	for trial := 0; trial < 25; trial++ {
		cat, disk := randWorld(rng)
		q := randQuery(cat, rng)
		var required sortord.Order
		if ob, ok := q.(*logical.OrderBy); ok {
			required = ob.Order
		}
		var reference map[string]int
		var refH Heuristic
		for _, h := range heuristics {
			res, err := Optimize(q, DefaultOptions(h))
			if err != nil {
				t.Fatalf("trial %d %v: optimize: %v\n%s", trial, h, err, logical.Format(q))
			}
			op, err := Build(res.Plan, BuildConfig{Disk: disk, SortMemoryBlocks: 8})
			if err != nil {
				t.Fatalf("trial %d %v: build: %v\n%s", trial, h, err, res.Plan.Format())
			}
			rows, err := exec.Drain(op)
			if err != nil {
				t.Fatalf("trial %d %v: execute: %v\n%s", trial, h, err, res.Plan.Format())
			}
			// Required order must hold.
			if !required.IsEmpty() {
				ks, err := types.MakeKeySpec(res.Plan.Schema, required)
				if err != nil {
					t.Fatalf("trial %d %v: order not in schema: %v", trial, h, err)
				}
				for i := 1; i < len(rows); i++ {
					if ks.Compare(rows[i-1], rows[i]) > 0 {
						t.Fatalf("trial %d %v: required order %v violated\n%s",
							trial, h, required, res.Plan.Format())
					}
				}
			}
			got := make(map[string]int, len(rows))
			var buf []byte
			for _, r := range rows {
				buf = r.Encode(buf[:0])
				got[string(buf)]++
			}
			if reference == nil {
				reference, refH = got, h
				continue
			}
			if len(got) != len(reference) {
				t.Fatalf("trial %d: %v (%d distinct rows) disagrees with %v (%d)\nquery:\n%s",
					trial, h, len(got), refH, len(reference), logical.Format(q))
			}
			for k, v := range reference {
				if got[k] != v {
					t.Fatalf("trial %d: %v disagrees with %v on a row multiplicity\nquery:\n%s",
						trial, h, refH, logical.Format(q))
				}
			}
		}
		// No run files may leak across a full trial.
		for _, name := range disk.FileNames() {
			if f, err := disk.Open(name); err == nil && f.Kind() == storage.KindRun {
				t.Fatalf("trial %d: leaked run file %q", trial, name)
			}
		}
	}
}
