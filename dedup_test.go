package pyro

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"pyro/internal/storage"
)

// dedupColumns is the shape of both tables of the duplicate-elimination
// differential test: a unique clustering key and three columns full of
// duplicates, NULLs and both signed zeros.
func dedupColumns(prefix string) []Column {
	return []Column{
		{Name: prefix + "k", Type: Int64},
		{Name: prefix + "g", Type: Int64},
		{Name: prefix + "f", Type: Float64},
		{Name: prefix + "s", Type: String, Width: 4},
	}
}

// dedupRows generates n rows whose key starts at base. Non-key values repeat
// with short coprime periods, and off selects which zero a row carries, so
// two tables built with different offsets hold -0.0 where the other holds
// +0.0.
func dedupRows(n, base, off int) [][]any {
	floats := []any{math.Copysign(0, -1), 1.5, nil, 0.0, -2.5}
	strs := []any{"a", "b", nil}
	rows := make([][]any, n)
	for i := range rows {
		var g any = int64(i % 4)
		if i%7 == 3 {
			g = nil
		}
		rows[i] = []any{int64(base + i), g, floats[(i+off)%len(floats)], strs[i%len(strs)]}
	}
	return rows
}

// canonKey renders a row as a multiset key under the engine's equality:
// NULL equals NULL and -0.0 equals +0.0.
func canonKey(row []any) string {
	var b strings.Builder
	for _, v := range row {
		if f, ok := v.(float64); ok && f == 0 {
			v = 0.0
		}
		fmt.Fprintf(&b, "%T:%v|", v, v)
	}
	return b.String()
}

// compareAny orders result values the way Datum.Compare does for one kind:
// NULL first, then by value.
func compareAny(a, b any) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	}
	switch x := a.(type) {
	case int64:
		return cmp.Compare(x, b.(int64))
	case float64:
		return cmp.Compare(x, b.(float64))
	case string:
		return cmp.Compare(x, b.(string))
	}
	panic(fmt.Sprintf("compareAny: %T", a))
}

// TestDuplicateEliminationAgreesWithReference runs DISTINCT, UNION, UNION ALL
// then DISTINCT, and GROUP BY over every column through the public API, under
// every heuristic, with and without hash aggregation, at ample and at two
// blocks of sort memory, with and without ORDER BY, and holds each result to
// a naive map reference: every distinct row once, nothing else. Each plan's
// claimed orders are checked too. One projection carries the clustered unique
// key, so DISTINCT's group columns reduce to it through the key's functional
// dependency and the sort-based plan sorts on the key alone.
func TestDuplicateEliminationAgreesWithReference(t *testing.T) {
	tRows, uRows := dedupRows(1200, 0, 0), dedupRows(750, 10000, 3)
	open := func(blocks int) *Database {
		db := Open(Config{SortMemoryBlocks: blocks})
		t.Cleanup(func() { storage.AssertNoLeaks(t, db.disk) })
		if err := db.CreateTable("t", dedupColumns("t_"), ClusterOn("t_k"), tRows); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateTable("u", dedupColumns("u_"), ClusterOn("u_k"), uRows); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateIndex("t_gf", "t", []string{"t_g", "t_f"}, []string{"t_s", "t_k"}); err != nil {
			t.Fatal(err)
		}
		return db
	}

	// Each projection is a list of column ordinals into both tables.
	projections := map[string][]int{"dups": {1, 2, 3}, "key": {0, 1, 2}}
	names := func(prefix string, ords []int) []string {
		out := make([]string, len(ords))
		for i, o := range ords {
			out[i] = dedupColumns(prefix)[o].Name
		}
		return out
	}
	reference := func(ords []int, tables ...[][]any) map[string]bool {
		want := map[string]bool{}
		for _, rows := range tables {
			for _, r := range rows {
				p := make([]any, len(ords))
				for i, o := range ords {
					p[i] = r[o]
				}
				want[canonKey(p)] = true
			}
		}
		return want
	}
	heuristics := []Heuristic{PYRO, PYROOMinus, PYROP, PYROO, PYROE}
	memories := []struct {
		name string
		db   *Database
	}{{"ample", open(64)}, {"M=2", open(2)}}

	for _, mem := range memories {
		db := mem.db
		for pname, ords := range projections {
			tCols, uCols := names("t_", ords), names("u_", ords)
			tq := func() *Query { return db.Scan("t").Select(tCols...) }
			uq := func() *Query { return db.Scan("u").Select(uCols...) }
			queries := []struct {
				name string
				q    *Query
				want map[string]bool
			}{
				{"distinct", tq().Distinct(), reference(ords, tRows)},
				{"union", tq().Union(uq()), reference(ords, tRows, uRows)},
				{"unionall-distinct", tq().UnionAll(uq()).Distinct(), reference(ords, tRows, uRows)},
				{"groupby", tq().GroupBy(tCols), reference(ords, tRows)},
			}
			for _, qc := range queries {
				for _, ordered := range []bool{false, true} {
					q := qc.q
					orderBy := []string{tCols[1], tCols[0]}
					if ordered {
						q = q.OrderBy(orderBy...)
					}
					for _, h := range heuristics {
						for _, hash := range []bool{true, false} {
							opts := []OptimizeOption{WithHeuristic(h)}
							if !hash {
								opts = append(opts, WithoutHashAgg())
							}
							plan, err := db.Optimize(q, opts...)
							if err != nil {
								t.Fatal(err)
							}
							checkInteriorOrders(t, db, plan)
							name := fmt.Sprintf("%s/%s/ordered=%v/h=%d/hash=%v/%s", pname, qc.name, ordered, h, hash, mem.name)
							rows := drainDedup(t, db, plan)
							checkDedupResult(t, name, plan, rows, qc.want)
							if ordered {
								checkOrderedBy(t, name, plan, rows, []int{1, 0})
							}
						}
					}
				}
			}
		}
	}
}

// drainDedup runs plan to completion and returns its rows.
func drainDedup(t *testing.T, db *Database, plan *Plan) [][]any {
	t.Helper()
	cur, err := db.Query(context.Background(), plan)
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
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// checkDedupResult fails t unless rows hold every key of want exactly once
// and nothing else.
func checkDedupResult(t *testing.T, name string, plan *Plan, rows [][]any, want map[string]bool) {
	t.Helper()
	got := map[string]int{}
	for _, r := range rows {
		got[canonKey(r)]++
	}
	var bad []string
	for k, n := range got {
		if n != 1 || !want[k] {
			bad = append(bad, fmt.Sprintf("%s ×%d", k, n))
		}
	}
	for k := range want {
		if got[k] == 0 {
			bad = append(bad, k+" missing")
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		t.Fatalf("%s: %d rows, want %d distinct; wrong: %v\n%s", name, len(rows), len(want), bad, plan.Explain())
	}
}

// checkOrderedBy fails t unless rows are sorted on the given columns.
func checkOrderedBy(t *testing.T, name string, plan *Plan, rows [][]any, cols []int) {
	t.Helper()
	for i := 1; i < len(rows); i++ {
		for _, c := range cols {
			cmp := compareAny(rows[i-1][c], rows[i][c])
			if cmp < 0 {
				break
			}
			if cmp > 0 {
				t.Fatalf("%s: rows %d and %d out of order: %v then %v\n%s", name, i-1, i, rows[i-1], rows[i], plan.Explain())
			}
		}
	}
}
