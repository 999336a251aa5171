package pyro

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// spillDB builds a workload whose ORDER BY must spill: 12k rows shuffled
// by a multiplicative hash, 512-byte pages, an 8-block sort budget.
func spillDB(t *testing.T) *Database {
	t.Helper()
	db := Open(Config{PageSize: 512, SortMemoryBlocks: 8})
	rows := make([][]any, 12_000)
	for i := range rows {
		rows[i] = []any{int64(i), int64((i * 2654435761) % 12_000), fmt.Sprintf("pad-%d", i%97)}
	}
	if err := db.CreateTable("t", []Column{
		{Name: "a", Type: Int64},
		{Name: "b", Type: Int64},
		{Name: "s", Type: String},
	}, ClusterOn("a"), rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSpillingSortGoldenMatrix is the end-to-end pin of the spill path: across
// sort parallelism 1/2/4/8, a spilling ORDER BY returns the same rows in the
// same order — the ORDER BY's — with the same work counters and the same
// per-query I/O attribution, and every run page it moves is a page of rows.
func TestSpillingSortGoldenMatrix(t *testing.T) {
	db := spillDB(t)
	plan, err := db.Optimize(db.Scan("t").OrderBy("b", "a"))
	if err != nil {
		t.Fatal(err)
	}
	checkInteriorOrders(t, db, plan)

	type result struct {
		rows  [][]any
		sorts []SortStats
		io    IOStats
	}
	drain := func(par int) result {
		t.Helper()
		cur, err := db.Query(context.Background(), plan, WithSortParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		var r result
		for cur.Next() {
			r.rows = append(r.rows, cur.Row())
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		st := cur.Stats()
		r.sorts, r.io = st.Sorts, st.IO
		return r
	}

	// Reference: serial.
	ref := drain(1)
	if len(ref.sorts) != 1 || ref.sorts[0].RunsGenerated == 0 || ref.sorts[0].MergePasses == 0 {
		t.Fatalf("workload must spill and reduce for this test to mean anything: %+v", ref.sorts)
	}
	if ref.sorts[0].FlatRunPages != 0 || ref.sorts[0].MergeBucketSkips != 0 {
		t.Fatalf("runs are payload pages merged by one heap, yet: %+v", ref.sorts[0])
	}
	if ref.sorts[0].SpillRunsParallel != 0 {
		t.Fatalf("spilling is serial, yet: %+v", ref.sorts[0])
	}
	if len(ref.rows) != 12_000 {
		t.Fatalf("%d rows out, want 12000", len(ref.rows))
	}
	for i := 1; i < len(ref.rows); i++ {
		pb, pa := ref.rows[i-1][1].(int64), ref.rows[i-1][0].(int64)
		b, a := ref.rows[i][1].(int64), ref.rows[i][0].(int64)
		if pb > b || pb == b && pa >= a {
			t.Fatalf("row %d (b=%d, a=%d) follows (b=%d, a=%d): not ORDER BY b, a", i, b, a, pb, pa)
		}
	}

	for _, par := range []int{2, 4, 8} {
		r := drain(par)
		if !reflect.DeepEqual(r.rows, ref.rows) {
			t.Fatalf("par%d: output diverges from the serial reference", par)
		}
		if !reflect.DeepEqual(r.sorts, ref.sorts) {
			t.Fatalf("par%d: sort counters vary:\n got %+v\nwant %+v", par, r.sorts, ref.sorts)
		}
		if r.io != ref.io {
			t.Fatalf("par%d: IO attribution varies: got %+v want %+v", par, r.io, ref.io)
		}
	}
}
