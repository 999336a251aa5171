package pyro

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"pyro/internal/storage"
)

// spillDB builds a workload whose ORDER BY must spill: 12k rows shuffled
// by a multiplicative hash, 512-byte pages, an 8-block sort budget, sorting
// at parallelism par.
func spillDB(t *testing.T, par int) *Database {
	t.Helper()
	db := Open(Config{PageSize: 512, SortMemoryBlocks: 8, SortParallelism: par})
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
	type result struct {
		rows  [][]any
		sorts []SortStats
		io    IOStats
	}
	drain := func(par int) result {
		t.Helper()
		db := spillDB(t, par)
		plan, err := db.Optimize(db.Scan("t").OrderBy("b", "a"))
		if err != nil {
			t.Fatal(err)
		}
		checkInteriorOrders(t, db, plan)
		cur, err := db.Query(context.Background(), plan)
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

// TestKeptTailsStayWithinTheirBudget follows the memory a spilling sort
// keeps for its final merge on the plan_join benchmark's q4 shape: three full
// sorts of about 7 500 rows, a little over one memory load each at M = 64,
// under two full outer merge joins (and a partial sort between them, which
// fits). Every sort spills and keeps the rows it
// still holds at input end through its final merge, so the three merges run
// at once, each over its own kept tail: the blocks out of the disk's pool at
// the first row are those tails. Each sort must still stay within its
// budget. The blocks out at the first row are logged, the trade a kept tail
// makes for the pages it does not move.
func TestKeptTailsStayWithinTheirBudget(t *testing.T) {
	const blocks = 64
	db := Open(Config{SortMemoryBlocks: blocks, PlanCacheSize: -1})
	for i, prefix := range []string{"a_", "b_", "c_"} {
		cols := make([]Column, 5)
		for c := range cols {
			cols[c] = Column{Name: fmt.Sprintf("%sc%d", prefix, c+1), Type: Int64}
		}
		rows := make([][]any, 7500+50*i)
		for r := range rows {
			h := uint64(r*3+i+1) * 0x9e3779b97f4a7c15
			rows[r] = []any{int64(h >> 59 % 40), int64(h >> 50 % 40), int64(h >> 40 % 25), int64(h >> 30 % 25), int64(h >> 20 % 25)}
		}
		if err := db.CreateTable(fmt.Sprintf("r%d", i+1), cols, nil, rows); err != nil {
			t.Fatal(err)
		}
	}
	q := db.Scan("r1").
		FullOuterJoin(db.Scan("r2"), And(
			Eq(Col("a_c5"), Col("b_c5")), Eq(Col("a_c4"), Col("b_c4")), Eq(Col("a_c3"), Col("b_c3")))).
		FullOuterJoin(db.Scan("r3"), And(
			Eq(Col("c_c1"), Col("a_c1")), Eq(Col("c_c4"), Col("a_c4")), Eq(Col("c_c5"), Col("a_c5"))))
	plan, err := db.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := db.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatalf("no first row: %v", cur.Err())
	}
	atFirst := db.Disk().LiveBlocks()
	for cur.Next() {
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	budget := int64(blocks * storage.DefaultPageSize)
	spilled := 0
	for i, s := range cur.Stats().Sorts {
		if s.RunsGenerated > 0 {
			spilled++
			if s.MergePasses != 0 {
				t.Errorf("sort %d was meant to merge with no pass: %+v", i, s)
			}
		}
		if s.PeakMemBytes > budget {
			t.Errorf("sort %d peaked at %d bytes, over its %d-byte budget", i, s.PeakMemBytes, budget)
		}
	}
	if spilled != 3 {
		t.Fatalf("%d sorts spilled, want q4's three full sorts: %+v", spilled, cur.Stats().Sorts)
	}
	if n := db.Disk().LiveBlocks(); n != 0 {
		t.Fatalf("%d blocks still out after Close", n)
	}
	t.Logf("blocks out at the first row: %d (budget %d a sort); run pages moved: %d",
		atFirst, blocks, cur.Stats().IO.RunPageReads+cur.Stats().IO.RunPageWrites)
}
