package core

import (
	"strings"
	"testing"

	"pyro/internal/catalog"
	"pyro/internal/storage"
	"pyro/internal/workload"
)

// TestFigure10bPlanShape pins the PYRO-O Query 3 plan to the structure of
// the paper's Figure 10(b):
//
//	Sort (partkey)                     <- cheap final sort, few rows
//	  Filter (HAVING)
//	    Group Aggregate                <- pipelined, no hash agg
//	      Merge Join (suppkey, partkey)
//	        Partial Sort (suppkey) -> (suppkey, partkey)
//	          Covering Index Scan partsupp
//	        Partial Sort (suppkey) -> (suppkey, partkey)
//	          Filter (linestatus)
//	            Covering Index Scan lineitem
func TestFigure10bPlanShape(t *testing.T) {
	disk := storage.NewDisk(0)
	cat := catalog.New(disk)
	cfg := workload.DefaultTPCH()
	if err := workload.BuildTPCH(cat, cfg); err != nil {
		t.Fatal(err)
	}
	q3, err := workload.Query3(cat)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(HeuristicFavorable)
	opts.Model.MemoryBlocks = 32
	res, err := Optimize(q3, opts)
	if err != nil {
		t.Fatal(err)
	}
	sig := res.Plan.Signature()
	want := "Sort>Filter>GroupAggregate>MergeJoin>PartialSort>CoveringIndexScan>PartialSort>Filter>CoveringIndexScan"
	if sig != want {
		t.Fatalf("plan shape diverged from Figure 10(b):\n got: %s\nwant: %s\n\n%s",
			sig, want, res.Plan.Format())
	}
	// The merge join key must lead with suppkey (the partial-sort-friendly
	// choice), not partkey (the clustering/ORDER BY-friendly choice that
	// needs a full lineitem sort).
	res.Plan.Walk(func(p *Plan) {
		if p.Kind == OpMergeJoin && p.LeftKey[0] != "ps_suppkey" {
			t.Fatalf("merge join should lead with suppkey: %v", p.LeftKey)
		}
	})
	// Both partial sorts exploit the single-attribute index prefixes.
	partials := 0
	res.Plan.Walk(func(p *Plan) {
		if p.IsPartialSort() {
			partials++
			if p.SortGiven.Len() != 1 || !strings.HasSuffix(p.SortGiven[0], "suppkey") {
				t.Fatalf("partial sort prefix should be a suppkey: %v -> %v", p.SortGiven, p.SortTarget)
			}
		}
	})
	if partials != 2 {
		t.Fatalf("expected 2 partial sorts, got %d", partials)
	}
	checkOrders(t, res.Plan, disk)
}

// checkOrders fails t unless every order the plan's nodes claim holds on
// what those subtrees produce (CheckOrders), at the 32-block budget the
// plan was optimized for.
func checkOrders(t *testing.T, p *Plan, disk *storage.Disk) {
	t.Helper()
	if err := CheckOrders(p, BuildConfig{Disk: disk, SortMemoryBlocks: 32}); err != nil {
		t.Fatalf("%v\n%s", err, p.Format())
	}
}

// TestFigure14PlanShape pins the PYRO-O Query 4 plan: two merge full outer
// joins whose key permutations share the (c4, c5) prefix, with the second
// join fed by a partial sort over the first's output.
func TestFigure14PlanShape(t *testing.T) {
	disk := storage.NewDisk(0)
	cat := catalog.New(disk)
	if err := workload.BuildOuterJoinTables(cat, 20_000, 5); err != nil {
		t.Fatal(err)
	}
	q4, err := workload.Query4(cat)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(HeuristicFavorable)
	opts.Model.MemoryBlocks = 32
	res, err := Optimize(q4, opts)
	if err != nil {
		t.Fatal(err)
	}
	var keys [][]string
	res.Plan.Walk(func(p *Plan) {
		if p.Kind == OpMergeJoin {
			keys = append(keys, p.LeftKey)
		}
	})
	if len(keys) != 2 {
		t.Fatalf("want 2 merge joins:\n%s", res.Plan.Format())
	}
	base := func(a string) string { return a[len(a)-2:] }
	for i := 0; i < 2; i++ {
		if base(keys[0][i]) != base(keys[1][i]) {
			t.Fatalf("joins must share a 2-attribute prefix: %v vs %v", keys[0], keys[1])
		}
		if got := base(keys[0][i]); got != "c4" && got != "c5" {
			t.Fatalf("shared prefix should be the common attributes c4/c5, got %v", keys[0])
		}
	}
	// The upper join's input from the lower join needs only a partial sort
	// (prefix shared), never a full re-sort of the join output.
	res.Plan.Walk(func(p *Plan) {
		if p.Kind == OpSort && !p.IsPartialSort() && len(p.Children) == 1 {
			if p.Children[0].Kind == OpMergeJoin {
				t.Fatalf("full re-sort of a join output — phase 2 failed:\n%s", res.Plan.Format())
			}
		}
	})
	checkOrders(t, res.Plan, disk)
}
