package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pyro/internal/catalog"
	"pyro/internal/logical"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestPlanCostGolden pins whole-plan costs: the Format of each plan in a
// fixed corpus and the PrefixCost of its root and of every sort in it at
// k = 1, 10, N/2 and N of that node's rows. The corpus covers every way the
// model prices a sort enforcer — partial sorts with many segments, one with
// a single segment, a full sort that spills, a bounded sort over one
// covering segment and over several, and a row target. A change that
// reprices anything shows up here; regenerate with
//
//	go test ./internal/core -run TestPlanCostGolden -update
func TestPlanCostGolden(t *testing.T) {
	type plan struct {
		name string
		root logical.Node
		opts Options
	}
	withMem := func(m int64, mut ...func(*Options)) Options {
		o := DefaultOptions(HeuristicFavorable)
		o.Model.MemoryBlocks = m
		for _, f := range mut {
			f(&o)
		}
		return o
	}
	rowTarget := func(k int64) func(*Options) { return func(o *Options) { o.RowTarget = k } }

	cat := catalog.New(storage.NewDisk(0))
	if err := workload.BuildTPCH(cat, workload.DefaultTPCH()); err != nil {
		t.Fatal(err)
	}
	q3, err := workload.Query3(cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.BuildOuterJoinTables(cat, 20_000, 5); err != nil {
		t.Fatal(err)
	}
	q4, err := workload.Query4(cat)
	if err != nil {
		t.Fatal(err)
	}
	// seg: 20 000 rows clustered on c1 in 200 segments of 100; big: 10 050
	// rows in 11 segments, the last of 50, each more than 4 blocks hold;
	// one: 5 000 rows sharing a single c1, so a partial sort on it has one
	// segment.
	seg, err := workload.BuildSegmentTable(cat, "seg", 20_000, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	big, err := workload.BuildSegmentTable(cat, "big", 10_050, 1_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	one, err := workload.BuildSegmentTable(cat, "one", 5_000, 5_000, 8)
	if err != nil {
		t.Fatal(err)
	}
	bySeg := func(tb *catalog.Table) logical.Node {
		return logical.NewOrderBy(logical.NewScan(tb), sortord.New("c1", "c2"))
	}

	corpus := []plan{
		{"q3 M=32", q3, withMem(32)},
		{"q3 M=32 row target 100", q3, withMem(32, rowTarget(100))},
		{"q4 M=32", q4, withMem(32)},
		{"limit 50 over one covering segment", logical.NewLimit(bySeg(seg), 50), withMem(32)},
		{"limit 1 000 over ten covering segments", logical.NewLimit(bySeg(seg), 1_000), withMem(32)},
		{"limit 15 000 over most segments M=4", logical.NewLimit(bySeg(seg), 15_000), withMem(4)},
		{"limit 2 500 over three spilling segments M=4", logical.NewLimit(bySeg(big), 2_500), withMem(4)},
		{"limit 10 000 over every spilling segment M=4", logical.NewLimit(bySeg(big), 10_000), withMem(4)},
		{"partial sort over 200 segments", bySeg(seg), withMem(32)},
		{"partial sort over 11 spilling segments M=4", bySeg(big), withMem(4)},
		{"full sort spilling M=4", logical.NewOrderBy(logical.NewScan(seg), sortord.New("c2")), withMem(4)},
		{"full sort limit 10 M=4", logical.NewLimit(logical.NewOrderBy(logical.NewScan(seg), sortord.New("c2")), 10), withMem(4)},
		{"full sort limit 5 000 spilling M=4", logical.NewLimit(logical.NewOrderBy(logical.NewScan(seg), sortord.New("c2")), 5_000), withMem(4)},
		{"partial sort over one segment M=4", bySeg(one), withMem(4)},
		{"partial sort row target 10", bySeg(seg), withMem(32, rowTarget(10))},
	}

	var b strings.Builder
	for _, c := range corpus {
		res := mustOptimize(t, c.root, c.opts)
		fmt.Fprintf(&b, "== %s\n%s", c.name, res.Plan.Format())
		res.Plan.Walk(func(p *Plan) {
			if p != res.Plan && p.Kind != OpSort {
				return
			}
			fmt.Fprintf(&b, "prefix %s rows=%d:", p.describe(), p.Rows)
			for _, k := range []int64{1, 10, p.Rows / 2, p.Rows} {
				fmt.Fprintf(&b, " %d=%.6f", k, p.PrefixCost(k))
			}
			b.WriteString("\n")
		})
		b.WriteString("\n")
	}

	path := filepath.Join("testdata", "plan_costs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("plan costs differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
