package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v", q1, q3, median(xs))
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
}

// TestBuildPairsBySeedAndDirection: pairs are matched by seed, a win is
// read in the metric's own direction, ties count for neither side, traced
// runs are ignored and verdicts come from the saved -compare table.
func TestBuildPairsBySeedAndDirection(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specPath := write("spec.json", `{"workloads":[{"name":"topk_serve"},{"name":"absent"}],
		"end_to_end":[{"name":"io_pages","unit":"pages/op","better":"lower"},
		              {"name":"ops_per_s","unit":"1/s","better":"higher"}]}`)
	verdictPath := write("compare.txt", `workload      metric    old new delta spr.old spr.new  verdict
topk_serve    io_pages   83 37 -55.00% 0.10% 0.20%  ok
topk_serve    ops_per_s  1700 2600 +52.00% 30.00% 30.00%  unresolved
topk_serve    xsort.in_per_out  85 73 -14.00% 0.00% 0.00%  -
`)
	result := func(side string, seed, trace int, pages, ops float64, failed int) {
		write(fmt.Sprintf("%s/results-topk_serve-seed%d-trace%d.json", side, seed, trace), fmt.Sprintf(
			`{"workload":"topk_serve","trace":%d,"seed":%d,"failed":%d,
			  "metrics":{"io_pages":{"value":%g},"ops_per_s":{"value":%g}}}`, trace, seed, failed, pages, ops))
	}
	// seed: pages old→new, ops old→new
	result("old", 1, 0, 83, 1700, 0)
	result("new", 1, 0, 37, 2600, 0) // wins both
	result("old", 2, 0, 84, 1800, 0)
	result("new", 2, 0, 38, 1500, 1) // wins pages, loses ops
	result("old", 3, 0, 82, 1600, 0)
	result("new", 3, 0, 82, 1600, 0) // ties
	result("new", 3, 1, 1, 1, 0)     // traced: ignored

	rec, err := build(specPath, verdictPath, filepath.Join(dir, "old"), filepath.Join(dir, "new"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Workloads) != 1 || rec.Pairs != 3 {
		t.Fatalf("record = %+v", rec)
	}
	w := rec.Workloads[0]
	if w.ParentFailed != 0 || w.ChangeFailed != 1 {
		t.Fatalf("failed ops = %d/%d, want 0/1", w.ParentFailed, w.ChangeFailed)
	}
	pages, ops := w.Metrics[0], w.Metrics[1]
	if pages.Name != "io_pages" || pages.Won != 2 || pages.Lost != 0 || pages.Verdict != "ok" ||
		pages.Parent.Median != 83 || pages.Change.Median != 38 {
		t.Fatalf("io_pages = %+v", pages)
	}
	if ops.Name != "ops_per_s" || ops.Won != 1 || ops.Lost != 1 || ops.Verdict != "unresolved" {
		t.Fatalf("ops_per_s = %+v", ops)
	}

	// A metric the -compare table has no verdict row for is an error, not an
	// empty verdict.
	short := write("short.txt", "topk_serve    io_pages   83 37 -55.00% 0.10% 0.20%  ok\n")
	if _, err := build(specPath, short, filepath.Join(dir, "old"), filepath.Join(dir, "new")); err == nil {
		t.Fatal("a metric without a scraped verdict should fail")
	}

	// An unpaired seed is an error, not a silently shorter sample.
	result("old", 4, 0, 80, 1500, 0)
	if _, err := build(specPath, verdictPath, filepath.Join(dir, "old"), filepath.Join(dir, "new")); err == nil {
		t.Fatal("an old-side seed without a new-side run should fail")
	}
}
