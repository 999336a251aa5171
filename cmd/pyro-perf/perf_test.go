package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

const specPath = "../../BENCHMARK.json"

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesDeclaration pins BENCHMARK.json to the code: same
// workloads, same metric names and units in the same order, and every
// limit of the benchmark contract.
func TestSpecMatchesDeclaration(t *testing.T) {
	spec := loadSpec(t)
	if want := []string{"go", "run", "./cmd/pyro-perf"}; !reflect.DeepEqual(spec.Command, want) {
		t.Errorf("command = %v, want %v", spec.Command, want)
	}
	if want := []string{"cmd/pyro-perf"}; !reflect.DeepEqual(spec.Paths, want) {
		t.Errorf("paths = %v, want %v", spec.Paths, want)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	if len(spec.Workloads) > 8 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("limits exceeded: %d workloads, %d end-to-end, %d per-layer",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code emits %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), the code emits %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: name %q or unit %q outside the allowed characters", kind, m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("%s: %s is used twice", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if s := spec.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("setup_s must be declared in seconds, lower is better: %+v", s)
	}
	for name := range exactMetrics {
		if !seen[name] {
			t.Errorf("exact metric %s is not declared", name)
		}
	}
}

// TestQuickRuns runs every workload, untraced and traced, at the quick
// size: the reference check passes, every declared metric is emitted, the
// exact counters repeat op to op, nothing leaks, and the results survive a
// JSON round trip.
func TestQuickRuns(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, spans, err := execute(options{
				workload: name, seed: 7, window: 250 * time.Millisecond,
				traced: traced, quick: true, sizes: quickSizes,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					name, traced, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if len(spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", name)
				}
				for _, zero := range []string{"storage.live_temp_files_end", "storage.live_arenas_end"} {
					if v := res.Metrics[zero].Value; v != 0 {
						t.Errorf("%s: %s = %v", name, zero, v)
					}
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (emitted %v)", name, traced, d.name, v, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.name, v.Value)
				}
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back results
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*res, back) {
				t.Errorf("%s traced=%v: results changed in a JSON round trip", name, traced)
			}
		}
	}
}

// TestLayersAreStressedDifferently checks, at the quick size, the counter
// signatures the workloads were chosen for.
func TestLayersAreStressedDifferently(t *testing.T) {
	layer := make(map[string]map[string]metricValue)
	for _, name := range workloadNames {
		res, _, err := execute(options{
			workload: name, seed: 3, window: 100 * time.Millisecond, traced: true, quick: true, sizes: quickSizes,
		})
		if err != nil {
			t.Fatal(err)
		}
		layer[name] = res.Metrics
	}
	val := func(w, m string) float64 { return layer[w][m].Value }
	if v := val("sort_partial", "storage.run_page_writes"); v != 0 {
		t.Errorf("sort_partial wrote %v run pages; the partial sort must not spill", v)
	}
	if run, all := val("sort_spill", "storage.run_page_reads")+val("sort_spill", "storage.run_page_writes"),
		val("sort_spill", "storage.page_reads")+val("sort_spill", "storage.page_writes"); run <= all/2 {
		t.Errorf("sort_spill: run pages %v of %v pages; spill I/O must dominate", run, all)
	}
	if v := val("sort_spill", "xsort.merge_passes"); v < 1 {
		t.Errorf("sort_spill: %v intermediate merge passes, want at least 1", v)
	}
	for _, w := range workloadNames {
		if seeks := val(w, "storage.seeks"); (seeks > 0) != (w == "plan_join") {
			t.Errorf("%s: %v seeks; only plan_join's deferred fetch seeks", w, seeks)
		}
		if w != "topk_serve" && val(w, "xsort.in_per_out") != 1 {
			t.Errorf("%s: in_per_out = %v on a full drain", w, val(w, "xsort.in_per_out"))
		}
	}
	if v := val("topk_serve", "xsort.in_per_out"); v < 2 {
		t.Errorf("topk_serve: in_per_out = %v; Top-K must read more than it returns", v)
	}
	for _, w := range workloadNames {
		if hits := val(w, "plancache.hits"); (hits > 0) != (w == "topk_serve") {
			t.Errorf("%s: %v plan-cache hits; only topk_serve runs with the cache on", w, hits)
		}
	}
	if v := val("plan_join", "core.phase2_improved"); v < 1 {
		t.Errorf("plan_join: phase-2 refinement improved %v plans per op, want q4's", v)
	}
}

// TestCheckerCatchesCorruption feeds the per-op check and the row-by-row
// comparison a good result, one with a corrupted value and one with two
// rows swapped.
func TestCheckerCatchesCorruption(t *testing.T) {
	kinds := []colKind{colInt, colInt, colStr}
	all, order := []int{0, 1, 2}, []int{0, 1}
	var want [][]any
	for i := 0; i < 50; i++ {
		want = append(want, []any{int64(i / 10), int64(i % 10), "payload"})
	}
	ref, err := expect(want, kinds, all, order)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() [][]any {
		out := make([][]any, len(want))
		for i, r := range want {
			out[i] = append([]any(nil), r...)
		}
		return out
	}
	perOp := func(rows [][]any) error {
		s, c := newSlots(kinds), newRowCheck(all, order)
		for _, r := range rows {
			if err := s.load(r); err != nil {
				t.Fatal(err)
			}
			c.add(s)
		}
		return c.verify(ref)
	}

	if err := perOp(want); err != nil {
		t.Errorf("per-op check rejects the reference itself: %v", err)
	}
	if err := compareRows(clone(), want, all, order); err != nil {
		t.Errorf("row comparison rejects the reference itself: %v", err)
	}

	corrupted := clone()
	corrupted[17][2] = "pay1oad"
	if perOp(corrupted) == nil || compareRows(corrupted, want, all, order) == nil {
		t.Error("a corrupted non-key value went unnoticed")
	}
	swapped := clone()
	swapped[20], swapped[31] = swapped[31], swapped[20]
	if err := perOp(swapped); err == nil || !strings.Contains(err.Error(), "sorts before") {
		t.Errorf("per-op check on swapped rows: %v", err)
	}
	if compareRows(swapped, want, all, order) == nil {
		t.Error("row comparison missed two swapped rows")
	}
	if perOp(want[:49]) == nil || compareRows(clone()[:49], want, all, order) == nil {
		t.Error("a missing row went unnoticed")
	}
	// Rows tied on the ORDER BY keys may arrive in either order.
	tied := [][]any{{int64(1), int64(1), "a"}, {int64(1), int64(1), "b"}}
	if err := compareRows([][]any{tied[1], tied[0]}, tied, all, order); err != nil {
		t.Errorf("tied rows in the other order rejected: %v", err)
	}
}

// TestReferenceOuterJoin pins the reference's FULL JOIN ... USING
// semantics on a hand-checked case.
func TestReferenceOuterJoin(t *testing.T) {
	left := [][]any{{int64(1), "l1"}, {int64(2), "l2"}}
	right := [][]any{{int64(2), "r2"}, {int64(3), "r3"}}
	got := refFullOuterJoin(left, right, []int{0}, []int{0}, 2, 2)
	want := [][]any{
		{int64(1), "l1", int64(1), nil},
		{int64(2), "l2", int64(2), "r2"},
		{int64(3), nil, int64(3), "r3"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
}

// TestCompare writes synthetic results files and checks the verdicts and
// exit codes of -compare.
func TestCompare(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	write := func(sub string, seed int64, scale map[string]float64) string {
		res := results{
			outcome:  outcome{Correct: true, Attempted: 10, Metrics: make(map[string]metricValue)},
			Workload: "sort_spill", Seed: seed, Clients: 1,
		}
		for _, m := range spec.EndToEnd {
			f, ok := scale[m.Name]
			if !ok {
				f = 1
			}
			res.Metrics[m.Name] = metricValue{Value: 100 * f, Unit: m.Unit}
		}
		if err := report(&res, nil, filepath.Join(dir, sub), &bytes.Buffer{}, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		return filepath.Join(dir, sub)
	}
	base := write("base", 1, nil)
	for _, tc := range []struct {
		name    string
		scale   map[string]float64
		seed    int64
		code    int
		verdict string
	}{
		{"identical", nil, 1, 0, ""},
		{"slower", map[string]float64{"query_ms_p50": 1.3}, 1, 1, "query_ms_p50"},
		{"within-bound", map[string]float64{"query_ms_p50": 1.2}, 1, 0, ""},
		{"faster", map[string]float64{"query_ms_p50": 0.7}, 1, 0, ""},
		{"throughput-down", map[string]float64{"ops_per_s": 0.7}, 1, 1, "ops_per_s"},
		{"one-more-page", map[string]float64{"io_pages": 1.001}, 1, 1, "io_pages"},
		{"one-more-page-other-seed", map[string]float64{"io_pages": 1.001}, 2, 0, ""},
	} {
		var out, errOut bytes.Buffer
		code := cli([]string{"-spec", specPath, "-compare", base, write(tc.name, tc.seed, tc.scale)}, &out, &errOut)
		if code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s%s", tc.name, code, tc.code, out.String(), errOut.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasSuffix(line, "worse") != (tc.verdict != "" && strings.Contains(line, " "+tc.verdict+" ")) {
				t.Errorf("%s: unexpected verdict line: %s", tc.name, line)
			}
		}
	}

	// Two sets whose own spread exceeds the bound cannot resolve a small
	// shift; a set that beats every old run still can.
	m := specMetric{Name: "query_ms_p50", Better: "lower", Bound: 0.10}
	noisy := []float64{80, 100, 120, 140}
	if v := verdict(noisy, []float64{85, 105, 125, 145}, m, false); v != "unresolved" {
		t.Errorf("noisy overlap: %s", v)
	}
	if v := verdict(noisy, []float64{40, 50, 60, 70}, m, false); v != "ok" {
		t.Errorf("noisy but every run better: %s", v)
	}
}

// TestLastLineIsTheContractObject runs the command as the driver does and
// checks the shape of the last line of standard output.
func TestLastLineIsTheContractObject(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"--workload", "sort_partial", "--seed", "5", "--seconds", "0.2", "--trace", "0", "-quick"}
	if code := cli(args, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	if len(keys) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("last line has keys %v", keys)
	}
	for _, d := range endToEnd {
		if !strings.Contains(out.String(), d.name) {
			t.Errorf("metric %s is not printed by name", d.name)
		}
	}
	if code := cli([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Error("an unknown workload exits 0")
	}
}
