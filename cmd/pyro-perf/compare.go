package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

var errNoResults = errors.New("no results files")

// benchmarkSpec is BENCHMARK.json: the declaration the driver checks the
// benchmark against and -compare takes directions and bounds from.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadResults reads one results file, or every results-*.json of a
// directory, and groups the runs by workload and trace mode.
func loadResults(path string) (map[string][]*results, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "results-*.json")); err != nil {
			return nil, err
		}
	}
	out := make(map[string][]*results)
	for _, f := range files {
		var r results
		if err := readJSON(f, &r); err != nil {
			return nil, err
		}
		key := fmt.Sprintf("%s/%d", r.Workload, r.Trace)
		out[key] = append(out[key], &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: %w", path, errNoResults)
	}
	return out, nil
}

// values collects one metric over a set of runs.
func values(runs []*results, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so spreads
// here read the same as the driver's.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// worseBy is how much worse new reads than old, as a share of old, under
// the metric's direction; negative when it reads better.
func worseBy(old, new float64, better string) float64 {
	d := ratio(new-old, old)
	if better == "higher" {
		return -d
	}
	return d
}

// sameSeeds reports whether both sets were generated from the same seeds,
// which is when the exact metrics must agree bit for bit.
func sameSeeds(a, b []*results) bool {
	seeds := func(rs []*results) string {
		var s []string
		for _, r := range rs {
			s = append(s, fmt.Sprint(r.Seed))
		}
		sort.Strings(s)
		return strings.Join(s, ",")
	}
	return seeds(a) == seeds(b)
}

// verdict judges one end-to-end metric of one workload: the new set's
// median may not be worse than the old set's by more than the bound; when
// either set's own spread exceeds the bound the metric is unresolved
// unless every new run reads better than every old run. Exact metrics on
// the single-client workloads tolerate nothing when the seeds match.
func verdict(old, new []float64, m specMetric, exact bool) string {
	bound := m.Bound
	if exact {
		bound = 0
	}
	if !exact && (spread(old) > bound || spread(new) > bound) {
		for _, o := range old {
			for _, n := range new {
				if worseBy(o, n, m.Better) >= 0 {
					return "unresolved"
				}
			}
		}
		return "ok"
	}
	if worseBy(median(old), median(new), m.Better) > bound {
		return "worse"
	}
	return "ok"
}

// compareResults prints one row per workload × end-to-end metric with its
// verdict, then the per-layer metrics as deltas (they never gate), and
// reports whether any metric was judged worse.
func compareResults(specPath, oldPath, newPath string, w io.Writer) (bool, error) {
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	olds, err := loadResults(oldPath)
	if err != nil {
		return false, err
	}
	news, err := loadResults(newPath)
	if err != nil {
		return false, err
	}
	anyWorse := false
	row := func(workload string, m specMetric, old, new []float64, tag string) {
		fmt.Fprintf(w, "%-13s %-34s %14.6g %14.6g %+8.2f%% %6.2f%% %6.2f%%  %s\n",
			workload, m.Name, median(old), median(new),
			100*ratio(median(new)-median(old), median(old)), 100*spread(old), 100*spread(new), tag)
	}
	fmt.Fprintf(w, "%-13s %-34s %14s %14s %9s %7s %7s  %s\n",
		"workload", "metric", "old", "new", "delta", "spr.old", "spr.new", "verdict")
	for _, name := range workloadNames {
		o, n := olds[name+"/0"], news[name+"/0"]
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			ov, nv := values(o, m.Name), values(n, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			exact := exactMetrics[m.Name] && o[0].Clients == 1 && sameSeeds(o, n)
			v := verdict(ov, nv, m, exact)
			anyWorse = anyWorse || v == "worse"
			row(name, m, ov, nv, v)
		}
	}
	for _, name := range workloadNames {
		o, n := olds[name+"/1"], news[name+"/1"]
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		for _, m := range spec.PerLayer {
			ov, nv := values(o, m.Name), values(n, m.Name)
			if len(ov) == 0 || len(nv) == 0 || (median(ov) == 0 && median(nv) == 0) {
				continue
			}
			row(name, m, ov, nv, "-")
		}
	}
	return anyWorse, nil
}
