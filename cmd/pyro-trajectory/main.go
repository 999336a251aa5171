// Command pyro-trajectory condenses one paired A/B run of the benchmark
// (scripts/perf-ab.sh) into the machine-readable record a PR commits as
// BENCH_<pr>.json: for every workload × end-to-end metric the parent's and
// the change's median and quartiles over the pairs, how many pairs the
// change won, and the verdict `pyro-perf -compare` gave. It reads what the
// A/B run already produced — the two directories of results-*.json and the
// saved -compare table — and measures nothing itself.
//
//	pyro-trajectory -verdicts compare.txt -base 140d079 \
//	    -out BENCH_16.json perf-ab/old perf-ab/new
//
// It runs from the repository root: metric order, units and directions come
// from ./BENCHMARK.json. A workload × metric the -compare table has no
// verdict for is an error — the table is scraped by column position, and a
// change of its format must not pass as a record with empty verdicts.
//
// Quartiles use the exclusive method (Python's statistics.quantiles, n=4),
// as pyro-perf and the driver that judges a PR do, so the gain rule — the
// change wins at least nine tenths of the pairs and the medians differ by
// more than the parent's q3 − q1 — can be read straight off the file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the record needs: the end-to-end
// metrics in their declared order, with direction.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// run is one results-*.json as pyro-perf wrote it.
type run struct {
	Workload  string `json:"workload"`
	Trace     int    `json:"trace"`
	Seed      int64  `json:"seed"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// side summarises one side's runs of one metric.
type side struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type metricRecord struct {
	Name    string `json:"name"`
	Unit    string `json:"unit"`
	Better  string `json:"better"`
	Parent  side   `json:"parent"`
	Change  side   `json:"change"`
	Pairs   int    `json:"pairs"`
	Won     int    `json:"pairs_won"` // by the change; ties count for neither
	Lost    int    `json:"pairs_lost"`
	Verdict string `json:"verdict"`
}

type workloadRecord struct {
	Name         string         `json:"name"`
	ParentFailed int64          `json:"parent_failed_ops"`
	ChangeFailed int64          `json:"change_failed_ops"`
	Metrics      []metricRecord `json:"metrics"`
}

type record struct {
	Base      string           `json:"base"`
	Pairs     int              `json:"pairs"`
	Workloads []workloadRecord `json:"workloads"`
}

// specPath is the benchmark declaration, relative to the repository root.
const specPath = "BENCHMARK.json"

func main() {
	verdicts := flag.String("verdicts", "", "saved output of `pyro-perf -compare old new` to take verdicts from")
	base := flag.String("base", "", "the parent revision the old side was built from (recorded verbatim)")
	out := flag.String("out", "", "file to write the record to")
	flag.Parse()
	if flag.NArg() != 2 || *out == "" || *verdicts == "" {
		fmt.Fprintln(os.Stderr, "usage: pyro-trajectory -verdicts compare.txt -out BENCH.json [-base REV] OLD_DIR NEW_DIR")
		os.Exit(2)
	}
	rec, err := build(specPath, *verdicts, flag.Arg(0), flag.Arg(1))
	if err == nil {
		rec.Base = *base
		var buf []byte
		if buf, err = json.MarshalIndent(rec, "", " "); err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyro-trajectory:", err)
		os.Exit(1)
	}
}

// build assembles the record from the two results directories.
func build(specPath, verdictPath, oldDir, newDir string) (*record, error) {
	var sp spec
	if err := readJSON(specPath, &sp); err != nil {
		return nil, err
	}
	verdict, err := readVerdicts(verdictPath)
	if err != nil {
		return nil, err
	}
	olds, err := loadRuns(oldDir)
	if err != nil {
		return nil, err
	}
	news, err := loadRuns(newDir)
	if err != nil {
		return nil, err
	}
	rec := &record{}
	for _, w := range sp.Workloads {
		o, n := olds[w.Name], news[w.Name]
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		wr := workloadRecord{Name: w.Name}
		for _, r := range o {
			wr.ParentFailed += r.Failed
		}
		for _, r := range n {
			wr.ChangeFailed += r.Failed
		}
		for _, m := range sp.EndToEnd {
			mr := metricRecord{Name: m.Name, Unit: m.Unit, Better: m.Better, Verdict: verdict[w.Name+" "+m.Name]}
			if mr.Verdict == "" {
				return nil, fmt.Errorf("%s: no verdict for %s %s: has the -compare table changed format?", verdictPath, w.Name, m.Name)
			}
			var ov, nv []float64
			for seed, or := range o {
				nr, ok := n[seed]
				if !ok {
					return nil, fmt.Errorf("%s seed %d has no run on the new side: the sides are not paired", w.Name, seed)
				}
				a, b := or.Metrics[m.Name].Value, nr.Metrics[m.Name].Value
				ov, nv = append(ov, a), append(nv, b)
				if m.Better == "higher" {
					a, b = b, a
				}
				mr.Pairs++
				switch {
				case b < a:
					mr.Won++
				case b > a:
					mr.Lost++
				}
			}
			mr.Parent, mr.Change = summarise(ov), summarise(nv)
			wr.Metrics = append(wr.Metrics, mr)
			rec.Pairs = mr.Pairs
		}
		rec.Workloads = append(rec.Workloads, wr)
	}
	if len(rec.Workloads) == 0 {
		return nil, errors.New("no workload has untraced runs on both sides")
	}
	return rec, nil
}

// loadRuns reads a directory's untraced results, by workload and seed.
func loadRuns(dir string) (map[string]map[int64]*run, error) {
	files, err := filepath.Glob(filepath.Join(dir, "results-*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[int64]*run)
	for _, f := range files {
		var r run
		if err := readJSON(f, &r); err != nil {
			return nil, err
		}
		if r.Trace != 0 {
			continue // end-to-end metrics are measured with tracing off
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[int64]*run)
		}
		out[r.Workload][r.Seed] = &r
	}
	return out, nil
}

// readVerdicts takes the verdict column of a saved `pyro-perf -compare`
// table: every row starts with the workload and the metric and ends with
// the verdict ("-" on per-layer rows, which are skipped).
func readVerdicts(path string) (map[string]string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for _, line := range strings.Split(string(buf), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		switch v := fields[len(fields)-1]; v {
		case "ok", "worse", "unresolved":
			out[fields[0]+" "+fields[1]] = v
		}
	}
	return out, nil
}

func summarise(xs []float64) side {
	q1, q3 := quartiles(xs)
	return side{Median: median(xs), Q1: q1, Q3: q3}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the exclusive
// method: position i·(n+1)/4, interpolated, clamped to the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
