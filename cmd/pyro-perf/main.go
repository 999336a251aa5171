// Command pyro-perf is the repository's benchmark: four closed-loop
// workloads driven through the public pyro API, every result checked
// against an independent reference, reported as end-to-end metrics
// (tracing off) or per-layer metrics (a traced run plus layer probes).
// BENCHMARK.json at the repo root declares the metrics, their directions
// and bounds; README.md in this directory explains the choices.
//
//	go run ./cmd/pyro-perf -workload sort_spill -seed 1 -seconds 20 -trace 0
//	go run ./cmd/pyro-perf -trace 1 -out perf-out      # all four, traced
//	go run ./cmd/pyro-perf -compare old/ new/          # verdict per metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs the command and returns its exit code: 0 on success, 1 when a
// result check failed or -compare found a metric worse, 2 on usage errors.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pyro-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: sort_partial, sort_spill, plan_join, topk_serve or all")
	seed := fs.Int64("seed", 1, "seed for all generated data and the topk_serve k-draws")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run and layer probes, per-layer metrics")
	quick := fs.Bool("quick", false, "tiny datasets (the smoke test's size; numbers are not comparable)")
	out := fs.String("out", "", "directory to write results-*.json (and trace-*.json when tracing) into")
	compare := fs.Bool("compare", false, "compare two results files or directories given as arguments: old new")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark declaration -compare takes directions and bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "pyro-perf: -compare takes two arguments: old new")
			return 2
		}
		worse, err := compareResults(*spec, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "pyro-perf:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "pyro-perf: unexpected arguments; see -help")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	sz := fullSizes
	if *quick {
		sz = quickSizes
	}
	code := 0
	for _, name := range names {
		opts := options{
			workload: name, seed: *seed, traced: *trace == 1, quick: *quick, sizes: sz,
			window: time.Duration(*seconds * float64(time.Second)),
		}
		res, spans, err := execute(opts)
		if err != nil {
			fmt.Fprintln(stderr, "pyro-perf:", err)
			return 1
		}
		if err := report(res, spans, *out, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "pyro-perf:", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// options selects one run.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	quick    bool
	sizes    sizes
}

// outcome is the benchmark contract's result object: exactly what the last
// line of standard output carries.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// results is one run's record: the outcome plus what is needed to tell two
// runs apart and compare them.
type results struct {
	outcome

	Workload  string      `json:"workload"`
	Trace     int         `json:"trace"`
	Seed      int64       `json:"seed"`
	Quick     bool        `json:"quick"`
	Env       environment `json:"env"`
	Sizes     sizes       `json:"sizes"`
	Clients   int         `json:"clients"`
	WarmupOps int         `json:"warmup_ops"`
	Ops       int         `json:"ops"`
	MeasuredS float64     `json:"measured_s"`
	WallS     float64     `json:"wall_s"`
	Failures  []string    `json:"failures,omitempty"`
}

// execute performs one run: generate, compute the reference, load, warm
// up, measure, check, and (traced) probe the layers.
func execute(o options) (*results, []span, error) {
	started := time.Now()
	w, err := newWorkload(o.workload, o.seed, o.sizes)
	if err != nil {
		return nil, nil, err
	}
	if err := w.prepare(); err != nil {
		return nil, nil, err
	}
	r := &run{w: w, traced: o.traced}
	if err := r.setup(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	var world *probeWorld
	if o.traced {
		// Built while the generated rows still exist; it holds only pages.
		if world, err = newProbeWorld(w, o.seed, o.sizes); err != nil {
			return nil, nil, fmt.Errorf("%s: probe world: %w", w.name, err)
		}
	}
	w.release()
	r.measure(o.seed, o.window)

	recs := r.recs()
	r.checkExact(recs)
	if n := len(r.db.Disk().LiveTempFiles()); n != 0 {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%d temp files still live after the run", n))
	}
	if n := r.db.Disk().LiveArenas(); n != 0 {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%d spill arenas still live after the run", n))
	}
	if len(recs) == 0 {
		return nil, nil, fmt.Errorf("%s: no op completed: %v", w.name, r.failures)
	}

	res := &results{
		outcome:  outcome{Attempted: len(recs) + r.failed, Failed: r.failed, Correct: r.failed == 0},
		Workload: w.name, Seed: o.seed, Quick: o.quick, Env: currentEnvironment(), Sizes: o.sizes,
		Clients: w.clients, WarmupOps: warmupOps, Ops: len(recs),
		MeasuredS: r.measured.Seconds(), Failures: r.failures,
	}
	var spans []span
	if o.traced {
		res.Trace = 1
		m := r.perLayerMetrics(recs)
		probeSpans, err := world.run(m)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
		res.Metrics = m.render(perLayer)
		for _, c := range r.clients {
			spans = append(spans, c.spans...)
		}
		spans = append(spans, probeSpans...)
	} else {
		res.Metrics = r.endToEndMetrics(recs).render(endToEnd)
	}
	res.WallS = time.Since(started).Seconds()
	return res, spans, nil
}

// report prints every metric by name with its unit, writes the results
// (and trace) files when an output directory was given, and ends with the
// contract's one-line JSON object.
func report(res *results, spans []span, outDir string, stdout, stderr io.Writer) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "== %s seed %d trace %d: %d ops in %.2f s (%d clients), %d failed, wall %.1f s\n",
		res.Workload, res.Seed, res.Trace, res.Ops, res.MeasuredS, res.Clients, res.Failed, res.WallS)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Fprintf(stdout, "%-34s %16.6g %s\n", name, v.Value, v.Unit)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(stderr, "FAILED:", f)
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		stem := fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, res.Trace)
		if err := writeJSON(filepath.Join(outDir, "results-"+stem), res); err != nil {
			return err
		}
		if res.Trace == 1 {
			tr := struct {
				Workload string                 `json:"workload"`
				Seed     int64                  `json:"seed"`
				Counts   map[string]metricValue `json:"counts"`
				Spans    []span                 `json:"spans"`
			}{res.Workload, res.Seed, res.Metrics, spans}
			if err := writeJSON(filepath.Join(outDir, "trace-"+stem), tr); err != nil {
				return err
			}
		}
	}
	line, err := json.Marshal(res.outcome)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readJSON decodes one JSON file into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// vcsRevision is the commit the binary was built from, when the toolchain
// stamped one (a build outside a git checkout has none).
func vcsRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
