// Command pyro-abdiff turns `go test -bench` output into a benchstat-style
// A/B table and, with -baseline, into a CI regression gate.
//
// A/B mode (default): sub-benchmarks of one parent (BenchmarkFoo/row,
// BenchmarkFoo/chunk, ...) are grouped, repeated -count runs are averaged,
// and every arm is reported as a delta against the parent's first arm.
//
//	go test -run '^$' -bench 'TimeToFirstRow|Throughput' -count 3 . | pyro-abdiff
//
// Gate mode: -baseline FILE compares the input against a checked-in
// `go test -bench` output file and exits 1 when a deterministic work
// counter regresses beyond -tolerance percent. Wall-clock (ns/op) is
// never gated — it is noise on shared CI runners — but the engine's
// comparison counts, radix passes and page I/O are exact, machine-
// independent replicas of each arm's work (the golden tests pin their
// parallelism invariance), so a plan-shape or algorithm regression moves
// them reproducibly:
//
//	go test -run '^$' -bench ... . | pyro-abdiff -baseline testdata/bench-baseline.txt -tolerance 2
//
// Counters that *improve* beyond tolerance are reported too (exit 0) as a
// reminder to refresh the baseline with `make bench-baseline`.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// gateMetrics are the units the -baseline gate compares. Everything else
// (ns/op, B/op, latency percentiles) is informational only.
var gateMetrics = map[string]bool{
	"comparisons/op":  true,
	"radix-passes/op": true,
	"io-pages/op":     true,
	"run-pages/op":    true,
	// Throughput arms report the exact drained row count; row and chunk
	// executor paths must agree on it bit for bit.
	"rows/op": true,
}

// sample is one metric's accumulated measurements across -count runs.
type sample struct {
	sum float64
	n   int
}

func (s *sample) mean() float64 { return s.sum / float64(s.n) }

// bench is one benchmark (full name, -GOMAXPROCS suffix stripped) with all
// its reported metrics.
type bench struct {
	name    string
	metrics map[string]*sample
	units   []string // insertion order
}

func (b *bench) add(unit string, v float64) {
	s := b.metrics[unit]
	if s == nil {
		s = &sample{}
		b.metrics[unit] = s
		b.units = append(b.units, unit)
	}
	s.sum += v
	s.n++
}

// results holds every benchmark of one `go test -bench` output, in
// first-seen order.
type results struct {
	order []string
	by    map[string]*bench
}

func newResults() *results { return &results{by: make(map[string]*bench)} }

func (r *results) get(name string) *bench {
	b := r.by[name]
	if b == nil {
		b = &bench{name: name, metrics: make(map[string]*sample)}
		r.by[name] = b
		r.order = append(r.order, name)
	}
	return b
}

// parseLine folds one output line into r if it is a benchmark result line:
// "BenchmarkName-8  N  v1 unit1  v2 unit2 ...".
func (r *results) parseLine(line string) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return
	}
	name := stripProcs(fields[0])
	var b *bench
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return // not a result line after all
		}
		if b == nil {
			b = r.get(name)
		}
		b.add(fields[i+1], v)
	}
}

// stripProcs removes the trailing -GOMAXPROCS go test appends to benchmark
// names, so runs from machines with different core counts compare.
func stripProcs(name string) string {
	if dash := strings.LastIndexByte(name, '-'); dash > 0 {
		if _, err := strconv.Atoi(name[dash+1:]); err == nil {
			return name[:dash]
		}
	}
	return name
}

func parse(rd io.Reader, echo bool) (*results, error) {
	r := newResults()
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if echo {
			fmt.Println(line)
		}
		r.parseLine(line)
	}
	return r, sc.Err()
}

// printABTable renders the benchstat-style delta table over ns/op for
// every parent benchmark with at least two sub-benchmark arms.
func printABTable(r *results) {
	type group struct {
		name string
		arms []*bench
	}
	var groups []*group
	byName := make(map[string]*group)
	for _, name := range r.order {
		slash := strings.IndexByte(name, '/')
		if slash < 0 {
			continue
		}
		parent := name[:slash]
		g := byName[parent]
		if g == nil {
			g = &group{name: parent}
			byName[parent] = g
			groups = append(groups, g)
		}
		if r.by[name].metrics["ns/op"] != nil {
			g.arms = append(g.arms, r.by[name])
		}
	}
	printed := false
	for _, g := range groups {
		if len(g.arms) < 2 {
			continue
		}
		if !printed {
			fmt.Printf("\n=== A/B deltas (vs first arm, mean ns/op) ===\n")
			printed = true
		}
		base := g.arms[0].metrics["ns/op"]
		fmt.Printf("\n%s\n", g.name)
		for i, arm := range g.arms {
			s := arm.metrics["ns/op"]
			armName := arm.name[strings.IndexByte(arm.name, '/')+1:]
			if i == 0 {
				fmt.Printf("  %-12s %14.0f ns/op   (baseline, n=%d)\n", armName, s.mean(), s.n)
				continue
			}
			delta := (s.mean() - base.mean()) / base.mean() * 100
			fmt.Printf("  %-12s %14.0f ns/op   %+.1f%%\n", armName, s.mean(), delta)
		}
	}
	if !printed {
		fmt.Println("\npyro-abdiff: no A/B sub-benchmarks found in input")
	}
}

// gate compares cur against base on the deterministic counters and returns
// the number of regressions beyond tol percent.
func gate(base, cur *results, tol float64) int {
	fmt.Printf("\n=== bench-gate: deterministic counters vs baseline (tolerance %.1f%%) ===\n", tol)
	regressions, improvements, compared := 0, 0, 0
	for _, name := range cur.order {
		cb := cur.by[name]
		bb := base.by[name]
		if bb == nil {
			fmt.Printf("  new benchmark %s (not in baseline; run make bench-baseline)\n", name)
			continue
		}
		for _, unit := range cb.units {
			if !gateMetrics[unit] {
				continue
			}
			bs := bb.metrics[unit]
			if bs == nil {
				continue
			}
			compared++
			b, c := bs.mean(), cb.metrics[unit].mean()
			var delta float64
			switch {
			case b == c:
				continue
			case b == 0:
				delta = 100 // counter appeared from zero: treat as a full regression
			default:
				delta = (c - b) / b * 100
			}
			switch {
			case delta > tol:
				regressions++
				fmt.Printf("  REGRESSION %s %s: %.0f -> %.0f (%+.1f%%)\n", name, unit, b, c, delta)
			case delta < -tol:
				improvements++
				fmt.Printf("  improved   %s %s: %.0f -> %.0f (%+.1f%%) — refresh with make bench-baseline\n",
					name, unit, b, c, delta)
			}
		}
	}
	switch {
	case compared == 0:
		// A gate that silently compares nothing would pass forever; make
		// the misconfiguration (wrong -bench filter, stale baseline) loud.
		regressions++
		fmt.Println("  REGRESSION: no gated counters found in both input and baseline")
	case regressions == 0:
		fmt.Printf("  OK: %d counters within tolerance (%d improved)\n", compared, improvements)
	default:
		fmt.Printf("  FAIL: %d of %d counters regressed\n", regressions, compared)
	}
	return regressions
}

func main() {
	baseline := flag.String("baseline", "", "baseline `file` (raw go test -bench output) to gate deterministic counters against")
	tolerance := flag.Float64("tolerance", 2.0, "gate tolerance in percent")
	flag.Parse()

	cur, err := parse(os.Stdin, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyro-abdiff:", err)
		os.Exit(1)
	}
	printABTable(cur)

	if *baseline == "" {
		return
	}
	f, err := os.Open(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyro-abdiff:", err)
		os.Exit(1)
	}
	base, err := parse(f, false)
	err = errors.Join(err, f.Close())
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyro-abdiff:", err)
		os.Exit(1)
	}
	if gate(base, cur, *tolerance) > 0 {
		os.Exit(1)
	}
}
