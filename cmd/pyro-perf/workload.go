package main

import (
	"fmt"
	"math/rand"
	"time"

	"pyro"
)

// shape is one query of a workload: how to build it through the public
// API, how to compute its answer without the engine, and how its result
// rows are scanned and compared.
type shape struct {
	name  string
	build func(db *pyro.Database) *pyro.Query
	ref   func(rows map[string][][]any) [][]any
	kinds []colKind
	// order lists the output columns of the ORDER BY keys (always int64
	// columns here). keysOnly marks Top-K shapes: ties at the cut-off make
	// the non-key columns of the last rows arbitrary, so only the keys are
	// compared.
	order    []int
	keysOnly bool

	compared []int       // columns the checks cover (derived)
	want     expectation // the reference answer (computed at set-up)
}

// workload is one benchmark workload: an engine configuration, its tables,
// its query set and how clients walk it.
type workload struct {
	name    string
	cfg     pyro.Config
	clients int
	// drawn workloads (topk_serve) run one query per op, drawn from shapes
	// by the seeded generator; the others run the whole set, in order, as
	// one op, so every op does identical work and timings are unimodal.
	drawn  bool
	tables []table
	shapes []*shape
}

// workloadNames is the fixed order workloads run and report in.
var workloadNames = []string{"sort_partial", "sort_spill", "plan_join", "topk_serve"}

func orderBy(tbl string, cols ...string) func(*pyro.Database) *pyro.Query {
	return func(db *pyro.Database) *pyro.Query { return db.Scan(tbl).OrderBy(cols...) }
}

func tableRows(name string, keys ...int) func(map[string][][]any) [][]any {
	return func(rows map[string][][]any) [][]any { return refSorted(rows[name], keys...) }
}

// newWorkload generates the named workload's inputs from the seed. The
// single-client workloads run with the plan cache off so every op pays the
// optimizer; none sets GOMAXPROCS or a sort-parallelism option — the
// engine's defaults are what is measured.
func newWorkload(name string, seed int64, sz sizes) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	segKinds := []colKind{colInt, colInt, colStr}
	switch name {
	case "sort_partial":
		_, lineitem := tpchTables(rng, sz)
		return &workload{
			name: name, clients: 1,
			cfg:    pyro.Config{SortMemoryBlocks: 64, PlanCacheSize: -1},
			tables: []table{segTable("seg", rng, sz.SegRows, sz.SegPerC1), lineitem},
			shapes: []*shape{
				{name: "mrs_cluster", build: orderBy("seg", "c1", "c2"),
					ref: tableRows("seg", 0, 1), kinds: segKinds, order: []int{0, 1}},
				{name: "mrs_index",
					build: func(db *pyro.Database) *pyro.Query {
						return db.Scan("lineitem").Select("l_suppkey", "l_partkey").OrderBy("l_suppkey", "l_partkey")
					},
					ref: func(rows map[string][][]any) [][]any {
						return refSorted(refProject(rows["lineitem"], 2, 1), 0, 1)
					},
					kinds: []colKind{colInt, colInt}, order: []int{0, 1}},
			},
		}, nil
	case "sort_spill":
		return &workload{
			name: name, clients: 1,
			cfg: pyro.Config{SortMemoryBlocks: sz.SpillBlocks, PlanCacheSize: -1},
			tables: []table{
				segTable("seg", rng, sz.SpillRows, sz.SegPerC1),
				segTable("bigseg", rng, sz.SpillRows, sz.BigSegPerC1),
			},
			shapes: []*shape{
				{name: "srs_full", build: orderBy("seg", "c2", "c1"),
					ref: tableRows("seg", 1, 0), kinds: segKinds, order: []int{1, 0}},
				{name: "mrs_bigseg", build: orderBy("bigseg", "c1", "c2"),
					ref: tableRows("bigseg", 0, 1), kinds: segKinds, order: []int{0, 1}},
			},
		}, nil
	case "plan_join":
		partsupp, lineitem := tpchTables(rng, sz)
		tables := append([]table{partsupp, lineitem}, outerJoinTables(rng, sz.OJRows)...)
		tables = append(tables, wideTable(rng, sz.WideRows, sz.TagMod))
		anys := make([]colKind, 15)
		for i := range anys {
			anys[i] = colAny
		}
		return &workload{
			name: name, clients: 1,
			cfg:    pyro.Config{SortMemoryBlocks: 64, PlanCacheSize: -1},
			tables: tables,
			shapes: []*shape{
				{name: "q3", build: buildQ3,
					ref:   func(rows map[string][][]any) [][]any { return refQ3(rows["partsupp"], rows["lineitem"]) },
					kinds: []colKind{colInt, colInt, colInt, colInt}, order: []int{1}},
				{name: "q4", build: buildQ4,
					ref:   func(rows map[string][][]any) [][]any { return refQ4(rows["r1"], rows["r2"], rows["r3"]) },
					kinds: anys},
				{name: "fetch",
					build: func(db *pyro.Database) *pyro.Query {
						return db.Scan("wide").Filter(pyro.Eq(pyro.Col("tag"), pyro.Int(7)))
					},
					ref:   func(rows map[string][][]any) [][]any { return refFilterEq(rows["wide"], 1, int64(7)) },
					kinds: []colKind{colInt, colInt, colStr, colStr}},
			},
		}, nil
	case "topk_serve":
		w := &workload{
			name: name, clients: 2, drawn: true,
			// The pool equals one sort's ask (the engine's default), so two
			// clients contend for sort memory; the gate admits both.
			cfg: pyro.Config{
				SortMemoryBlocks: 16, GlobalSortMemoryBlocks: 16, MaxConcurrentQueries: 2,
			},
			tables: []table{eventsTable(rng, sz.EventRows, sz.EventPerG)},
		}
		for _, k := range []int{10, 100, 1000} {
			w.shapes = append(w.shapes, &shape{
				name: fmt.Sprintf("topk%d", k),
				build: func(db *pyro.Database) *pyro.Query {
					return db.Scan("events").OrderBy("g", "v").Limit(int64(k))
				},
				ref: func(rows map[string][][]any) [][]any {
					sorted := refSorted(rows["events"], 0, 1)
					if k < len(sorted) {
						sorted = sorted[:k]
					}
					return sorted
				},
				kinds: []colKind{colInt, colInt, colInt}, order: []int{0, 1}, keysOnly: true,
			})
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// buildQ3 is the paper's Query 3 exactly as examples/stockout builds it.
func buildQ3(db *pyro.Database) *pyro.Query {
	return db.Scan("partsupp").
		Join(
			db.Scan("lineitem").Filter(pyro.Eq(pyro.Col("l_linestatus"), pyro.Str("O"))),
			pyro.And(
				pyro.Eq(pyro.Col("ps_suppkey"), pyro.Col("l_suppkey")),
				pyro.Eq(pyro.Col("ps_partkey"), pyro.Col("l_partkey")),
			)).
		GroupBy([]string{"ps_availqty", "ps_partkey", "ps_suppkey"},
			pyro.Agg{Name: "open_qty", Func: pyro.Sum, Arg: pyro.Col("l_quantity")}).
		Filter(pyro.Gt(pyro.Col("open_qty"), pyro.Col("ps_availqty"))).
		OrderBy("ps_partkey")
}

// buildQ4 is Experiment B2: two full outer joins whose predicates share
// (c4, c5), so phase-2 refinement must align the two join orders.
func buildQ4(db *pyro.Database) *pyro.Query {
	return db.Scan("r1").
		FullOuterJoin(db.Scan("r2"), pyro.And(
			pyro.Eq(pyro.Col("a_c5"), pyro.Col("b_c5")),
			pyro.Eq(pyro.Col("a_c4"), pyro.Col("b_c4")),
			pyro.Eq(pyro.Col("a_c3"), pyro.Col("b_c3")),
		)).
		FullOuterJoin(db.Scan("r3"), pyro.And(
			pyro.Eq(pyro.Col("c_c1"), pyro.Col("a_c1")),
			pyro.Eq(pyro.Col("c_c4"), pyro.Col("a_c4")),
			pyro.Eq(pyro.Col("c_c5"), pyro.Col("a_c5")),
		))
}

// prepare computes every shape's reference answer from the generated rows.
func (w *workload) prepare() error {
	rows := make(map[string][][]any, len(w.tables))
	for _, t := range w.tables {
		rows[t.name] = t.rows
	}
	for _, sh := range w.shapes {
		sh.compared = sh.order
		if !sh.keysOnly {
			sh.compared = make([]int, len(sh.kinds))
			for i := range sh.compared {
				sh.compared[i] = i
			}
		}
		want, err := expect(sh.ref(rows), sh.kinds, sh.compared, sh.order)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", w.name, sh.name, err)
		}
		sh.want = want
	}
	return nil
}

// release drops the generated rows and the materialised reference answers
// once nothing needs them, leaving counts and checksums for the per-op
// check.
func (w *workload) release() {
	for i := range w.tables {
		w.tables[i].rows = nil
	}
	for _, sh := range w.shapes {
		sh.want.rows = nil
	}
}

// loadTimes is the time one load spent inside the public API, split by
// call.
type loadTimes struct {
	open, tables, indexes time.Duration
}

func (l loadTimes) total() time.Duration { return l.open + l.tables + l.indexes }

// load builds a fresh database through the public API, timing only the
// calls into it.
func (w *workload) load() (*pyro.Database, loadTimes, error) {
	var lt loadTimes
	t0 := time.Now()
	db := pyro.Open(w.cfg)
	lt.open = time.Since(t0)
	for _, t := range w.tables {
		t0 = time.Now()
		if err := db.CreateTable(t.name, t.cols, t.cluster, t.rows); err != nil {
			return nil, lt, err
		}
		lt.tables += time.Since(t0)
		for _, ix := range t.indexes {
			t0 = time.Now()
			if err := db.CreateIndex(ix.name, t.name, ix.keys, ix.include); err != nil {
				return nil, lt, err
			}
			lt.indexes += time.Since(t0)
		}
	}
	return db, lt, nil
}
