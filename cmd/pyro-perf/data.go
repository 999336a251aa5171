package main

import (
	"math/rand"

	"pyro"
)

// sizes fixes every dataset dimension of the benchmark. The engine never
// sees these: it receives only the generated rows.
type sizes struct {
	SegRows, SegPerC1 int // sort_partial seg table: rows, rows per c1
	Suppliers         int // TPC-H-like: suppliers × PartsPer × LinesPer
	PartsPer          int
	LinesPer          int
	SpillRows         int // sort_spill tables
	BigSegPerC1       int // rows per c1 of the oversized-segment table
	SpillBlocks       int // sort_spill SortMemoryBlocks
	OJRows            int // rows of each outer-join table (jittered by seed)
	WideRows, TagMod  int // deferred-fetch table; tag = id mod TagMod
	EventRows         int // topk_serve events table
	EventPerG         int
}

// fullSizes are the recorded baseline's sizes: chosen on the 2-vCPU
// container so one op takes 50–90 ms on the single-client workloads and a
// 20 s run collects ≥ 200 ops (see README "Sizes").
var fullSizes = sizes{
	SegRows: 100_000, SegPerC1: 400,
	Suppliers: 200, PartsPer: 80, LinesPer: 4,
	SpillRows: 50_000, BigSegPerC1: 25_000, SpillBlocks: 16,
	OJRows:   7500,
	WideRows: 40_000, TagMod: 2000,
	EventRows: 200_000, EventPerG: 2000,
}

// quickSizes keep the tier-1 smoke test under ten seconds.
var quickSizes = sizes{
	SegRows: 4000, SegPerC1: 100,
	Suppliers: 20, PartsPer: 10, LinesPer: 3,
	SpillRows: 4000, BigSegPerC1: 2000, SpillBlocks: 4,
	OJRows:   600,
	WideRows: 2000, TagMod: 100,
	EventRows: 4000, EventPerG: 500,
}

// index is one covering or non-covering secondary index of a table.
type index struct {
	name    string
	keys    []string
	include []string
}

// table is one generated relation and how it is loaded through the public
// API. rows is released once the reference answers are computed and the
// databases are loaded, so the measured loop runs beside the engine's own
// heap only.
type table struct {
	name    string
	cols    []pyro.Column
	cluster []string
	indexes []index
	rows    [][]any
}

const padding = "wide-payload-wide-payload-wide-payload-wide-payload-wide-payload"

// segTable is Experiment A2/A3's shape: (c1, c2, c3) clustered on c1 with
// per rows sharing each c1, c2 random, c3 a payload whose length is drawn
// from the seed (16–32 bytes), so page counts follow the seed too.
func segTable(name string, rng *rand.Rand, rows, per int) table {
	data := make([][]any, rows)
	for i := range data {
		data[i] = []any{int64(i / per), rng.Int63n(1_000_000), padding[:16+rng.Intn(17)]}
	}
	return table{
		name: name,
		cols: []pyro.Column{
			{Name: "c1", Type: pyro.Int64},
			{Name: "c2", Type: pyro.Int64},
			{Name: "c3", Type: pyro.String, Width: 24},
		},
		cluster: []string{"c1"},
		rows:    data,
	}
}

// tpchTables are partsupp and lineitem exactly as examples/stockout builds
// them: lineitem clustered on its own (useless) order key, and covering
// indices ps_sk / li_sk as the only sources of a suppkey order.
func tpchTables(rng *rand.Rand, sz sizes) (partsupp, lineitem table) {
	var ps, li [][]any
	for s := 0; s < sz.Suppliers; s++ {
		for k := 0; k < sz.PartsPer; k++ {
			part := (s*sz.PartsPer + k) % (sz.Suppliers * sz.PartsPer / 2)
			ps = append(ps, []any{int64(part), int64(s), int64(rng.Intn(80) + 20)})
			for l := 0; l < sz.LinesPer; l++ {
				status := "O"
				if rng.Intn(3) == 0 {
					status = "F"
				}
				li = append(li, []any{
					int64(rng.Intn(1_000_000)), int64(part), int64(s),
					int64(rng.Intn(40) + 1), status,
				})
			}
		}
	}
	partsupp = table{
		name: "partsupp",
		cols: []pyro.Column{
			{Name: "ps_partkey", Type: pyro.Int64},
			{Name: "ps_suppkey", Type: pyro.Int64},
			{Name: "ps_availqty", Type: pyro.Int64},
		},
		cluster: []string{"ps_partkey", "ps_suppkey"},
		indexes: []index{{"ps_sk", []string{"ps_suppkey"}, []string{"ps_partkey", "ps_availqty"}}},
		rows:    ps,
	}
	lineitem = table{
		name: "lineitem",
		cols: []pyro.Column{
			{Name: "l_orderkey", Type: pyro.Int64},
			{Name: "l_partkey", Type: pyro.Int64},
			{Name: "l_suppkey", Type: pyro.Int64},
			{Name: "l_quantity", Type: pyro.Int64},
			{Name: "l_linestatus", Type: pyro.String, Width: 1},
		},
		cluster: []string{"l_orderkey"},
		indexes: []index{{"li_sk", []string{"l_suppkey"}, []string{"l_partkey", "l_quantity", "l_linestatus"}}},
		rows:    li,
	}
	return partsupp, lineitem
}

// outerJoinTables are Experiment B2's R1, R2, R3: five integer columns, no
// clustering, no indices, names prefixed a_/b_/c_. Each table's row count
// is the base plus up to 2 % drawn from the seed.
func outerJoinTables(rng *rand.Rand, base int) []table {
	var out []table
	for i, prefix := range []string{"a_", "b_", "c_"} {
		rows := base + rng.Intn(base/50+1)
		data := make([][]any, rows)
		for r := range data {
			data[r] = []any{
				rng.Int63n(40), rng.Int63n(40), rng.Int63n(25), rng.Int63n(25), rng.Int63n(25),
			}
		}
		cols := make([]pyro.Column, 5)
		for c := range cols {
			cols[c] = pyro.Column{Name: prefix + "c" + string(rune('1'+c)), Type: pyro.Int64}
		}
		out = append(out, table{name: "r" + string(rune('1'+i)), cols: cols, rows: data})
	}
	return out
}

// wideTable is the §7 deferred-fetch shape: a wide clustered table and a
// narrow non-covering index on a selective column.
func wideTable(rng *rand.Rand, rows, tagMod int) table {
	data := make([][]any, rows)
	for i := range data {
		data[i] = []any{
			int64(i), int64(i % tagMod),
			padding[:32+rng.Intn(33)], padding[:32+rng.Intn(33)],
		}
	}
	return table{
		name: "wide",
		cols: []pyro.Column{
			{Name: "id", Type: pyro.Int64},
			{Name: "tag", Type: pyro.Int64},
			{Name: "p1", Type: pyro.String, Width: 48},
			{Name: "p2", Type: pyro.String, Width: 48},
		},
		cluster: []string{"id"},
		indexes: []index{{"wide_tag", []string{"tag"}, []string{"id"}}},
		rows:    data,
	}
}

// eventsTable is the serving workload's relation: (g, v, pad) clustered on
// g with per rows per g.
func eventsTable(rng *rand.Rand, rows, per int) table {
	data := make([][]any, rows)
	for i := range data {
		data[i] = []any{int64(i / per), rng.Int63n(1_000_000), int64(i)}
	}
	return table{
		name: "events",
		cols: []pyro.Column{
			{Name: "g", Type: pyro.Int64},
			{Name: "v", Type: pyro.Int64},
			{Name: "pad", Type: pyro.Int64},
		},
		cluster: []string{"g"},
		rows:    data,
	}
}
