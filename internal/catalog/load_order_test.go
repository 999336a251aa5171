package catalog

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// fileChecksum hashes every page of f in order.
func fileChecksum(t *testing.T, f *storage.File) uint64 {
	t.Helper()
	h := fnv.New64a()
	for i := 0; i < f.NumPages(); i++ {
		p, err := f.ReadPage(i)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(p)
	}
	return h.Sum64()
}

// TestLoadOrderIsPinned pins the bytes CreateTable and CreateIndex put on
// disk for the four pyro-perf workloads' schemas — the clustered seg table,
// lineitem and partsupp with their covering indices, an unclustered
// outer-join table and the events table — on inputs full of duplicate keys,
// where only a stable sort has one right answer. The constants were captured
// at the parent commit, with both loaders ordering rows through
// sort.SliceStable; the loaders now
// use slices.SortStableFunc (no reflection-based swapper), and every heap
// and index page must come out the same.
func TestLoadOrderIsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(2207))
	ints := func(names ...string) *types.Schema {
		cols := make([]types.Column, len(names))
		for i, n := range names {
			cols[i] = types.Column{Name: n, Kind: types.KindInt}
		}
		return types.NewSchema(cols...)
	}
	cat := New(storage.NewDisk(0))

	seg := make([]types.Tuple, 5000)
	for i := range seg {
		// Arrival order is not cluster order, and c1 repeats 50 times.
		seg[i] = types.NewTuple(types.NewInt(int64(rng.Intn(100))), types.NewInt(rng.Int63n(1000)),
			types.NewString("abcdefghijklmnopqrstuvwxyz0123456789"[:16+rng.Intn(17)]))
	}
	segSchema := types.NewSchema(types.Column{Name: "c1", Kind: types.KindInt}, types.Column{Name: "c2", Kind: types.KindInt},
		types.Column{Name: "c3", Kind: types.KindString, Width: 24})

	var ps, li []types.Tuple
	for s := 0; s < 40; s++ {
		for k := 0; k < 20; k++ {
			part := (s*20 + k) % 400
			ps = append(ps, types.NewTuple(types.NewInt(int64(part)), types.NewInt(int64(s)), types.NewInt(int64(rng.Intn(80)+20))))
			for l := 0; l < 4; l++ {
				li = append(li, types.NewTuple(types.NewInt(int64(rng.Intn(500))), types.NewInt(int64(part)), types.NewInt(int64(s)),
					types.NewInt(int64(rng.Intn(40)+1)), types.NewString([]string{"O", "F"}[rng.Intn(2)])))
			}
		}
	}
	liSchema := types.NewSchema(types.Column{Name: "l_orderkey", Kind: types.KindInt}, types.Column{Name: "l_partkey", Kind: types.KindInt},
		types.Column{Name: "l_suppkey", Kind: types.KindInt}, types.Column{Name: "l_quantity", Kind: types.KindInt},
		types.Column{Name: "l_linestatus", Kind: types.KindString, Width: 1})

	oj := make([]types.Tuple, 3000)
	for i := range oj {
		oj[i] = types.NewTuple(types.NewInt(rng.Int63n(40)), types.NewInt(rng.Int63n(40)), types.NewInt(rng.Int63n(25)),
			types.NewInt(rng.Int63n(25)), types.NewInt(rng.Int63n(25)))
	}
	events := make([]types.Tuple, 4000)
	for i := range events {
		events[i] = types.NewTuple(types.NewInt(int64(rng.Intn(8))), types.NewInt(rng.Int63n(1000)), types.NewInt(int64(i)))
	}

	got := map[string]uint64{}
	table := func(name string, schema *types.Schema, cluster sortord.Order, rows []types.Tuple) *Table {
		tb, err := cat.CreateTable(name, schema, cluster, rows)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = fileChecksum(t, tb.File())
		return tb
	}
	index := func(name string, tb *Table, key sortord.Order, include ...string) {
		ix, err := cat.CreateIndex(name, tb, key, include)
		if err != nil {
			t.Fatal(err)
		}
		got[tb.Name+"."+name] = fileChecksum(t, ix.File())
	}
	table("seg", segSchema, sortord.New("c1"), seg)
	index("ps_sk", table("partsupp", ints("ps_partkey", "ps_suppkey", "ps_availqty"), sortord.New("ps_partkey", "ps_suppkey"), ps),
		sortord.New("ps_suppkey"), "ps_partkey", "ps_availqty")
	index("li_sk", table("lineitem", liSchema, sortord.New("l_orderkey"), li),
		sortord.New("l_suppkey"), "l_partkey", "l_quantity", "l_linestatus")
	table("r1", ints("a_c1", "a_c2", "a_c3", "a_c4", "a_c5"), sortord.Empty, oj)
	table("events", ints("g", "v", "pad"), sortord.New("g"), events)

	want := map[string]uint64{
		"seg":            0xbbb8118c9d6d6233,
		"partsupp":       0xabfa74196f5e72e2,
		"partsupp.ps_sk": 0x50be94a1f6350958,
		"lineitem":       0x1d0f00c6100ddf04,
		"lineitem.li_sk": 0xda466ef1f5fce1eb,
		"r1":             0xc9bea55917d07779,
		"events":         0xd5b7b98c8420741e,
	}
	for name, sum := range got {
		if sum != want[name] {
			t.Errorf("%s: page checksum %#x, pinned %#x", name, sum, want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d files checked, %d pinned", len(got), len(want))
	}
}
