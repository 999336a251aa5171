package main

// Layer probes: timed loops that call one layer's exported functions
// directly, on the workload's own tables rebuilt into a private
// storage.Disk + catalog.Catalog. They run only in the traced run, after
// the measured window, and each is one span named probe.<metric>. A probe
// measures a layer from outside; it adds nothing to the engine.

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"pyro"
	"pyro/internal/catalog"
	"pyro/internal/core"
	"pyro/internal/exec"
	"pyro/internal/expr"
	"pyro/internal/ford"
	"pyro/internal/govern"
	"pyro/internal/keys"
	"pyro/internal/logical"
	"pyro/internal/ordersel"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
	paper "pyro/internal/workload"
	"pyro/internal/xsort"
)

// probeReps is how many times a probe repeats its loop; it reports the
// median repetition.
const probeReps = 5

type probeWorld struct {
	disk *storage.Disk
	cat  *catalog.Catalog
	seed int64
	// primary is the table the storage, types, keys, scan and sort probes
	// work on: the workload's first table when that is clustered on a
	// single column (seg, events), a generated seg table otherwise.
	primary *catalog.Table
	given   sortord.Order // primary's clustering column
	target  sortord.Order // clustering column, then the second column
	full    sortord.Order // second column, then clustering column: no usable prefix
	base    time.Time
	spans   []span
}

// privateTable loads one generated table, with its indices, into the probe
// catalog the way pyro.CreateTable would.
func (p *probeWorld) privateTable(t table) (*catalog.Table, error) {
	cols := make([]types.Column, len(t.cols))
	for i, c := range t.cols {
		kind := types.KindInt
		if c.Type == pyro.String {
			kind = types.KindString
		}
		cols[i] = types.Column{Name: c.Name, Kind: kind, Width: c.Width}
	}
	data := make([]types.Tuple, len(t.rows))
	for i, r := range t.rows {
		tup := make(types.Tuple, len(r))
		for j, v := range r {
			d, err := pyro.Value(v)
			if err != nil {
				return nil, err
			}
			tup[j] = d
		}
		data[i] = tup
	}
	tb, err := p.cat.CreateTable(t.name, types.NewSchema(cols...), sortord.New(t.cluster...), data)
	if err != nil {
		return nil, err
	}
	for _, ix := range t.indexes {
		if _, err := p.cat.CreateIndex(ix.name, tb, sortord.New(ix.keys...), ix.include); err != nil {
			return nil, err
		}
	}
	return tb, nil
}

// newProbeWorld rebuilds the workload's tables privately and adds, from
// the same generators and seed, the plan_join tables the join, aggregate,
// fetch and optimizer probes need when the workload does not own them.
func newProbeWorld(w *workload, seed int64, sz sizes) (*probeWorld, error) {
	disk := storage.NewDisk(0)
	p := &probeWorld{disk: disk, cat: catalog.New(disk), seed: seed}
	tables := append([]table(nil), w.tables...)
	have := make(map[string]bool)
	for _, t := range tables {
		have[t.name] = true
	}
	pj, err := newWorkload("plan_join", seed, sz)
	if err != nil {
		return nil, err
	}
	for _, t := range pj.tables {
		if !have[t.name] {
			tables = append(tables, t)
		}
	}
	primary := tables[0]
	if len(primary.cluster) != 1 {
		primary = segTable("probe_seg", rand.New(rand.NewSource(seed)), sz.SegRows, sz.SegPerC1)
		tables = append(tables, primary)
	}
	for _, t := range tables {
		tb, err := p.privateTable(t)
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", t.name, err)
		}
		if t.name == primary.name {
			p.primary = tb
		}
		if t.name == "lineitem" {
			// A copy clustered on the join key feeds the merge-join and
			// group-aggregate probes, which need sorted input.
			sorted := t
			sorted.name, sorted.cluster, sorted.indexes = "lineitem_by_part", []string{"l_partkey", "l_suppkey"}, nil
			if _, err := p.privateTable(sorted); err != nil {
				return nil, err
			}
		}
	}
	second := primary.cols[1].Name
	p.given = sortord.New(primary.cluster[0])
	p.target = sortord.New(primary.cluster[0], second)
	p.full = sortord.New(second, primary.cluster[0])
	if err := paper.BuildScalability(p.cat, 8, 2000, seed); err != nil {
		return nil, err
	}
	return p, nil
}

// probe is one timed loop: run probeReps times inside one span, its median
// repetition converted to the metric's unit.
type probe struct {
	metric  string
	convert func(time.Duration) float64
	run     func() error
}

// nsPer converts a repetition over n items to nanoseconds per item.
func nsPer(n int) func(time.Duration) float64 {
	return func(d time.Duration) float64 { return ratio(float64(d), float64(n)) }
}

// mrowsPerS converts a repetition over rows input rows to million rows per
// second (= rows per microsecond).
func mrowsPerS(rows int64) func(time.Duration) float64 {
	return func(d time.Duration) float64 { return ratio(float64(rows), us(d)) }
}

// probes runs each probe and stores its metric in m.
func (p *probeWorld) probes(m metricSet, list []probe) error {
	for _, pr := range list {
		start := time.Now()
		reps := make([]float64, probeReps)
		for i := range reps {
			t0 := time.Now()
			if err := pr.run(); err != nil {
				return fmt.Errorf("%s: %w", pr.metric, err)
			}
			reps[i] = float64(time.Since(t0))
		}
		p.spans = append(p.spans, span{
			ID: 1<<40 | (len(p.spans) + 1), Name: "probe." + pr.metric,
			StartNs: int64(start.Sub(p.base)), EndNs: int64(time.Since(p.base)),
		})
		m[pr.metric] = pr.convert(time.Duration(median(reps)))
	}
	return nil
}

// drain opens op, pulls every row — through the chunk protocol at the
// default chunk size when the operator offers it — and closes it.
func drain(op exec.Operator) (rows int64, err error) {
	if err := op.Open(); err != nil {
		return 0, errors.Join(err, op.Close())
	}
	if exec.ChunkCapable(op) {
		co := op.(exec.ChunkOperator)
		c := types.GetChunk(op.Schema().Len(), types.DefaultChunkCapacity)
		defer types.PutChunk(c)
		for {
			if err := co.NextChunk(c); err != nil {
				return rows, errors.Join(err, op.Close())
			}
			if c.Rows() == 0 {
				return rows, op.Close()
			}
			rows += int64(c.Rows())
		}
	}
	for {
		_, ok, err := op.Next()
		if err != nil {
			return rows, errors.Join(err, op.Close())
		}
		if !ok {
			return rows, op.Close()
		}
		rows++
	}
}

// drained adapts an operator constructor to a probe body.
func drained[O exec.Operator](build func() (O, error)) func() error {
	return func() error {
		op, err := build()
		if err != nil {
			return err
		}
		_, err = drain(op)
		return err
	}
}

func (p *probeWorld) table(name string) *catalog.Table {
	t, err := p.cat.Table(name)
	if err != nil {
		panic(err) // newProbeWorld loaded every table the probes name
	}
	return t
}

// run executes every probe and stores its metric in m.
func (p *probeWorld) run(m metricSet) ([]span, error) {
	p.base = time.Now()
	for _, group := range []func(metricSet) error{
		p.storageProbes, p.typesAndKeysProbes, p.execProbes, p.sortProbes,
		p.optimizerProbes, p.orderProbes, p.governProbes, p.planCacheProbes,
	} {
		if err := group(m); err != nil {
			return nil, err
		}
	}
	if n := p.disk.LiveArenas() + len(p.disk.LiveTempFiles()); n != 0 {
		return nil, fmt.Errorf("probes leaked %d spill arenas or temp files", n)
	}
	return p.spans, nil
}

func (p *probeWorld) storageProbes(m metricSet) error {
	rows, err := storage.ReadAll(p.primary.File())
	if err != nil {
		return err
	}
	const entrySize = 16
	entry := make([]byte, entrySize)
	entries := p.disk.Create("probe.entries", storage.KindData)
	defer p.disk.Remove("probe.entries")
	perRow := nsPer(len(rows))
	return p.probes(m, []probe{
		{"storage.tuple_write_ns_per_row", perRow, func() error {
			defer p.disk.Remove("probe.tuples")
			return storage.WriteAll(p.disk.Create("probe.tuples", storage.KindData), rows)
		}},
		{"storage.tuple_read_ns_per_row", perRow, func() error {
			r := storage.NewTupleReader(p.primary.File())
			for {
				if _, ok, err := r.Next(); err != nil || !ok {
					return err
				}
			}
		}},
		{"storage.read_chunk_ns_per_row", perRow, func() error {
			r := storage.NewTupleReader(p.primary.File())
			c := types.GetChunk(p.primary.Schema.Len(), types.DefaultChunkCapacity)
			defer types.PutChunk(c)
			for {
				c.Reset()
				if n, err := r.ReadChunk(c); err != nil || n == 0 {
					return err
				}
			}
		}},
		{"storage.entry_write_ns_per_entry", perRow, func() error {
			entries.Truncate()
			w := storage.NewEntryWriter(entries, entrySize)
			for i := range rows {
				entry[0], entry[1], entry[2] = byte(i>>16), byte(i>>8), byte(i)
				if err := w.Write(entry); err != nil {
					return err
				}
			}
			return w.Close()
		}},
		{"storage.entry_read_ns_per_entry", perRow, func() error {
			r := storage.NewEntryReader(entries, entrySize)
			for {
				if _, ok, err := r.Next(); err != nil || !ok {
					return err
				}
			}
		}},
	})
}

func (p *probeWorld) typesAndKeysProbes(m metricSet) error {
	rows, err := storage.ReadAll(p.primary.File())
	if err != nil {
		return err
	}
	codec, err := keys.NewCodec(p.primary.Schema, p.target)
	if err != nil {
		return err
	}
	var buf, encoded []byte
	for _, t := range rows {
		encoded = t.Encode(encoded)
	}
	keyBytes := 0
	perRow := nsPer(len(rows))
	err = p.probes(m, []probe{
		{"types.encode_ns_per_tuple", perRow, func() error {
			for _, t := range rows {
				buf = t.Encode(buf[:0])
			}
			return nil
		}},
		{"types.decode_ns_per_tuple", perRow, func() error {
			for pos := 0; pos < len(encoded); {
				_, n, err := types.DecodeTuple(encoded[pos:])
				if err != nil {
					return err
				}
				pos += n
			}
			return nil
		}},
		{"keys.encode_ns_per_key", perRow, func() error {
			keyBytes = 0
			for _, t := range rows {
				buf = codec.Append(buf[:0], t)
				keyBytes += len(buf)
			}
			return nil
		}},
	})
	m["keys.encoded_bytes_per_key"] = ratio(float64(keyBytes), float64(len(rows)))
	return err
}

func (p *probeWorld) execProbes(m metricSet) error {
	li, byPart, ps, wide := p.table("lineitem"), p.table("lineitem_by_part"), p.table("partsupp"), p.table("wide")
	liRows, psRows := li.Stats.NumRows, ps.Stats.NumRows
	scanLI := func() exec.Operator { return exec.NewTableScan(li) }
	open := expr.Eq(expr.Col("l_linestatus"), expr.StrLit("O"))
	sumQty := []exec.AggSpec{{Name: "qty", Func: exec.AggSum, Arg: expr.Col("l_quantity")}}
	group := []string{"l_partkey", "l_suppkey"}
	var fetched int64

	err := p.probes(m, []probe{
		{"exec.scan_mrows_per_s", mrowsPerS(p.primary.Stats.NumRows), drained(func() (exec.Operator, error) {
			return exec.NewTableScan(p.primary), nil
		})},
		{"exec.indexscan_mrows_per_s", mrowsPerS(liRows), drained(func() (exec.Operator, error) {
			return exec.NewIndexScan(li.Index("li_sk")), nil
		})},
		{"exec.filter_mrows_per_s", mrowsPerS(liRows), drained(func() (*exec.Filter, error) {
			return exec.NewFilter(scanLI(), open)
		})},
		{"exec.project_mrows_per_s", mrowsPerS(liRows), drained(func() (*exec.Project, error) {
			return exec.NewProjectNames(scanLI(), []string{"l_suppkey", "l_partkey"})
		})},
		{"exec.mergejoin_mrows_per_s", mrowsPerS(liRows + psRows), drained(func() (*exec.MergeJoin, error) {
			return exec.NewMergeJoin(exec.NewTableScan(ps), exec.NewTableScan(byPart),
				sortord.New("ps_partkey", "ps_suppkey"), sortord.New("l_partkey", "l_suppkey"), exec.InnerJoin)
		})},
		{"exec.hashjoin_mrows_per_s", mrowsPerS(liRows + psRows), drained(func() (*exec.HashJoin, error) {
			return exec.NewHashJoin(exec.NewTableScan(ps), scanLI(),
				[]string{"ps_partkey", "ps_suppkey"}, []string{"l_partkey", "l_suppkey"}, exec.InnerJoin)
		})},
		{"exec.groupagg_mrows_per_s", mrowsPerS(liRows), drained(func() (*exec.GroupAggregate, error) {
			return exec.NewGroupAggregate(exec.NewTableScan(byPart), group, sumQty)
		})},
		{"exec.hashagg_mrows_per_s", mrowsPerS(liRows), drained(func() (*exec.HashAggregate, error) {
			return exec.NewHashAggregate(scanLI(), group, sumQty)
		})},
		{"exec.fetch_us_per_row", func(d time.Duration) float64 { return ratio(us(d), float64(fetched)) }, func() error {
			flt, err := exec.NewFilter(exec.NewIndexScan(wide.Index("wide_tag")), expr.Eq(expr.Col("tag"), expr.IntLit(7)))
			if err != nil {
				return err
			}
			fetch, err := exec.NewFetch(flt, wide, []string{"id"})
			if err != nil {
				return err
			}
			fetched, err = drain(fetch)
			return err
		}},
	})
	if err != nil {
		return err
	}

	// Limit 10 must close its child at the page boundary the tenth row sits
	// on; the tap counts the pages read before it does.
	tap := storage.NewTap()
	scan := exec.NewTableScan(p.primary)
	scan.SetIOTap(tap)
	limit, err := exec.NewLimit(scan, 10)
	if err != nil {
		return err
	}
	if _, err := drain(limit); err != nil {
		return err
	}
	m["exec.limit_close_pages"] = float64(tap.Stats().PageReads)
	return nil
}

func (p *probeWorld) sortProbes(m metricSet) error {
	cfg := func(blocks int) xsort.Config {
		return xsort.Config{Disk: p.disk, MemoryBlocks: blocks, BatchSize: types.DefaultChunkCapacity}
	}
	ample := 8 * int(p.primary.NumBlocks())
	scan := func() exec.Operator { return exec.NewTableScan(p.primary) }
	perRow := nsPer(int(p.primary.Stats.NumRows))
	var firstOut []float64
	return p.probes(m, []probe{
		{"xsort.srs_inmem_ns_per_row", perRow, drained(func() (*exec.Sort, error) {
			return exec.NewSortSRS(scan(), p.full, cfg(ample))
		})},
		{"xsort.srs_spill_ns_per_row", perRow, drained(func() (*exec.Sort, error) {
			return exec.NewSortSRS(scan(), p.full, cfg(16))
		})},
		{"xsort.mrs_inmem_ns_per_row", perRow, drained(func() (*exec.Sort, error) {
			return exec.NewSortMRS(scan(), p.target, p.given, cfg(ample))
		})},
		{"xsort.mrs_spill_ns_per_row", perRow, drained(func() (*exec.Sort, error) {
			return exec.NewSortMRS(scan(), p.target, p.given, cfg(4))
		})},
		// Timed inside the repetition: Open to the first row out.
		{"xsort.mrs_first_out_us", func(time.Duration) float64 { return median(firstOut) }, func() error {
			op, err := exec.NewSortMRS(scan(), p.target, p.given, cfg(ample))
			if err != nil {
				return err
			}
			t0 := time.Now()
			if err := op.Open(); err != nil {
				return errors.Join(err, op.Close())
			}
			_, _, err = op.Next()
			firstOut = append(firstOut, us(time.Since(t0)))
			return errors.Join(err, op.Close())
		}},
	})
}

func (p *probeWorld) optimizerProbes(m metricSet) error {
	q3, err := paper.Query3(p.cat)
	if err != nil {
		return err
	}
	q4, err := paper.Query4(p.cat)
	if err != nil {
		return err
	}
	scal8, err := paper.ScalabilityQuery(p.cat, 8)
	if err != nil {
		return err
	}
	opts := core.DefaultOptions(core.HeuristicFavorable)
	optimize := func(node logical.Node) func() error {
		return func() error {
			_, err := core.Optimize(node, opts)
			return err
		}
	}
	res, err := core.Optimize(q3, opts)
	if err != nil {
		return err
	}
	return p.probes(m, []probe{
		{"core.optimize_q3_us", us, optimize(q3)},
		{"core.optimize_q4_us", us, optimize(q4)},
		{"core.optimize_scal8_us", us, optimize(scal8)},
		{"core.build_us_p50", us, func() error {
			_, err := core.Build(res.Plan, core.BuildConfig{Disk: p.disk, SortMemoryBlocks: 64})
			return err
		}},
		{"ford.afm_us", us, func() error {
			ford.NewComputer(q4).AFM(q4)
			return nil
		}},
	})
}

// orderProbes time §4's order-selection algorithms on a 31-vertex complete
// binary tree (and a 31-vertex path) whose vertices each carry 10 of 16
// attributes, drawn from the seed.
func (p *probeWorld) orderProbes(m metricSet) error {
	rng := rand.New(rand.NewSource(p.seed))
	const vertices, pool, perVertex = 31, 16, 10
	sets := make([]sortord.AttrSet, vertices)
	for v := range sets {
		sets[v] = sortord.NewAttrSet()
		for _, a := range rng.Perm(pool)[:perVertex] {
			sets[v].Add(fmt.Sprintf("a%02d", a))
		}
	}
	tree := ordersel.Problem{Sets: sets}
	for v := 1; v < vertices; v++ {
		tree.Edges = append(tree.Edges, [2]int{(v - 1) / 2, v})
	}
	if err := tree.Validate(); err != nil {
		return err
	}
	return p.probes(m, []probe{
		{"ordersel.twoapprox_us", us, func() error {
			ordersel.TwoApprox(tree)
			return nil
		}},
		{"ordersel.pathorder_us", us, func() error {
			ordersel.PathOrder(sets)
			return nil
		}},
	})
}

// governProbes time the uncontended fast paths of the two arbiters.
func (p *probeWorld) governProbes(m metricSet) error {
	const calls = 20_000
	gov, err := govern.New(govern.Config{TotalBlocks: 64})
	if err != nil {
		return err
	}
	gate, err := govern.NewGate(2, 0)
	if err != nil {
		return err
	}
	return p.probes(m, []probe{
		{"govern.acquire_release_ns", nsPer(calls), func() error {
			for i := 0; i < calls; i++ {
				g, err := gov.Acquire(16, nil, nil)
				if err != nil {
					return err
				}
				g.Release()
			}
			return nil
		}},
		{"govern.gate_enter_leave_ns", nsPer(calls), func() error {
			for i := 0; i < calls; i++ {
				if _, err := gate.Enter(nil); err != nil {
					return err
				}
				gate.Leave()
			}
			return nil
		}},
	})
}

// planCacheProbes time db.Optimize on its two cache paths through the
// public API: a one-entry cache alternating two shapes misses (and evicts)
// on every call, a default cache asked the same shapes hits on every call
// after the first two.
func (p *probeWorld) planCacheProbes(m metricSet) error {
	const calls = 2000
	events := eventsTable(rand.New(rand.NewSource(p.seed)), 2000, 100)
	for _, pr := range []struct {
		metric string
		size   int
	}{
		{"plancache.miss_us_p50", 1}, {"plancache.hit_us_p50", 0},
	} {
		db := pyro.Open(pyro.Config{PlanCacheSize: pr.size})
		if err := db.CreateTable(events.name, events.cols, events.cluster, events.rows); err != nil {
			return err
		}
		shapes := []*pyro.Query{
			db.Scan("events").OrderBy("g", "v").Limit(10),
			db.Scan("events").OrderBy("g", "v").Limit(1000),
		}
		lat := make([]float64, 0, calls*probeReps)
		err := p.probes(m, []probe{{pr.metric, func(time.Duration) float64 { return median(lat) }, func() error {
			for i := 0; i < calls; i++ {
				t0 := time.Now()
				if _, err := db.Optimize(shapes[i%2]); err != nil {
					return err
				}
				lat = append(lat, us(time.Since(t0)))
			}
			return nil
		}}})
		if err != nil {
			return err
		}
		st := db.ServingStats().PlanCache
		if pr.size == 1 && st.Hits != 0 || pr.size == 0 && st.Misses != 2 {
			return fmt.Errorf("%s: probe did not stay on its cache path: %+v", pr.metric, st)
		}
	}
	return nil
}
