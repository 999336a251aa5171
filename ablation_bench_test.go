package pyro

// Ablation benchmarks for the design choices DESIGN.md calls out: partial
// sort on/off, phase-2 refinement on/off, deferred fetch vs table scan,
// favorable orders vs exhaustive enumeration.

import (
	"fmt"
	"testing"

	"pyro/internal/catalog"
	"pyro/internal/core"
	"pyro/internal/exec"
	"pyro/internal/storage"
	"pyro/internal/workload"
)

func q3World(b *testing.B) (*catalog.Catalog, *storage.Disk) {
	b.Helper()
	disk := storage.NewDisk(0)
	cat := catalog.New(disk)
	cfg := workload.DefaultTPCH()
	cfg.Suppliers, cfg.PartsPerSupplier = 50, 40
	if err := workload.BuildTPCH(cat, cfg); err != nil {
		b.Fatal(err)
	}
	return cat, disk
}

func benchQ3Execution(b *testing.B, mutate func(*core.Options)) {
	benchQ3ExecutionCfg(b, mutate, func(*core.BuildConfig) {})
}

func benchQ3ExecutionCfg(b *testing.B, mutate func(*core.Options), mutateBuild func(*core.BuildConfig)) {
	cat, disk := q3World(b)
	q3, err := workload.Query3(cat)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions(core.HeuristicFavorable)
	opts.DisableHashJoin = true
	opts.DisableHashAgg = true
	opts.Model.MemoryBlocks = 32
	mutate(&opts)
	res, err := core.Optimize(q3, opts)
	if err != nil {
		b.Fatal(err)
	}
	bcfg := core.BuildConfig{Disk: disk, SortMemoryBlocks: 32}
	mutateBuild(&bcfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := core.Build(res.Plan, bcfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exec.Drain(op); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Plan.Cost.Total, "est-cost")
}

// BenchmarkAblationPartialSortOn/Off isolate the §3 partial-sort enforcer.
func BenchmarkAblationPartialSortOn(b *testing.B) {
	benchQ3Execution(b, func(o *core.Options) {})
}

func BenchmarkAblationPartialSortOff(b *testing.B) {
	benchQ3Execution(b, func(o *core.Options) { o.DisablePartialSort = true })
}

// BenchmarkAblationSortParallelismOff pins MRS segment sorting to one
// goroutine (the serial paper algorithm); the On arm is the GOMAXPROCS
// default of BenchmarkAblationPartialSortOn.
func BenchmarkAblationSortParallelismOff(b *testing.B) {
	benchQ3ExecutionCfg(b, func(*core.Options) {},
		func(c *core.BuildConfig) { c.SortParallelism = 1 })
}

// BenchmarkAblationPhase2On/Off isolate the §5.2.2 refinement on the Query
// 4 outer-join chain.
func benchQ4Execution(b *testing.B, disablePhase2 bool) {
	disk := storage.NewDisk(0)
	cat := catalog.New(disk)
	if err := workload.BuildOuterJoinTables(cat, 8000, 5); err != nil {
		b.Fatal(err)
	}
	q4, err := workload.Query4(cat)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions(core.HeuristicFavorable)
	opts.DisablePhase2 = disablePhase2
	opts.Model.MemoryBlocks = 32
	res, err := core.Optimize(q4, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := core.Build(res.Plan, core.BuildConfig{Disk: disk, SortMemoryBlocks: 32})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exec.Drain(op); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Plan.Cost.Total, "est-cost")
}

func BenchmarkAblationPhase2On(b *testing.B)  { benchQ4Execution(b, false) }
func BenchmarkAblationPhase2Off(b *testing.B) { benchQ4Execution(b, true) }

// BenchmarkAblationDeferredFetch compares the §7 deferred-fetch plan with
// the plain scan+filter plan on a selective predicate over a wide table.
func BenchmarkAblationDeferredFetch(b *testing.B) {
	for _, withIndex := range []bool{true, false} {
		name := "fetch"
		if !withIndex {
			name = "tablescan"
		}
		b.Run(name, func(b *testing.B) {
			db := Open(Config{SortMemoryBlocks: 64})
			var rows [][]any
			for i := 0; i < 30_000; i++ {
				rows = append(rows, []any{int64(i), int64(i % 2000),
					"wide-payload-wide-payload-wide-payload-wide-payload",
					"extra-extra-extra-extra-extra-extra-extra-extra-pad"})
			}
			if err := db.CreateTable("wide", []Column{
				{Name: "id", Type: Int64},
				{Name: "tag", Type: Int64},
				{Name: "p1", Type: String, Width: 60},
				{Name: "p2", Type: String, Width: 60},
			}, ClusterOn("id"), rows); err != nil {
				b.Fatal(err)
			}
			if withIndex {
				if err := db.CreateIndex("wide_tag", "wide", []string{"tag"}, []string{"id"}); err != nil {
					b.Fatal(err)
				}
			}
			q := db.Scan("wide").Filter(Eq(Col("tag"), Int(7)))
			plan, err := db.Optimize(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := queryAll(db, plan); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(plan.EstimatedCost(), "est-cost")
		})
	}
}

// BenchmarkAblationHeuristics reports the optimization time of each
// heuristic on Query 3 (complements Figure 16's two-relation sweep).
func BenchmarkAblationHeuristics(b *testing.B) {
	cat, _ := q3World(b)
	q3, err := workload.Query3(cat)
	if err != nil {
		b.Fatal(err)
	}
	for _, h := range []core.Heuristic{
		core.HeuristicArbitrary, core.HeuristicFavorableExact, core.HeuristicPostgres,
		core.HeuristicFavorable, core.HeuristicExhaustive,
	} {
		b.Run(fmt.Sprint(h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Optimize(q3, core.DefaultOptions(h)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
