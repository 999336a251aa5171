package pyro

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"pyro/internal/exec"
	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/storage/faulttest"
	"pyro/internal/types"
	"pyro/internal/xsort"
)

// chaosDB builds a compact database whose workloads exercise every fault
// class: a clustered table whose sorts overflow the deliberately small sort
// budget (spill-run reads and writes), a join partner, and a one-segment
// table whose sorts form more runs than the merge fan-in (so they reduce).
// The admission gate is enabled so every chaos run also checks that failed
// queries return their slot.
func chaosDB(t testing.TB) *Database {
	t.Helper()
	db := Open(Config{
		SortMemoryBlocks:     8,
		MaxConcurrentQueries: 4,
	})
	const n, segSize = 4000, 1000
	rows := make([][]any, n)
	for i := 0; i < n; i++ {
		rows[i] = []any{int64(i / segSize), int64(i * 7 % 10_000), int64(i)}
	}
	if err := db.CreateTable("big", []Column{
		{Name: "g", Type: Int64},
		{Name: "v", Type: Int64},
		{Name: "pad", Type: Int64},
	}, ClusterOn("g"), rows); err != nil {
		t.Fatal(err)
	}
	small := make([][]any, 500)
	for i := range small {
		small[i] = []any{int64(i), int64((i * 13) % 1000)}
	}
	if err := db.CreateTable("small", []Column{
		{Name: "k", Type: Int64},
		{Name: "w", Type: Int64},
	}, ClusterOn("k"), small); err != nil {
		t.Fatal(err)
	}
	// One g value, v strictly descending: as a partial sort the whole table
	// is one oversized segment cut into memory-sized runs, and as a full
	// sort replacement selection can never extend a run past one memory
	// load either — both ways 10 runs against a fan-in of 7 (4 merged, 6
	// through). 8 blocks hold ≈ 700 of these rows, encoded plus their sort
	// entries; the table had 2 800 rows while the budget was counted in
	// Tuple.MemSize and a load was ≈ 270.
	deep := make([][]any, 6300)
	for i := range deep {
		deep[i] = []any{int64(0), int64(len(deep) - i), int64(i)}
	}
	if err := db.CreateTable("deep", []Column{
		{Name: "g", Type: Int64},
		{Name: "v", Type: Int64},
		{Name: "pad", Type: Int64},
	}, ClusterOn("g"), deep); err != nil {
		t.Fatal(err)
	}
	// One g value, v scrambled, a little over one memory load: its sorts
	// spill a run or two and keep the rows they still hold at input end
	// for the final merge — a partial sort all of its last batch, a full
	// sort its replacement-selection heap less a few evicted row blocks.
	tail := make([][]any, 1000)
	for i := range tail {
		tail[i] = []any{int64(0), int64(i * 7919 % 1000), int64(i)}
	}
	if err := db.CreateTable("tail", []Column{
		{Name: "g", Type: Int64},
		{Name: "v", Type: Int64},
		{Name: "pad", Type: Int64},
	}, ClusterOn("g"), tail); err != nil {
		t.Fatal(err)
	}
	return db
}

// chaosScenario is one arm of the fault-sweep plan matrix.
type chaosScenario struct {
	name  string
	build func(db *Database) *Query
	limit int // rows to read before closing (0 = drain everything)
	// reduces marks a scenario whose sort must run a partial reduction pass
	// — some runs merged, the others passed through to the final merge —
	// so the sweep fails transfers on both sides of that split.
	reduces bool
	// keepsTail marks a scenario whose sort must spill and keep its tail
	// for a final merge with no pass, so the sweep fails the run writes, the
	// eviction's and the final merge's reads beside the tail in memory.
	keepsTail bool
}

func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		// Full sort on an unclustered column: run formation, spilling and
		// merging all on the critical path.
		{name: "spill-sort", build: func(db *Database) *Query {
			return db.Scan("big").OrderBy("v")
		}},
		// Pipelined partial sort consumed Top-K style: the cursor closes
		// after a prefix, so later segments — and the fault points inside
		// them — are legitimately never reached.
		{name: "topk-early-close", build: func(db *Database) *Query {
			return db.Scan("big").OrderBy("g", "v")
		}, limit: 16},
		// Equality join on non-clustered columns (a hash join under the
		// default heuristic) with a sorted output on top.
		{name: "hash-join", build: func(db *Database) *Query {
			return db.Scan("big").Join(db.Scan("small"), Eq(Col("v"), Col("k"))).OrderBy("pad")
		}},
		// Run reduction, both ways in: a full sort reduces after run
		// formation (xsort.reduceRuns), a spilled partial-sort segment while
		// its last runs are still being formed (the pipelined harvest).
		{name: "reduce-full-sort", build: func(db *Database) *Query {
			return db.Scan("deep").OrderBy("v")
		}, reduces: true},
		{name: "reduce-segment", build: func(db *Database) *Query {
			return db.Scan("deep").OrderBy("g", "v")
		}, reduces: true},
		// Planned Top-K, the sort bounded by its Limit. k rows fit the
		// budget: a bounded selection over the first segment (or, without a
		// usable prefix, over the whole table), no run ever written — every
		// fault point is a data-page read.
		{name: "topk-bounded-fits", build: func(db *Database) *Query {
			return db.Scan("big").OrderBy("g", "v").Limit(16)
		}},
		{name: "topk-bounded-full-sort", build: func(db *Database) *Query {
			return db.Scan("big").OrderBy("v").Limit(16)
		}},
		// k rows exceed the budget: the segment spills runs cut at k rows and
		// its reduction merges stop at k rows, leaving their inputs part-read.
		{name: "topk-bounded-spills", build: func(db *Database) *Query {
			return db.Scan("deep").OrderBy("g", "v").Limit(900)
		}, reduces: true},
		// A sort a little over one memory load: one run or two, the rest
		// merged from memory.
		{name: "tail-segment", build: func(db *Database) *Query {
			return db.Scan("tail").OrderBy("g", "v")
		}, keepsTail: true},
		{name: "tail-full-sort", build: func(db *Database) *Query {
			return db.Scan("tail").OrderBy("v")
		}, keepsTail: true},
	}
}

// checkKeptTail asserts that plan's sort spilled one or two runs and merged
// them with no pass beside a tail it kept: it wrote fewer run pages than the
// data pages it read.
func checkKeptTail(t *testing.T, db *Database, plan *Plan) {
	t.Helper()
	cur, err := db.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	st := cur.Stats()
	data := st.IO.PageReads - st.IO.RunPageReads
	for _, s := range st.Sorts {
		if s.RunsGenerated >= 1 && s.RunsGenerated <= 2 && s.MergePasses == 0 && st.IO.RunPageWrites < data {
			return
		}
	}
	t.Fatalf("no sort kept its tail: %d run pages written for %d data pages, %+v", st.IO.RunPageWrites, data, st.Sorts)
}

// checkPartialReduction asserts that plan's sort ran an intermediate merge
// pass that consumed some of its runs and left the rest for the final merge.
func checkPartialReduction(t *testing.T, db *Database, plan *Plan) {
	t.Helper()
	cur, err := db.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	for _, st := range cur.Stats().Sorts {
		if st.MergePasses > 0 && st.RunsMerged > 0 && st.RunsMerged < st.RunsGenerated {
			return
		}
	}
	t.Fatalf("no sort ran a partial reduction pass: %+v", cur.Stats().Sorts)
}

// runChaosQuery executes plan and returns the rows read (rendered, limited
// to limit when nonzero), the query's tap-attributed I/O and its first
// error from any stage — Query, Next or Close. batch is the capacity of the
// chunks the cursor drains the plan's root in, and so of every chunk below
// it down to the sort enforcers: 1 runs the tree one row per call above
// them, types.DefaultChunkCapacity is the default drain.
func runChaosQuery(db *Database, plan *Plan, batch, limit int) ([]string, IOStats, error) {
	query := queryChunked
	if batch == 1 {
		query = queryOneRow
	}
	cur, err := query(db, plan)
	if err != nil {
		return nil, IOStats{}, err
	}
	var rows []string
	for cur.Next() {
		rows = append(rows, fmt.Sprint(cur.Row()))
		if limit > 0 && len(rows) >= limit {
			break
		}
	}
	if cerr := cur.Close(); cerr != nil && cur.Err() == nil {
		return rows, cur.Stats().IO, cerr
	}
	return rows, cur.Stats().IO, cur.Err()
}

// checkServingRestored asserts the invariants every chaos run must restore,
// success or failure: no leaked temp files or arenas, an empty sort-memory
// pool and an empty admission gate.
func checkServingRestored(t *testing.T, db *Database, at string) {
	t.Helper()
	storage.AssertNoLeaks(leakLabel{TB: t, at: at}, db.disk)
	s := db.ServingStats()
	if s.Governor.GrantedBlocks != 0 || s.Governor.LiveGrants != 0 {
		t.Errorf("%s: sort-memory pool not restored: %d blocks across %d grants still out",
			at, s.Governor.GrantedBlocks, s.Governor.LiveGrants)
	}
	if s.Admission.Live != 0 {
		t.Errorf("%s: admission gate not restored: %d slots still held", at, s.Admission.Live)
	}
}

// leakLabel prefixes AssertNoLeaks failures with the fault point that
// produced them, so a sweep failure names its point.
type leakLabel struct {
	storage.TB
	at string
}

func (l leakLabel) Errorf(format string, args ...any) {
	l.TB.Errorf("%s: "+format, append([]any{l.at}, args...)...)
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestChaosFaultSweep is the fault-sweep harness: for every scenario of the
// plan matrix, with its root drained a row and a chunk per call, it observes
// the workload's page transfers per fault class, enumerates fault points across
// them (every transfer under PYRO_CHAOS_FULL=1, a strided sample otherwise,
// plus a panic-mode point per class), injects each one and asserts the
// robustness contract: the fault surfaces as an error — never a panic or a
// hang — nothing leaks, pool and gate are restored, and an immediate re-run
// is identical to the no-fault baseline.
func TestChaosFaultSweep(t *testing.T) {
	perClass := 3
	if os.Getenv("PYRO_CHAOS_FULL") != "" {
		perClass = 0
	}
	db := chaosDB(t)
	for _, sc := range chaosScenarios() {
		plan, err := db.Optimize(sc.build(db))
		if err != nil {
			t.Fatal(err)
		}
		if sc.reduces {
			checkPartialReduction(t, db, plan)
		}
		if sc.keepsTail {
			checkKeptTail(t, db, plan)
		}
		for _, batch := range []int{1, types.DefaultChunkCapacity} {
			// An early-closed pipelined query abandons in-flight read-ahead
			// and spill work at whatever point Close catches it, so only a
			// full drain has scheduling-independent I/O totals to pin.
			exactIO := sc.limit == 0
			t.Run(fmt.Sprintf("%s/batch=%d", sc.name, batch), func(t *testing.T) {
				baseRows, baseIO, err := runChaosQuery(db, plan, batch, sc.limit)
				if err != nil {
					t.Fatalf("no-fault baseline failed: %v", err)
				}
				counts, err := faulttest.Observe(db.disk, func() error {
					rows, io, err := runChaosQuery(db, plan, batch, sc.limit)
					if err == nil && (!sameRows(rows, baseRows) || (exactIO && io != baseIO)) {
						return fmt.Errorf("observed run diverged from baseline: %d rows io %+v, want %d rows io %+v",
							len(rows), io, len(baseRows), baseIO)
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				points := faulttest.Enumerate(counts, perClass)
				for _, c := range storage.FaultClasses {
					if counts[c] > 0 {
						points = append(points, faulttest.Point{Class: c, At: 1 + counts[c]/2, Panic: true})
					}
				}
				if len(points) == 0 {
					t.Fatal("workload hit no fault points at all")
				}
				for _, pt := range points {
					db.disk.SetFaultPlan(pt.Plan())
					rows, _, err := runChaosQuery(db, plan, batch, sc.limit)
					triggered := db.disk.FaultPlan().Triggered()
					db.disk.SetFaultPlan(nil)

					if triggered > 0 {
						if err == nil {
							// An early close may abandon the faulted work
							// (a run written ahead that was never needed);
							// success is then correct — but only with the
							// right rows and nothing leaked.
							if sc.limit == 0 {
								t.Errorf("%v#%d: fault fired but the query reported success", pt, pt.At)
							} else if !sameRows(rows, baseRows) {
								t.Errorf("%v#%d: swallowed fault changed the result", pt, pt.At)
							}
						} else if pt.Panic {
							if !strings.Contains(err.Error(), "panic") {
								t.Errorf("%v#%d: injected panic surfaced without panic context: %v", pt, pt.At, err)
							}
							// Containment preserves the chain: the recovered
							// panic value is the fault error itself.
							if !errors.Is(err, storage.ErrInjectedFault) {
								t.Errorf("%v#%d: contained panic lost the injected-fault cause: %v", pt, pt.At, err)
							}
						} else if !errors.Is(err, storage.ErrInjectedFault) {
							t.Errorf("%v#%d: error lost the injected-fault cause: %v", pt, pt.At, err)
						}
					} else {
						// The workload never reached this transfer (an early
						// close can skip it); the run must be indistinguishable
						// from the baseline.
						if err != nil {
							t.Errorf("%v#%d: unreached fault point still failed: %v", pt, pt.At, err)
						} else if !sameRows(rows, baseRows) {
							t.Errorf("%v#%d: unreached fault point changed the result", pt, pt.At)
						}
					}
					checkServingRestored(t, db, fmt.Sprintf("%v#%d", pt, pt.At))

					// The device is healthy again: the same query must
					// succeed with results and I/O identical to the baseline.
					rerunRows, rerunIO, err := runChaosQuery(db, plan, batch, sc.limit)
					if err != nil {
						t.Fatalf("%v#%d: re-run after fault failed: %v", pt, pt.At, err)
					}
					if !sameRows(rerunRows, baseRows) {
						t.Errorf("%v#%d: re-run rows diverged from baseline", pt, pt.At)
					}
					if exactIO && rerunIO != baseIO {
						t.Errorf("%v#%d: re-run I/O diverged: %+v, want %+v", pt, pt.At, rerunIO, baseIO)
					}
				}
			})
		}
	}
}

// TestChaosTempQuotaENOSPC drives the spilling sort into the temp-space
// quota: the write that would exceed it fails with ErrNoTempSpace, nothing
// leaks, and lifting the quota restores byte-identical execution.
func TestChaosTempQuotaENOSPC(t *testing.T) {
	db := chaosDB(t)
	for name, q := range map[string]*Query{
		"full sort":              db.Scan("big").OrderBy("v"),
		"bounded sort, k spills": db.Scan("deep").OrderBy("g", "v").Limit(900),
	} {
		plan, err := db.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		baseRows, baseIO, err := runChaosQuery(db, plan, types.DefaultChunkCapacity, 0)
		if err != nil {
			t.Fatal(err)
		}
		db.disk.SetTempQuotaPages(2)
		_, _, err = runChaosQuery(db, plan, types.DefaultChunkCapacity, 0)
		if err == nil {
			t.Fatalf("%s: spilling sort succeeded under a 2-page temp quota", name)
		}
		if !errors.Is(err, storage.ErrNoTempSpace) {
			t.Fatalf("%s: quota violation lost its ErrNoTempSpace cause: %v", name, err)
		}
		checkServingRestored(t, db, name+" after quota failure")
		db.disk.SetTempQuotaPages(0)
		rows, io, err := runChaosQuery(db, plan, types.DefaultChunkCapacity, 0)
		if err != nil {
			t.Fatalf("%s: re-run after lifting the quota failed: %v", name, err)
		}
		if !sameRows(rows, baseRows) || io != baseIO {
			t.Fatalf("%s: re-run after quota diverged from baseline (io %+v, want %+v)", name, io, baseIO)
		}
	}
}

// TestQueryTimeoutAbortsSort: a query whose context times out before its
// full sort has run surfaces context.DeadlineExceeded from the cursor and
// releases everything it held — the slot, the grant and the opened plan.
func TestQueryTimeoutAbortsSort(t *testing.T) {
	db := chaosDB(t)
	plan, err := db.Optimize(db.Scan("big").OrderBy("v"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	cur, err := db.Query(ctx, plan)
	if err == nil {
		<-ctx.Done()
		for cur.Next() {
		}
		err = cur.Err()
		if cerr := cur.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		t.Fatal("query outran its context's timeout")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout surfaced as %v, want context.DeadlineExceeded", err)
	}
	checkServingRestored(t, db, "after timeout")
	if _, _, err := runChaosQuery(db, plan, types.DefaultChunkCapacity, 0); err != nil {
		t.Fatalf("re-run without the timeout failed: %v", err)
	}
}

// TestWithDeadlineInPast rejects a query whose context deadline has passed
// before it takes any resource.
func TestWithDeadlineInPast(t *testing.T) {
	db := chaosDB(t)
	plan, err := db.Optimize(db.Scan("big").OrderBy("v"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = db.Query(ctx, plan)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("past deadline surfaced as %v, want context.DeadlineExceeded", err)
	}
	checkServingRestored(t, db, "after past deadline")
	if _, _, err := runChaosQuery(db, plan, types.DefaultChunkCapacity, 0); err != nil {
		t.Fatalf("re-run without the deadline failed: %v", err)
	}
}

// TestDeadlineWhileQueuedAtGate covers a query whose whole life is spent
// queued: with one execution slot held by a live cursor, a second query's
// deadline must fire inside the admission wait and give nothing back dirty.
func TestDeadlineWhileQueuedAtGate(t *testing.T) {
	db := Open(Config{SortMemoryBlocks: 8, MaxConcurrentQueries: 1})
	rows := make([][]any, 500)
	for i := range rows {
		rows[i] = []any{int64(i / 100), int64(i * 7 % 997)}
	}
	if err := db.CreateTable("big", []Column{
		{Name: "g", Type: Int64},
		{Name: "v", Type: Int64},
	}, ClusterOn("g"), rows); err != nil {
		t.Fatal(err)
	}
	plan, err := db.Optimize(db.Scan("big").OrderBy("g", "v"))
	if err != nil {
		t.Fatal(err)
	}
	holder, err := db.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !holder.Next() {
		t.Fatalf("holder produced no rows: %v", holder.Err())
	}
	if err := queryWithTimeout(db, plan, 20*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued query's deadline surfaced as %v, want context.DeadlineExceeded", err)
	}
	if err := holder.Close(); err != nil {
		t.Fatal(err)
	}
	checkServingRestored(t, db, "after gate-queued deadline")
	if _, _, err := runChaosQuery(db, plan, types.DefaultChunkCapacity, 0); err != nil {
		t.Fatalf("query after the holder closed failed: %v", err)
	}
}

// TestDeadlineWhileBlockedInGovernor covers the other blocking point: a
// 2-block pool held by two live cursors, one block each, is at its
// minimum grant for every claimant, so a third query can only wait — its
// deadline must reach it there.
func TestDeadlineWhileBlockedInGovernor(t *testing.T) {
	db := Open(Config{
		SortMemoryBlocks:       8,
		GlobalSortMemoryBlocks: 2,
	})
	rows := make([][]any, 2000)
	for i := range rows {
		rows[i] = []any{int64(i / 500), int64(i * 7 % 9973), int64(i)}
	}
	if err := db.CreateTable("big", []Column{
		{Name: "g", Type: Int64},
		{Name: "v", Type: Int64},
		{Name: "pad", Type: Int64},
	}, ClusterOn("g"), rows); err != nil {
		t.Fatal(err)
	}
	plan, err := db.Optimize(db.Scan("big").OrderBy("g", "v"))
	if err != nil {
		t.Fatal(err)
	}
	var holders []*Cursor
	for range 2 {
		holder, err := db.Query(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		if !holder.Next() {
			t.Fatalf("holder produced no rows: %v", holder.Err())
		}
		holders = append(holders, holder)
	}
	if s := db.ServingStats().Governor; s.LiveGrants != 2 || s.GrantedBlocks != 2 {
		t.Fatalf("holders hold %d blocks across %d grants; the test needs the 2-block pool split between both",
			s.GrantedBlocks, s.LiveGrants)
	}
	if err := queryWithTimeout(db, plan, 20*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("grant-blocked query's deadline surfaced as %v, want context.DeadlineExceeded", err)
	}
	if w := db.ServingStats().Governor.GrantWaits; w != 1 {
		t.Fatalf("governor recorded %d grant waits, want the third query's 1", w)
	}
	for _, holder := range holders {
		if err := holder.Close(); err != nil {
			t.Fatal(err)
		}
	}
	checkServingRestored(t, db, "after governor-blocked deadline")
	if _, _, err := runChaosQuery(db, plan, types.DefaultChunkCapacity, 0); err != nil {
		t.Fatalf("query after the holders closed failed: %v", err)
	}
}

// queryWithTimeout runs Query under a context that times out after d and
// returns its error; a cursor it opens is closed at once.
func queryWithTimeout(db *Database, plan *Plan, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	cur, err := db.Query(ctx, plan)
	if err != nil {
		return err
	}
	return cur.Close()
}

// TestInCallAbortReachesEveryLoop: the cursor checks its context only
// between NextChunk calls, so every operator loop that can run for an
// input-sized number of iterations inside one call must poll the abort the
// query binds (exec.Bind). Each tree's abort passes its first poll and fails
// its second — a guard polls on its first check and then once a stride — so
// the first NextChunk must return the abort having polled exactly twice, and
// Close must then leave nothing behind. A loop that checks once per input
// chunk is driven at capacity 1; one that checks once per output row fills a
// full chunk.
func TestInCallAbortReachesEveryLoop(t *testing.T) {
	const n = 2000 // rows per input: several guard strides
	db := Open(Config{})
	t.Cleanup(func() { storage.AssertNoLeaks(t, db.disk) })
	dup := make([][]any, n)
	for i := range dup {
		dup[i] = []any{int64(7), int64(i)}
	}
	if err := db.CreateTable("dup", []Column{{Name: "k", Type: Int64}, {Name: "v", Type: Int64}}, ClusterOn("k"), dup); err != nil {
		t.Fatal(err)
	}
	dupTable, err := db.cat.Table("dup")
	if err != nil {
		t.Fatal(err)
	}
	// ints is a one-column input of rows f(0), …, f(rows-1).
	ints := func(col string, rows int, f func(i int) int64) exec.Operator {
		data := make([]types.Tuple, rows)
		for i := range data {
			data[i] = types.Tuple{types.NewInt(f(i))}
		}
		v, err := exec.NewValues(types.NewSchema(types.Column{Name: col, Kind: types.KindInt}), data)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	id := func(i int) int64 { return int64(i) }
	never := Lt(Col("k"), Int(-1))
	count := []exec.AggSpec{{Name: "n", Func: exec.AggCount}}
	cases := []struct {
		name     string
		capacity int
		build    func() (exec.Operator, error)
	}{
		{"filter rejecting every row", 1, func() (exec.Operator, error) {
			return exec.NewFilter(ints("k", n, id), never)
		}},
		{"hash-join build", 1, func() (exec.Operator, error) {
			return exec.NewHashJoin(ints("k", 1, id), ints("j", n, id), []string{"k"}, []string{"j"}, exec.InnerJoin)
		}},
		{"hash-aggregate ingest", 1, func() (exec.Operator, error) {
			return exec.NewHashAggregate(ints("k", n, id), []string{"k"}, count)
		}},
		{"group-aggregate over one group", 1, func() (exec.Operator, error) {
			return exec.NewGroupAggregate(ints("g", n, func(int) int64 { return 0 }), []string{"g"}, count)
		}},
		{"merge join on disjoint keys", 1, func() (exec.Operator, error) {
			return exec.NewMergeJoin(ints("k", n, id), ints("j", n, func(i int) int64 { return int64(n + i) }),
				sortord.New("k"), sortord.New("j"), exec.InnerJoin)
		}},
		{"merge union", types.DefaultChunkCapacity, func() (exec.Operator, error) {
			return exec.NewMergeUnion(ints("k", n, func(i int) int64 { return int64(2 * i) }),
				ints("k", n, func(i int) int64 { return int64(2*i + 1) }), sortord.New("k"))
		}},
		{"nested-loops spool", 1, func() (exec.Operator, error) {
			return exec.NewNLJoin(ints("k", 1, id), ints("j", n, id), never, exec.InnerJoin, db.disk, 64)
		}},
		{"nested-loops join", types.DefaultChunkCapacity, func() (exec.Operator, error) {
			return exec.NewNLJoin(ints("k", n, id), ints("j", 10, id), never, exec.InnerJoin, db.disk, 64)
		}},
		{"fetch", types.DefaultChunkCapacity, func() (exec.Operator, error) {
			return exec.NewFetch(ints("ref", 1, func(int) int64 { return 7 }), dupTable, []string{"ref"})
		}},
		{"sort collect", 1, func() (exec.Operator, error) {
			return exec.NewSortSRS(ints("k", n, func(i int) int64 { return int64(i * 7919 % n) }), sortord.New("k"),
				xsort.Config{Disk: db.disk, MemoryBlocks: 64, BatchSize: types.DefaultChunkCapacity})
		}},
	}
	errAbort := errors.New("aborted")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			polls := 0
			exec.Bind(op, iter.Binding{Abort: func() error {
				if polls++; polls >= 2 {
					return errAbort
				}
				return nil
			}})
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			c := types.GetChunk(op.Schema().Len(), tc.capacity)
			defer types.PutChunk(c)
			if err := op.NextChunk(c); !errors.Is(err, errAbort) {
				t.Errorf("the first NextChunk returned %v (%d rows) after %d polls, want the abort", err, c.Rows(), polls)
			}
			if polls != 2 {
				t.Errorf("%d polls, want 2", polls)
			}
			if err := op.Close(); err != nil {
				t.Fatalf("Close after the abort: %v", err)
			}
		})
	}
}
