package pyro

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pyro/internal/govern"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// servingDB builds a database with a deliberately small sort budget, a big
// clustered table whose partial-sort segments each overflow that budget
// (so its MRS cursors spill), and a small table for cheap Top-K queries.
func servingDB(t testing.TB, extra Config) *Database {
	t.Helper()
	cfg := extra
	if cfg.SortMemoryBlocks == 0 {
		cfg.SortMemoryBlocks = 16
	}
	db := Open(cfg)
	t.Cleanup(func() { storage.AssertNoLeaks(t, db.disk) })
	const n, segSize = 20_000, 10_000
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
	small := make([][]any, 1000)
	for i := range small {
		small[i] = []any{int64(i % 7), int64((i * 13) % 1000)}
	}
	if err := db.CreateTable("small", []Column{
		{Name: "k", Type: Int64},
		{Name: "v", Type: Int64},
	}, ClusterOn("k"), small); err != nil {
		t.Fatal(err)
	}
	return db
}

// The governor is the one path to sort memory. A lone query whose plan holds
// a sort — full, partial or bounded by a Limit — or a nested-loops join takes
// exactly one grant, of at most SortMemoryBlocks, without waiting, holds it
// while the cursor is open and returns it at Close. An unbounded sort or a
// spool gets its full ask, the whole SortMemoryBlocks: single-cursor
// execution is identical to a static budget of that size. A plan of scans
// and hash operators takes no grant. planShapes is that table; the three
// tests below split its rows between them, so each row runs once.
type planShape struct {
	name, op string // op is what the plan must hold
	q        func(db *Database) *Query
	grants   int
	full     bool // the grant is all of SortMemoryBlocks
}

var planShapes = []planShape{
	{"full sort", "Sort (v, pad)", func(db *Database) *Query { return db.Scan("big").OrderBy("v", "pad") }, 1, true},
	{"partial sort", "Sort(partial) (g) -> (g, v)", func(db *Database) *Query { return db.Scan("big").OrderBy("g", "v") }, 1, true},
	{"bounded Top-K sort", "limit=10", func(db *Database) *Query { return db.Scan("big").OrderBy("g", "v").Limit(10) }, 1, false},
	{"NL join", "NestedLoopsJoin", func(db *Database) *Query {
		return db.Scan("probe").Join(db.Scan("big"), Lt(Col("pad"), Col("a")))
	}, 1, true},
	{"hash-only", "HashAggregate", func(db *Database) *Query {
		return db.Scan("big").GroupBy([]string{"v"}, Agg{Name: "n", Func: Count})
	}, 0, false},
	{"scan-only", "Scan", func(db *Database) *Query { return db.Scan("big") }, 0, false},
}

// TestSingleCursorGetsFullGrant: a lone unbounded sort is granted the whole
// SortMemoryBlocks.
func TestSingleCursorGetsFullGrant(t *testing.T) {
	checkPlanShapeGrants(t, "full sort", "partial sort")
}

// TestScanOnlyPlanTakesNoGrant: a plan without a sort or a spool takes no
// grant.
func TestScanOnlyPlanTakesNoGrant(t *testing.T) {
	checkPlanShapeGrants(t, "hash-only", "scan-only")
}

// TestPlanShapesTakeOneGrantOrNone: a bounded sort takes one grant of its
// smaller ask, and an NL join's spool one grant of the whole budget.
func TestPlanShapesTakeOneGrantOrNone(t *testing.T) {
	checkPlanShapeGrants(t, "bounded Top-K sort", "NL join")
}

// checkPlanShapeGrants runs the named rows of planShapes as subtests that
// share one fresh database.
func checkPlanShapeGrants(t *testing.T, shapes ...string) {
	db := segmentedDB(t, 10_000, 500)
	probe := make([][]any, 10)
	for a := range probe {
		probe[a] = []any{int64(a)}
	}
	if err := db.CreateTable("probe", []Column{{Name: "a", Type: Int64}}, nil, probe); err != nil {
		t.Fatal(err)
	}
	m := db.cfg.SortMemoryBlocks
	for _, name := range shapes {
		i := slices.IndexFunc(planShapes, func(c planShape) bool { return c.name == name })
		if i < 0 {
			t.Fatalf("no plan shape %q", name)
		}
		c := planShapes[i]
		t.Run(c.name, func(t *testing.T) {
			plan, err := db.Optimize(c.q(db))
			if err != nil {
				t.Fatal(err)
			}
			ex := plan.Explain()
			if !strings.Contains(ex, c.op) {
				t.Fatalf("the plan has no %s:\n%s", c.op, ex)
			}
			if c.grants == 0 && (strings.Contains(ex, "Sort") || strings.Contains(ex, "NestedLoops")) {
				t.Fatalf("the plan buffers sort memory:\n%s", ex)
			}
			before := db.ServingStats().Governor
			cur, err := db.Query(context.Background(), plan)
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			if !cur.Next() {
				t.Fatalf("no first row: %v", cur.Err())
			}
			if live := db.ServingStats().Governor.LiveGrants; live != c.grants {
				t.Fatalf("an open cursor holds %d grants, want %d", live, c.grants)
			}
			for cur.Next() {
			}
			if err := cur.Err(); err != nil {
				t.Fatal(err)
			}
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
			st := cur.Stats()
			gov := db.ServingStats().Governor
			if n := gov.Grants - before.Grants; n != int64(c.grants) {
				t.Fatalf("the query took %d grants, want %d", n, c.grants)
			}
			switch {
			case c.grants == 0 && st.GrantedBlocks != 0:
				t.Fatalf("a grant-free plan reports %d granted blocks", st.GrantedBlocks)
			case c.grants == 1 && (st.GrantedBlocks < 1 || st.GrantedBlocks > m):
				t.Fatalf("granted %d blocks, want 1..%d", st.GrantedBlocks, m)
			case c.full && st.GrantedBlocks != m:
				t.Fatalf("lone cursor granted %d blocks, want the full SortMemoryBlocks=%d", st.GrantedBlocks, m)
			case c.grants == 1 && !c.full && st.GrantedBlocks >= m:
				t.Fatalf("a bounded sort was granted %d blocks, want its ask below %d", st.GrantedBlocks, m)
			}
			if st.GrantWaits != 0 || st.GrantWait != 0 {
				t.Fatalf("lone cursor waited for memory: %+v", st)
			}
			if gov.GrantedBlocks != 0 || gov.LiveGrants != 0 {
				t.Fatalf("grant not returned at cursor close: %+v", gov)
			}
		})
	}
}

// TestGovernorStarvationFairness is the serving layer's liveness property:
// one huge spilling sort holding the whole pool must not starve a queue of
// small Top-K cursors. The big cursor spills its first oversized segment
// and then sits mid-stream, pinning its grant; the small queries must all
// complete promptly because each arrival's reclaim shrinks the hoarder to
// the pool's water level.
func TestGovernorStarvationFairness(t *testing.T) {
	db := servingDB(t, Config{})
	bigPlan, err := db.Optimize(db.Scan("big").OrderBy("g", "v"))
	if err != nil {
		t.Fatal(err)
	}
	big, err := db.Query(context.Background(), bigPlan)
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	// Pull a few rows: the first 10k-row segment has been collected and
	// spilled (16 blocks = 64 KB cannot hold it), so the cursor now holds
	// the full 16-block grant with run-page writes on its tap.
	for i := 0; i < 10 && big.Next(); i++ {
	}
	if err := big.Err(); err != nil {
		t.Fatal(err)
	}
	if spills := big.Stats().Sorts[0].SpilledSegs; spills == 0 {
		t.Fatal("big cursor did not spill; the starvation scenario needs a spilling hoarder")
	}
	if got := db.ServingStats().Governor.GrantedBlocks; got != 16 {
		t.Fatalf("big cursor holds %d blocks, want the whole 16-block pool", got)
	}

	smallPlan, err := db.Optimize(db.Scan("small").OrderBy("v").Limit(5))
	if err != nil {
		t.Fatal(err)
	}
	const K = 6
	done := make(chan ExecStats, K)
	errs := make(chan error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cur, err := db.Query(ctx, smallPlan)
			if err != nil {
				errs <- err
				return
			}
			rows := 0
			for cur.Next() {
				rows++
			}
			if err := cur.Close(); err != nil {
				errs <- err
				return
			}
			if rows != 5 {
				errs <- context.DeadlineExceeded
				return
			}
			done <- cur.Stats()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("small Top-K query failed or starved behind the spilling sort: %v", err)
	}
	close(done)
	for st := range done {
		if st.GrantedBlocks == 0 {
			t.Fatal("small query completed without a grant")
		}
	}
	gov := db.ServingStats().Governor
	if gov.Shrinks == 0 || gov.ReclaimedBlocks == 0 {
		t.Fatalf("spilling hoarder was never reclaimed: %+v", gov)
	}
	if gov.PeakGrantedBlocks > 16 {
		t.Fatalf("pool overcommitted: peak %d > 16", gov.PeakGrantedBlocks)
	}
	// The big cursor, shrunk but never revoked, still streams to completion.
	for big.Next() {
	}
	if err := big.Err(); err != nil {
		t.Fatal(err)
	}
	if rows := big.Stats().Rows; rows != 20_000 {
		t.Fatalf("big cursor returned %d rows after reclaim, want 20000", rows)
	}
}

// TestGrantAtWaterLevelKeepsTopKInMemory is topk_serve's contended case,
// deterministically: a Top-K of 1000 over 2000-row segments asks for the
// whole 16-block pool. Beside a 2-block neighbour the max-min fair level
// leaves it 14 blocks, on which it selects its rows without writing a run;
// beside a neighbour asking the whole pool it gets the even split of 8 and
// spills. Either way its rows are the first 1000 of a naive sort.
func TestGrantAtWaterLevelKeepsTopKInMemory(t *testing.T) {
	const k = 1000
	rng := rand.New(rand.NewSource(1))
	rows := make([][]any, 6000)
	for i := range rows {
		rows[i] = []any{int64(i / 2000), rng.Int63n(1_000_000), int64(i)}
	}
	want := slices.Clone(rows)
	slices.SortStableFunc(want, func(a, b []any) int {
		return cmp.Or(cmp.Compare(a[0].(int64), b[0].(int64)), cmp.Compare(a[1].(int64), b[1].(int64)))
	})
	want = want[:k]

	for _, c := range []struct {
		neighbour, granted int
		spills             bool
	}{
		{2, 14, false},
		{16, 8, true},
	} {
		db := Open(Config{SortMemoryBlocks: 16, GlobalSortMemoryBlocks: 16})
		if err := db.CreateTable("events", []Column{
			{Name: "g", Type: Int64},
			{Name: "v", Type: Int64},
			{Name: "pad", Type: Int64},
		}, ClusterOn("g"), rows); err != nil {
			t.Fatal(err)
		}
		hold, err := db.gov.Acquire(c.neighbour, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := db.Optimize(db.Scan("events").OrderBy("g", "v").Limit(k))
		if err != nil {
			t.Fatal(err)
		}
		cur, err := db.Query(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]any
		for cur.Next() {
			got = append(got, cur.Row())
		}
		if err := errors.Join(cur.Err(), cur.Close()); err != nil {
			t.Fatal(err)
		}
		hold.Release()
		st := cur.Stats()
		if st.GrantedBlocks != c.granted {
			t.Errorf("beside a %d-block neighbour: granted %d blocks, want %d", c.neighbour, st.GrantedBlocks, c.granted)
		}
		if spilled := st.IO.RunPageWrites > 0; spilled != c.spills {
			t.Errorf("beside a %d-block neighbour: %d run-page writes, want spilling=%v", c.neighbour, st.IO.RunPageWrites, c.spills)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("beside a %d-block neighbour: %d rows differ from the reference's first %d", c.neighbour, len(got), k)
		}
		storage.AssertNoLeaks(t, db.disk)
	}
}

// TestNLJoinOuterBlocksFollowGrant: a nested-loops join sizes every outer
// block from its query's live grant, like a sort's row store. A lone query
// loads its first block at its full 16-block grant; a newcomer asking the
// whole pool then shrinks the grant to 8, and every later block holds half
// the rows, so the spool is rescanned once per smaller block. The passes
// are counted from the query's own I/O: each pass reads the whole spool.
func TestNLJoinOuterBlocksFollowGrant(t *testing.T) {
	const outer, inner, pool = 4000, 20, 16
	var os, is [][]any
	for x := 0; x < outer; x++ {
		os = append(os, []any{int64(x), int64(x)})
	}
	for y := 0; y < inner; y++ {
		is = append(is, []any{int64(outer + y)})
	}
	db := Open(Config{SortMemoryBlocks: pool, GlobalSortMemoryBlocks: pool})
	t.Cleanup(func() { storage.AssertNoLeaks(t, db.disk) })
	if err := db.CreateTable("o", []Column{{Name: "x", Type: Int64}, {Name: "w", Type: Int64}}, ClusterOn("x"), os); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("i", []Column{{Name: "y", Type: Int64}}, nil, is); err != nil {
		t.Fatal(err)
	}
	// Every pair matches: x < y throughout.
	plan, err := db.Optimize(db.Scan("o").Join(db.Scan("i"), Lt(Col("x"), Col("y"))))
	if err != nil {
		t.Fatal(err)
	}
	if ex := plan.Explain(); !strings.HasPrefix(ex, "NestedLoopsJoin") || !strings.Contains(ex, "\n  TableScan o") {
		t.Fatalf("want a nested-loops join with o outer:\n%s", ex)
	}
	// An outer block takes rows until their in-memory size reaches the
	// budget, so it holds perBlock(b) rows at b blocks.
	rowMem := types.Tuple{types.NewInt(0), types.NewInt(0)}.MemSize()
	perBlock := func(blocks int) int { return (blocks*db.cfg.PageSize + rowMem - 1) / rowMem }
	ceilDiv := func(a, b int) int { return (a + b - 1) / b }
	passes := func(io IOStats) int64 {
		if io.RunPageWrites == 0 {
			t.Fatal("the join wrote no spool")
		}
		return io.RunPageReads / io.RunPageWrites
	}

	for _, shrink := range []bool{false, true} {
		cur, err := db.Query(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		if !cur.Next() { // spools the inner, loads the first block at 16
			t.Fatalf("no first row: %v", cur.Err())
		}
		var hold *govern.Grant
		if shrink {
			if hold, err = db.gov.Acquire(pool, nil, nil); err != nil {
				t.Fatal(err)
			}
			if got := hold.Initial(); got != pool/2 {
				t.Fatalf("the newcomer was granted %d blocks, want %d", got, pool/2)
			}
		}
		rows := int64(1)
		for cur.Next() {
			rows++
		}
		if err := errors.Join(cur.Err(), cur.Close()); err != nil {
			t.Fatal(err)
		}
		if hold != nil {
			hold.Release()
		}
		st := cur.Stats()
		if rows != outer*inner || st.GrantedBlocks != pool {
			t.Fatalf("shrink=%v: %d rows on a %d-block grant, want %d on %d", shrink, rows, st.GrantedBlocks, outer*inner, pool)
		}
		want := ceilDiv(outer, perBlock(pool))
		if shrink {
			want = 1 + ceilDiv(outer-perBlock(pool), perBlock(pool/2))
		}
		if got := passes(st.IO); got != int64(want) {
			t.Errorf("shrink=%v: %d spool passes, want %d (%d rows a block at %d blocks, %d at %d)",
				shrink, got, want, perBlock(pool), pool, perBlock(pool/2), pool/2)
		}
	}
}

func TestPlanCacheHitsAndMisses(t *testing.T) {
	db := segmentedDB(t, 2_000, 100)
	q := func() *Query { return db.Scan("big").OrderBy("g", "v") }

	if _, err := db.Optimize(q()); err != nil {
		t.Fatal(err)
	}
	base := db.ServingStats().PlanCache
	if base.Misses == 0 {
		t.Fatal("first Optimize did not miss the plan cache")
	}
	if _, err := db.Optimize(q()); err != nil {
		t.Fatal(err)
	}
	after := db.ServingStats().PlanCache
	if after.Hits != base.Hits+1 {
		t.Fatalf("repeated Optimize did not hit the cache: %+v -> %+v", base, after)
	}

	// An option that changes plan choice must miss.
	if _, err := db.Optimize(q(), WithoutPartialSort()); err != nil {
		t.Fatal(err)
	}
	ablated := db.ServingStats().PlanCache
	if ablated.Misses != after.Misses+1 {
		t.Fatalf("ablated Optimize did not miss: %+v -> %+v", after, ablated)
	}

	// Different projection expressions under identical output names must
	// not collide (the signature includes expressions, not just names).
	p1, err := db.Optimize(db.Scan("big").Project(Proj{Name: "x", Expr: Col("v")}))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := db.Optimize(db.Scan("big").Project(Proj{Name: "x", Expr: Add(Col("v"), Int(1))}))
	if err != nil {
		t.Fatal(err)
	}
	if p1.inner == p2.inner {
		t.Fatal("plan cache collided on queries that differ only in projection expressions")
	}

	r1, err := queryAll(db, p1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := queryAll(db, p2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Data[0][0].(int64)+1 != r2.Data[0][0].(int64) {
		t.Fatalf("colliding plans returned wrong results: %v vs %v", r1.Data[0], r2.Data[0])
	}
}

func TestPlanCacheRowTargetBands(t *testing.T) {
	db := segmentedDB(t, 2_000, 100)
	q := func() *Query { return db.Scan("big").OrderBy("g", "v") }
	optimize := func(opts ...OptimizeOption) {
		t.Helper()
		if _, err := db.Optimize(q(), opts...); err != nil {
			t.Fatal(err)
		}
	}
	optimize()
	before := db.ServingStats().PlanCache

	optimize(WithRowTarget(5)) // band {5..8}: first sighting must miss, never alias the untargeted plan
	s1 := db.ServingStats().PlanCache
	if s1.Misses != before.Misses+1 {
		t.Fatalf("first row-target Optimize did not miss: %+v -> %+v", before, s1)
	}

	optimize(WithRowTarget(6)) // same band: must hit
	s2 := db.ServingStats().PlanCache
	if s2.Hits != s1.Hits+1 || s2.Misses != s1.Misses {
		t.Fatalf("same-band row target did not hit: %+v -> %+v", s1, s2)
	}

	optimize(WithRowTarget(100)) // different band: must miss
	s3 := db.ServingStats().PlanCache
	if s3.Misses != s2.Misses+1 {
		t.Fatalf("different-band row target did not miss: %+v -> %+v", s2, s3)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	db := Open(Config{PlanCacheSize: -1, SortMemoryBlocks: 16})
	if err := db.CreateTable("t", []Column{{Name: "a", Type: Int64}}, nil, [][]any{{int64(1)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Optimize(db.Scan("t").OrderBy("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Optimize(db.Scan("t").OrderBy("a")); err != nil {
		t.Fatal(err)
	}
	if s := db.ServingStats().PlanCache; s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("disabled plan cache recorded activity: %+v", s)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	db := Open(Config{PlanCacheSize: 2, SortMemoryBlocks: 16})
	if err := db.CreateTable("t", []Column{
		{Name: "a", Type: Int64}, {Name: "b", Type: Int64}, {Name: "c", Type: Int64},
	}, nil, [][]any{{int64(1), int64(2), int64(3)}}); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"a", "b", "c"} {
		if _, err := db.Optimize(db.Scan("t").OrderBy(col)); err != nil {
			t.Fatal(err)
		}
	}
	s := db.ServingStats().PlanCache
	if s.Entries != 2 {
		t.Fatalf("cache holds %d entries, capacity is 2", s.Entries)
	}
	if s.Evictions != 1 {
		t.Fatalf("recorded %d evictions, want 1: %+v", s.Evictions, s)
	}
	// The least recently used entry (OrderBy a) is gone: re-optimizing it
	// must miss again.
	miss := s.Misses
	if _, err := db.Optimize(db.Scan("t").OrderBy("a")); err != nil {
		t.Fatal(err)
	}
	if after := db.ServingStats().PlanCache; after.Misses != miss+1 {
		t.Fatalf("evicted entry did not miss on reuse: %+v", after)
	}
}

func TestAdmissionGateQueuesSecondQuery(t *testing.T) {
	db := servingDB(t, Config{MaxConcurrentQueries: 1})
	plan, err := db.Optimize(db.Scan("small").OrderBy("v").Limit(5))
	if err != nil {
		t.Fatal(err)
	}
	first, err := db.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		stats ExecStats
		err   error
	}
	got := make(chan result, 1)
	go func() {
		cur, err := db.Query(context.Background(), plan)
		if err != nil {
			got <- result{err: err}
			return
		}
		for cur.Next() {
		}
		err = cur.Close()
		got <- result{stats: cur.Stats(), err: err}
	}()
	waitUntil(t, "the second query queues", func() bool { return db.ServingStats().Admission.Queued == 1 })
	select {
	case r := <-got:
		t.Fatalf("second query ran through a full 1-slot gate: %+v", r)
	default:
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.stats.QueuedTime == 0 {
			t.Fatalf("queued query reports zero QueuedTime: %+v", r.stats)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second query never admitted after the first closed")
	}
	s := db.ServingStats().Admission
	if s.Admitted != 2 || s.Waits != 1 {
		t.Fatalf("gate stats %+v, want Admitted=2 Waits=1", s)
	}
	if s.Live != 0 || s.Queued != 0 {
		t.Fatalf("gate not drained: %+v", s)
	}
}

func TestAdmissionGateHonorsCancellation(t *testing.T) {
	db := servingDB(t, Config{MaxConcurrentQueries: 1})
	plan, err := db.Optimize(db.Scan("small").OrderBy("v").Limit(5))
	if err != nil {
		t.Fatal(err)
	}
	first, err := db.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := db.Query(ctx, plan)
		got <- err
	}()
	waitUntil(t, "the second query queues", func() bool { return db.ServingStats().Admission.Queued == 1 })
	cancel()
	select {
	case err := <-got:
		if err != context.Canceled {
			t.Fatalf("queued query returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not reach the queued query")
	}
}

// waitUntil yields until cond holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for start := time.Now(); !cond(); runtime.Gosched() {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestServingCancelWhileQueuedLeavesCounters: a query cancelled while it
// queues at the admission gate, or while it waits for sort memory, leaves
// the gate's Queued and Live and the governor's GrantedBlocks as they were
// before its Query call.
func TestServingCancelWhileQueuedLeavesCounters(t *testing.T) {
	for _, c := range []struct {
		name    string
		cfg     Config
		holders int
		queued  func(s ServingStats) bool
	}{
		{"at the gate", Config{MaxConcurrentQueries: 1}, 1,
			func(s ServingStats) bool { return s.Admission.Queued == 1 }},
		// Two holders split a 2-block pool 1/1, so a third query waits.
		{"in the governor", Config{GlobalSortMemoryBlocks: 2, MaxConcurrentQueries: 3}, 2,
			func(s ServingStats) bool { return s.Governor.GrantWaits == 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := servingDB(t, c.cfg)
			plan, err := db.Optimize(db.Scan("small").OrderBy("v"))
			if err != nil {
				t.Fatal(err)
			}
			for range c.holders {
				cur, err := db.Query(context.Background(), plan)
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close()
			}
			before := db.ServingStats()
			ctx, cancel := context.WithCancel(context.Background())
			got := make(chan error, 1)
			go func() {
				_, err := db.Query(ctx, plan)
				got <- err
			}()
			waitUntil(t, "the query waits", func() bool { return c.queued(db.ServingStats()) })
			cancel()
			if err := <-got; !errors.Is(err, context.Canceled) {
				t.Fatalf("waiting query returned %v, want context.Canceled", err)
			}
			after := db.ServingStats()
			if after.Admission.Queued != before.Admission.Queued || after.Admission.Live != before.Admission.Live ||
				after.Governor.GrantedBlocks != before.Governor.GrantedBlocks {
				t.Fatalf("cancelled query moved the counters: gate %+v → %+v, granted blocks %d → %d",
					before.Admission, after.Admission, before.Governor.GrantedBlocks, after.Governor.GrantedBlocks)
			}
		})
	}
}

// TestConcurrentGovernedCursors drives many concurrent governed Top-K
// cursors and checks the global invariants: the pool is never
// overcommitted, every cursor completes correctly, and all grants drain.
func TestConcurrentGovernedCursors(t *testing.T) {
	db := servingDB(t, Config{SortMemoryBlocks: 32, MaxConcurrentQueries: 8})
	plan, err := db.Optimize(db.Scan("small").OrderBy("v").Limit(3))
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				cur, err := db.Query(context.Background(), plan)
				if err != nil {
					t.Error(err)
					return
				}
				var prev int64 = -1
				rows := 0
				for cur.Next() {
					var v int64
					var k any
					if err := cur.Scan(&k, &v); err != nil {
						t.Error(err)
						return
					}
					if v < prev {
						t.Errorf("out-of-order result under concurrency: %d after %d", v, prev)
						return
					}
					prev = v
					rows++
				}
				if err := cur.Close(); err != nil {
					t.Error(err)
					return
				}
				if rows != 3 {
					t.Errorf("got %d rows, want 3", rows)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := db.ServingStats()
	if s.Governor.PeakGrantedBlocks > 32 {
		t.Fatalf("pool overcommitted: peak %d > 32", s.Governor.PeakGrantedBlocks)
	}
	if s.Governor.GrantedBlocks != 0 || s.Governor.LiveGrants != 0 {
		t.Fatalf("grants leaked: %+v", s.Governor)
	}
	if s.Admission.Live != 0 || s.Admission.PeakLive > 8 {
		t.Fatalf("admission slots leaked or exceeded: %+v", s.Admission)
	}
}
