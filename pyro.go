// Package pyro is a cost-based query optimizer and execution engine built
// around order optimization: it reproduces the techniques of
// "Reducing Order Enforcement Cost in Complex Query Plans" (Guravannavar,
// Sudarshan, Diwan, Sobhan Babu) — partial-sort enforcers, favorable-order
// driven interesting-order selection, and 2-approximate refinement of join
// sort orders.
//
// A Database bundles a simulated block device, a catalog and default
// resources. Tables are bulk-loaded, optionally clustered and indexed with
// covering secondary indices; queries are assembled with the Query builder,
// optimized under a selectable heuristic (PYRO, PYRO-O⁻, PYRO-P, PYRO-O,
// PYRO-E) and executed on the demand-driven chunked engine:
//
//	db := pyro.Open(pyro.Config{})
//	db.CreateTable("t", []pyro.Column{{Name: "a", Type: pyro.Int64}, ...},
//	    pyro.ClusterOn("a"), rows)
//	q := db.Scan("t").Filter(pyro.Gt(pyro.Col("a"), pyro.Int(10))).
//	    OrderBy("a", "b")
//	plan, _ := db.Optimize(q)
//	cur, _ := db.Query(ctx, plan)
//	defer cur.Close()
//	for cur.Next() {
//	    var a, b int64
//	    cur.Scan(&a, &b)
//	}
//
// Query streams: under a pipelined partial-sort plan the first rows arrive
// before most of the input has been read, closing the cursor early
// abandons the unread remainder, and the context cancels execution even
// inside a long sort.
package pyro

import (
	"fmt"

	"pyro/internal/catalog"
	"pyro/internal/core"
	"pyro/internal/cost"
	"pyro/internal/govern"
	"pyro/internal/logical"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// Type enumerates column types of the public API.
type Type uint8

// Column types.
const (
	Int64 Type = iota
	Float64
	String
	Bool
)

func (t Type) kind() types.Kind {
	switch t {
	case Int64:
		return types.KindInt
	case Float64:
		return types.KindFloat
	case String:
		return types.KindString
	case Bool:
		return types.KindBool
	}
	return types.KindNull
}

// Column describes one table column.
type Column struct {
	Name string
	Type Type
	// Width is the average width in bytes used for cost estimation
	// (0 picks a default per type).
	Width int
}

// Config sizes a Database. It holds no time limit: a query's deadline is
// its context's.
type Config struct {
	// PageSize is the simulated disk block size (default 4096, matching
	// the paper's setup).
	PageSize int
	// SortMemoryBlocks is M, the sort memory budget in blocks (default
	// 10000 blocks = 40 MB at the default page size, as in the paper).
	SortMemoryBlocks int
	// SortParallelism bounds how many in-memory partial-sort segments an
	// MRS enforcer sorts concurrently (0 = GOMAXPROCS, 1 = serial). Spilling
	// is serial at every setting, and the optimizer never reads it: results,
	// I/O, plan choice and every sort counter but PeakMemBytes (read-ahead
	// holds more segments) are the same at every value.
	SortParallelism int

	// GlobalSortMemoryBlocks is the database-wide sort-memory pool, in
	// blocks, shared by all concurrently executing queries through the
	// sort-memory governor. Each query asks for SortMemoryBlocks; a lone
	// query is granted its full ask (making single-cursor execution
	// identical to a static budget of that size), and concurrent queries
	// share the pool max-min fairly: each is granted its ask capped at one
	// water level over all claimants' asks, and a newcomer whose share is
	// not free shrinks every grant above the level to it. The level never falls
	// below 1/256 of the pool (at least one block): a query whose share
	// would, waits until a release makes room. 0 or less defaults to
	// SortMemoryBlocks — the pool admits one full-budget sort's worth of
	// memory in total. Every query whose plan holds a sort or a
	// nested-loops join takes its memory from this pool; there is no
	// ungoverned path.
	GlobalSortMemoryBlocks int
	// MaxConcurrentQueries bounds how many queries execute at once; excess
	// Query calls queue in arrival order until their context ends and
	// report their wait in ExecStats.QueuedTime. 0 means unlimited (no
	// admission gate).
	MaxConcurrentQueries int
	// PlanCacheSize bounds the database's plan cache, which lets repeated
	// Optimize calls of the same query shape skip the optimizer: entries
	// are keyed by (logical query signature, optimizer options, row-target
	// band), so any option that could change plan choice misses, and
	// WithRowTarget values in one power-of-two band share a plan. 0
	// defaults to 256 entries; negative disables caching.
	PlanCacheSize int
}

// Database is a self-contained engine instance.
type Database struct {
	disk *storage.Disk
	cat  *catalog.Catalog
	cfg  Config

	// Serving layer: shared across every concurrent query of this
	// database. gov arbitrates the global sort-memory pool, gate bounds
	// concurrent queries (nil = unlimited), plans caches optimization
	// results (nil when disabled).
	gov   *govern.Governor
	gate  *govern.Gate
	plans *planCache
}

// Open creates an empty database.
func Open(cfg Config) *Database {
	if cfg.PageSize <= 0 {
		cfg.PageSize = storage.DefaultPageSize
	}
	if cfg.SortMemoryBlocks <= 0 {
		cfg.SortMemoryBlocks = 10000
	}
	if cfg.GlobalSortMemoryBlocks <= 0 {
		cfg.GlobalSortMemoryBlocks = cfg.SortMemoryBlocks
	}
	disk := storage.NewDisk(cfg.PageSize)
	db := &Database{disk: disk, cat: catalog.New(disk), cfg: cfg}
	// The pool is positive by the clamps above, so New cannot fail.
	db.gov, _ = govern.New(govern.Config{TotalBlocks: cfg.GlobalSortMemoryBlocks})
	if cfg.MaxConcurrentQueries > 0 {
		db.gate, _ = govern.NewGate(cfg.MaxConcurrentQueries, 0)
	}
	cacheSize := cfg.PlanCacheSize
	if cacheSize == 0 {
		cacheSize = 256
	}
	db.plans = newPlanCache(cacheSize)
	return db
}

// ServingStats aggregates the database's serving-layer counters: the
// sort-memory governor, the admission gate and the plan cache.
type ServingStats struct {
	// Governor reports sort-memory grant activity.
	Governor govern.Stats
	// Admission reports the concurrent-query gate. Zero when unlimited
	// (MaxConcurrentQueries == 0).
	Admission govern.GateStats
	// PlanCache reports optimizer-result reuse. Zero when disabled
	// (PlanCacheSize < 0).
	PlanCache PlanCacheStats
}

// ServingStats returns a snapshot of the serving layer's counters.
func (db *Database) ServingStats() ServingStats {
	s := ServingStats{Governor: db.gov.Stats()}
	if db.gate != nil {
		s.Admission = db.gate.Stats()
	}
	if db.plans != nil {
		s.PlanCache = db.plans.snapshot()
	}
	return s
}

// ClusterOn names the clustering order for CreateTable.
func ClusterOn(cols ...string) []string { return cols }

// Value converts a Go value to an engine datum. Supported: nil, int,
// int64, float64, string, bool.
func Value(v any) (types.Datum, error) {
	switch x := v.(type) {
	case nil:
		return types.Null, nil
	case int:
		return types.NewInt(int64(x)), nil
	case int64:
		return types.NewInt(x), nil
	case float64:
		return types.NewFloat(x), nil
	case string:
		return types.NewString(x), nil
	case bool:
		return types.NewBool(x), nil
	default:
		return types.Datum{}, fmt.Errorf("pyro: unsupported value type %T", v)
	}
}

// CreateTable bulk-loads a table. clusterOn may be nil (heap order). Rows
// are Go values converted via Value.
func (db *Database) CreateTable(name string, cols []Column, clusterOn []string, rows [][]any) error {
	tcols := make([]types.Column, len(cols))
	for i, c := range cols {
		tcols[i] = types.Column{Name: c.Name, Kind: c.Type.kind(), Width: c.Width}
	}
	schema := types.NewSchema(tcols...)
	data := make([]types.Tuple, len(rows))
	for i, r := range rows {
		if len(r) != len(cols) {
			return fmt.Errorf("pyro: row %d has %d values, table %q has %d columns", i, len(r), name, len(cols))
		}
		tup := make(types.Tuple, len(r))
		for j, v := range r {
			d, err := Value(v)
			if err != nil {
				return fmt.Errorf("pyro: row %d column %q: %w", i, cols[j].Name, err)
			}
			tup[j] = d
		}
		data[i] = tup
	}
	_, err := db.cat.CreateTable(name, schema, sortord.New(clusterOn...), data)
	return err
}

// CreateIndex materialises a covering secondary index: key columns in
// order, plus included non-key columns stored in the leaves.
func (db *Database) CreateIndex(indexName, tableName string, keyCols []string, include []string) error {
	tb, err := db.cat.Table(tableName)
	if err != nil {
		return err
	}
	_, err = db.cat.CreateIndex(indexName, tb, sortord.New(keyCols...), include)
	return err
}

// Heuristic re-exports the optimizer variants.
type Heuristic = core.Heuristic

// Heuristic variants (the paper's §6 names).
const (
	PYRO       = core.HeuristicArbitrary
	PYROOMinus = core.HeuristicFavorableExact
	PYROP      = core.HeuristicPostgres
	PYROO      = core.HeuristicFavorable
	PYROE      = core.HeuristicExhaustive
)

// OptimizeOption customises an Optimize call.
type OptimizeOption func(*core.Options)

// WithHeuristic selects the interesting-order heuristic (default PYRO-O).
// It sets only the heuristic; Optimize applies the heuristic's canonical
// defaults (PYRO and PYRO-O⁻ imply no partial-sort enforcers, only PYRO-O
// runs phase-2 refinement) once all options have run. The options of one
// Optimize call therefore compose order-independently, ablation flags set
// by other options survive on either side of WithHeuristic, and when
// WithHeuristic appears more than once the last heuristic wins outright.
func WithHeuristic(h Heuristic) OptimizeOption {
	return func(o *core.Options) { o.Heuristic = h }
}

// WithoutPartialSort disables partial-sort enforcers (ablation).
func WithoutPartialSort() OptimizeOption {
	return func(o *core.Options) { o.DisablePartialSort = true }
}

// WithoutPhase2 disables the §5.2.2 plan refinement (ablation).
func WithoutPhase2() OptimizeOption {
	return func(o *core.Options) { o.DisablePhase2 = true }
}

// WithoutHashJoin restricts plans to sort-based joins.
func WithoutHashJoin() OptimizeOption {
	return func(o *core.Options) { o.DisableHashJoin = true }
}

// WithoutHashAgg restricts plans to sort-based aggregation.
func WithoutHashAgg() OptimizeOption {
	return func(o *core.Options) { o.DisableHashAgg = true }
}

// WithRowTarget declares that the consumer wants the first k rows fast —
// the streaming analogue of a LIMIT the query doesn't have. The optimizer
// compares plans by the cost of their first k rows (favoring pipelined
// partial-sort plans over blocking full sorts and hash operators, §7
// Top-K) instead of by full drain. Unlike Query.Limit the result is NOT
// truncated and no sort is bounded: all rows stream if the cursor is
// drained — only the plan choice changes. Optimize rejects a negative k; 0
// means "no target" (the option is a no-op, like omitting it).
func WithRowTarget(k int64) OptimizeOption {
	return func(o *core.Options) { o.RowTarget = k }
}

// Plan is an optimized physical plan bound to its database. Query runs it
// as it is: every choice the optimizer makes, a row target's included,
// happens at Optimize.
type Plan struct {
	db    *Database
	inner *core.Plan
	stats core.Stats
}

// Explain renders the plan tree with costs, cardinalities and sort orders.
// Every node shows both cost phases: cost= is the full-drain total, and
// startup= the blocking work before the node's first output row — under a
// pipelined partial-sort plan the root's startup sits far below its cost,
// while a blocking full-sort or hash plan shows the two nearly equal.
func (p *Plan) Explain() string { return p.inner.Format() }

// EstimatedCost returns the cost model's full-drain estimate in I/O units.
func (p *Plan) EstimatedCost() float64 { return p.inner.Cost.Total }

// EstimatedStartupCost returns the modeled blocking work before the plan's
// first row — the time-to-first-row side of the two-phase cost model.
func (p *Plan) EstimatedStartupCost() float64 { return p.inner.Cost.Startup }

// EstimatedPrefixCost returns the modeled cost of producing only the first
// k rows (EstimatedPrefixCost(N) equals EstimatedCost; a partial-sort plan
// is charged ⌈k·D/N⌉ segment sorts).
func (p *Plan) EstimatedPrefixCost(k int64) float64 { return p.inner.PrefixCost(k) }

// OptimizerStats returns counters from the optimization run.
func (p *Plan) OptimizerStats() core.Stats { return p.stats }

// Optimize plans a query. The default configuration is the paper's PYRO-O:
// favorable orders, partial sorts and phase-2 refinement enabled.
func (db *Database) Optimize(q *Query, opts ...OptimizeOption) (*Plan, error) {
	if q.err != nil {
		return nil, q.err
	}
	options := core.DefaultOptions(core.HeuristicFavorable)
	for _, o := range opts {
		o(&options)
	}
	if options.RowTarget < 0 {
		return nil, fmt.Errorf("pyro: negative row target %d", options.RowTarget)
	}
	// Fold in the final heuristic's implied defaults after every option has
	// run: explicit ablations OR onto them, so composition is
	// order-independent and only the last WithHeuristic matters.
	implied := core.DefaultOptions(options.Heuristic)
	options.DisablePartialSort = options.DisablePartialSort || implied.DisablePartialSort
	options.DisablePhase2 = options.DisablePhase2 || implied.DisablePhase2
	options.Model = cost.DefaultModel()
	options.Model.PageSize = db.cfg.PageSize
	options.Model.MemoryBlocks = int64(db.cfg.SortMemoryBlocks)
	// Governor-aware pricing: under contention the executor will not be
	// granted the full static budget, so price sorts at the grant the pool
	// would issue right now — the ask capped at the max-min fair level
	// among the live claimants. The model is
	// part of the plan-cache key, so plans optimized under different
	// contention levels cache separately and an uncontended replan is never
	// served a contention-shaped plan (or vice versa).
	if expect := db.gov.ExpectedGrant(db.cfg.SortMemoryBlocks); expect > 0 {
		options.Model.MemoryBlocks = int64(expect)
	}
	inner, stats, err := db.optimize(q.node, options)
	if err != nil {
		return nil, err
	}
	return &Plan{db: db, inner: inner, stats: stats}, nil
}

// optimize runs the optimizer through the plan cache. The cache key is the
// query's full logical signature plus the complete (comparable) option set
// with the row target banded into power-of-two buckets; the optimizer is a
// pure function of exactly those inputs, so a hit returns the identical
// plan and optimizer stats the miss path would have computed (the one
// exception being row targets within one band, which deliberately share a
// plan). On a miss the optimizer runs at the actual requested row target —
// the first call per band behaves exactly like the uncached engine — and
// the result is stored under the band key. Cached plan trees are immutable
// and shared by reference.
func (db *Database) optimize(node logical.Node, options core.Options) (*core.Plan, core.Stats, error) {
	if db.plans == nil {
		res, err := core.Optimize(node, options)
		if err != nil {
			return nil, core.Stats{}, err
		}
		return res.Plan, res.Stats, nil
	}
	key := planKey{shape: logical.Signature(node), opts: options, band: rowTargetBand(options.RowTarget)}
	key.opts.RowTarget = 0 // the band carries it
	if plan, stats, ok := db.plans.get(key); ok {
		return plan, stats, nil
	}
	res, err := core.Optimize(node, options)
	if err != nil {
		return nil, core.Stats{}, err
	}
	db.plans.put(key, res.Plan, res.Stats)
	return res.Plan, res.Stats, nil
}

func datumValue(d types.Datum) any {
	switch d.Kind() {
	case types.KindNull:
		return nil
	case types.KindInt:
		return d.Int()
	case types.KindFloat:
		return d.Float()
	case types.KindString:
		return d.Str()
	case types.KindBool:
		return d.Bool()
	}
	return nil
}

// IOStats is a snapshot of simulated disk activity.
type IOStats = storage.IOStats

// IOStats returns the disk's cumulative I/O counters.
func (db *Database) IOStats() IOStats { return db.disk.Stats() }

// Disk exposes the database's simulated block device. Chaos tooling uses
// the handle to install fault plans and temp-space quotas
// (storage.Disk.SetFaultPlan, SetTempQuotaPages) and to audit for leaked
// temp files and spill arenas; production paths never need it.
func (db *Database) Disk() *storage.Disk { return db.disk }

// ResetIOStats zeroes the disk's I/O counters (call before a measured run).
func (db *Database) ResetIOStats() { db.disk.ResetStats() }
