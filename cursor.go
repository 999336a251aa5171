package pyro

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pyro/internal/core"
	"pyro/internal/exec"
	"pyro/internal/govern"
	"pyro/internal/iter"
	"pyro/internal/storage"
	"pyro/internal/types"
	"pyro/internal/xsort"
)

// SortStats re-exports the sort engine's per-enforcer work counters
// (comparisons, runs, merge passes, segments, radix passes).
type SortStats = xsort.SortStats

// ExecStats is one query's execution report, available from Cursor.Stats
// at any point in the cursor's life (live while streaming, frozen once the
// cursor finishes).
type ExecStats struct {
	// Rows is how many rows the cursor has returned.
	Rows int64
	// TimeToFirstRow is the latency from the Query call to the first Next
	// returning a row (zero until then). Under a pipelined partial-sort
	// plan this stays near zero however large the input; a full sort must
	// consume everything first — the paper's §3.1 pipelining benefit, made
	// visible at the public API.
	TimeToFirstRow time.Duration
	// Elapsed is the time from the Query call until the cursor finished,
	// or until now while it is still open.
	Elapsed time.Duration
	// Sorts snapshots every sort enforcer's counters in plan (pre-order)
	// position, matching Plan.Explain's operator order. An early Close
	// freezes them mid-flight: segments never sorted and spill runs never
	// read simply don't appear in the totals.
	Sorts []SortStats
	// IO is the disk activity this query itself caused, measured by a
	// per-query storage tap that every operator of the plan charges
	// alongside the device ledger. Attribution is exact and disjoint even
	// with other cursors running concurrently on the same Database: another
	// query's scans and spills never appear here, and the sum of all
	// cursors' IO equals the device's delta.
	IO IOStats
	// QueuedTime is how long the query waited in the admission gate before
	// executing (zero when admitted immediately or when
	// Config.MaxConcurrentQueries is unlimited).
	QueuedTime time.Duration
	// GrantedBlocks is the sort-memory grant this query received from the
	// global governor, in blocks, as initially issued (a later query's
	// arrival may have shrunk it since). Zero exactly when the plan holds no
	// operator that buffers sort memory (no sort, no nested-loops join).
	GrantedBlocks int
	// GrantWait is how long the query blocked waiting for sort memory;
	// GrantWaits is 1 when it blocked at all (per-query grants block at
	// most once, at acquisition).
	GrantWait  time.Duration
	GrantWaits int64
}

// Cursor streams one query's results row by row, in the database/sql
// style:
//
//	cur, err := db.Query(ctx, plan)
//	if err != nil { ... }
//	defer cur.Close()
//	for cur.Next() {
//	    var g, v int64
//	    if err := cur.Scan(&g, &v); err != nil { ... }
//	}
//	if err := cur.Err(); err != nil { ... }
//
// Rows are produced on demand: under a pipelined plan (a partial-sort
// enforcer over a clustered or indexed prefix) the engine reads only as
// much input as the rows consumed require, and Close mid-stream abandons
// the rest — unsorted MRS segments are never sorted, unread spill runs are
// dropped with their arenas. The query's context is its one cancellation
// signal, deadlines included: ctx.Err is checked before each Next and
// polled inside long-running sort and spill loops.
//
// A Cursor is not safe for concurrent use; separate cursors on one
// Database are (they share only the concurrency-safe storage layer).
type Cursor struct {
	db    *Database
	ctx   context.Context
	op    exec.Operator
	cols  []string
	sorts []*exec.Sort
	tap   *storage.Tap

	// Serving-layer state: the admission slot and sort-memory grant this
	// query holds, both released exactly once when the cursor finishes.
	admitted bool
	queued   time.Duration
	grant    *govern.Grant

	start    time.Time
	firstRow time.Duration
	rows     int64

	// Next drains pooled chunks of types.DefaultChunkCapacity from the root
	// and serves rows out of them — TTFR is stamped at the first row, early
	// Close sheds the rest, ctx is polled per Next. The chunk is allocated on
	// the first Next; one installed before it sets the capacity the tree
	// runs at down to its sorts (tests drain at capacity 1 that way).
	chunk    *types.Chunk
	chunkPos int
	rowBuf   types.Tuple

	cur      types.Tuple
	err      error
	closeErr error
	finished bool
	final    ExecStats
}

// Query compiles a plan and returns a streaming cursor over its results.
// It runs the plan it is given, with the resources of the Database's
// Config: plan choice, a row target's included, happened at Optimize. The
// context is the query's one cancellation signal, and a deadline is a
// context deadline (context.WithTimeout): while the query queues at the
// admission gate or waits for sort memory, its end wakes the wait; once the
// query runs, ctx.Err is checked before each Next and polled inside the sort
// enforcers' long loops. Either way the query
// fails with the context's error (context.Canceled or
// context.DeadlineExceeded) and gives back all it held. Query opens the
// plan but sorts nothing: a blocking full-sort plan does its sorting on the
// first Next (its errors surface from Cursor.Err) — a pipelined
// partial-sort plan is what makes the first row arrive early.
func (db *Database) Query(ctx context.Context, p *Plan) (*Cursor, error) {
	if p == nil {
		return nil, fmt.Errorf("pyro: nil plan")
	}
	if p.db != db {
		return nil, fmt.Errorf("pyro: plan belongs to a different database")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Admission: with a bounded gate the query queues, until ctx ends, for
	// an execution slot before any build work happens.
	var queued time.Duration
	admitted := false
	if db.gate != nil {
		var err error
		queued, err = db.gate.Enter(ctx)
		if err != nil {
			return nil, err
		}
		admitted = true
	}
	// Until the cursor exists and owns them, every error return must give
	// back the admission slot and the memory grant.
	var grant *govern.Grant
	ok := false
	defer func() {
		if ok {
			return
		}
		if grant != nil {
			grant.Release()
		}
		if admitted {
			db.gate.Leave()
		}
	}()

	// Sort-memory grant: a query whose plan buffers sort memory asks the
	// global pool for its configured budget — or, when every sort is
	// bounded by a Limit, for the little those bounds need
	// (sortMemoryAsk). A lone query gets its full ask (single-cursor
	// execution is identical to a static budget of that size); under
	// contention the grant is the ask capped at the pool's max-min fair
	// level, so a small neighbour's ask leaves the rest of the pool to this
	// query, and it is shrunk to a later, lower level when another query
	// arrives. The grant doubles as the query's live budget (iter.Budget),
	// which every sort and nested-loops join re-reads. Only a plan with no
	// sort or spool operator takes no grant. The context's Err, the tap and
	// the grant reach the plan in one binding (exec.Bind).
	bcfg := core.BuildConfig{
		Disk:             db.disk,
		SortMemoryBlocks: db.cfg.SortMemoryBlocks,
		SortParallelism:  db.cfg.SortParallelism,
		Query:            iter.Binding{Abort: ctx.Err, Tap: storage.NewTap()},
	}
	if ask := sortMemoryAsk(p.inner, db.cfg); ask > 0 {
		g, err := db.gov.Acquire(min(max(ask, db.gov.MinGrant()), db.cfg.SortMemoryBlocks), nil, ctx)
		if err != nil {
			return nil, err
		}
		grant = g
		bcfg.Query.Budget = g
	}

	op, err := core.Build(p.inner, bcfg)
	if err != nil {
		return nil, err
	}
	c := &Cursor{
		db:       db,
		ctx:      ctx,
		op:       op,
		cols:     p.inner.Schema.Names(),
		sorts:    exec.CollectSorts(op),
		tap:      bcfg.Query.Tap,
		admitted: admitted,
		queued:   queued,
		grant:    grant,
		start:    time.Now(),
	}
	ok = true // c.finish releases the slot and grant from here on
	if err := openOp(op); err != nil {
		if cerr := c.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	return c, nil
}

// recoverQuery converts a panic escaping the operator tree into an error at
// *dst. Without it a panicking operator would unwind through Query or Next
// past the cursor's accounting, wedging the admission slot and sort-memory
// grant the query holds; with it the panic becomes a Cursor.Err and finish
// releases everything as on any other failure.
func recoverQuery(dst *error) {
	if r := recover(); r != nil {
		// A panic value that is itself an error keeps its chain, so callers
		// can still errors.Is against sentinels (e.g. an injected storage
		// fault in panic mode) on the contained path.
		var err error
		if perr, ok := r.(error); ok {
			err = fmt.Errorf("pyro: panic during query execution: %w", perr)
		} else {
			err = fmt.Errorf("pyro: panic during query execution: %v", r)
		}
		if *dst == nil {
			*dst = err
		} else {
			*dst = errors.Join(*dst, err)
		}
	}
}

// openOp opens the operator tree with panic containment.
func openOp(op exec.Operator) (err error) {
	defer recoverQuery(&err)
	return op.Open()
}

// sortMemoryAsk sizes the query's ask of the sort-memory pool, in blocks.
// 0 means the plan holds no operator that buffers tuples against the budget
// (no sort enforcer, no block-nested-loops spool): pure scans, filters and
// hash operators run grant-free. A plan whose every sort is bounded by a
// Limit (core.Plan.SortLimit) asks only for what the bounded collector can
// use — room for 2·limit rows, the point at which it selects — so Top-K
// traffic leaves the rest of the pool to queries that need it. Any
// unbounded sort or spool asks for the full SortMemoryBlocks, as does a bound
// too large to matter. The row footprint is an estimate; a wrong one only
// costs speed: the collector selects at whatever budget it was given and
// spills correctly if it must.
func sortMemoryAsk(p *core.Plan, cfg Config) int {
	full := int64(cfg.SortMemoryBlocks)
	var ask int64
	p.Walk(func(q *core.Plan) {
		switch {
		case q.Kind == core.OpNLJoin, q.Kind == core.OpSort && q.SortLimit == 0:
			ask = full
		case q.Kind == core.OpSort:
			// More rows than the full budget has bytes never fit.
			rows := 2 * min(q.SortLimit, full*int64(cfg.PageSize))
			need := xsort.FootprintBlocks(q.Schema, q.SortTarget, q.SortGiven, rows, cfg.PageSize)
			ask = max(ask, min(full, need))
		}
	})
	return int(ask)
}

// Next advances to the next row, reporting whether one is available. It
// returns false at the end of the result, on error, after Close, and once
// the query context is done; Err distinguishes the cases. Exhausting the
// result closes the cursor automatically (calling Close again is still
// fine).
func (c *Cursor) Next() bool {
	if c.finished {
		return false
	}
	if err := c.ctx.Err(); err != nil {
		c.fail(err)
		return false
	}
	for c.chunk == nil || c.chunkPos >= c.chunk.Rows() {
		if c.chunk == nil {
			c.chunk = types.GetChunk(len(c.cols), types.DefaultChunkCapacity)
		}
		if err := c.safeNextChunk(); err != nil {
			c.fail(err)
			return false
		}
		c.chunkPos = 0
		if c.chunk.Rows() == 0 {
			c.finish()
			return false
		}
	}
	// The current row lives in a reused buffer (Row and Scan copy values
	// out), so steady-state draining allocates nothing per row.
	c.rowBuf = c.chunk.CopyRow(c.rowBuf, c.chunkPos)
	c.chunkPos++
	if c.rows == 0 {
		c.firstRow = time.Since(c.start)
	}
	c.rows++
	c.cur = c.rowBuf
	return true
}

// safeNextChunk refills the cursor's chunk with panic containment.
func (c *Cursor) safeNextChunk() (err error) {
	defer recoverQuery(&err)
	return c.op.NextChunk(c.chunk)
}

// Row returns the current row (the one the last successful Next moved to)
// as Go values, or nil when there is none. The slice is freshly allocated;
// the caller owns it.
func (c *Cursor) Row() []any {
	if c.cur == nil {
		return nil
	}
	row := make([]any, len(c.cur))
	for i, d := range c.cur {
		row[i] = datumValue(d)
	}
	return row
}

// Scan copies the current row into dest, one pointer per output column:
// *int64, *float64, *string, *bool for the matching column type (never
// NULL), or *any for any column (NULL scans as nil).
func (c *Cursor) Scan(dest ...any) error {
	if c.cur == nil {
		return fmt.Errorf("pyro: Scan called without a row (call Next first)")
	}
	if len(dest) != len(c.cur) {
		return fmt.Errorf("pyro: Scan got %d destinations for %d columns", len(dest), len(c.cur))
	}
	for i, d := range dest {
		if err := scanDatum(d, c.cur[i]); err != nil {
			return fmt.Errorf("pyro: Scan column %q: %w", c.cols[i], err)
		}
	}
	return nil
}

func scanDatum(dest any, d types.Datum) error {
	switch p := dest.(type) {
	case *any:
		*p = datumValue(d)
		return nil
	case *int64:
		if d.Kind() == types.KindInt {
			*p = d.Int()
			return nil
		}
	case *float64:
		switch d.Kind() {
		case types.KindFloat:
			*p = d.Float()
			return nil
		case types.KindInt:
			*p = float64(d.Int())
			return nil
		}
	case *string:
		if d.Kind() == types.KindString {
			*p = d.Str()
			return nil
		}
	case *bool:
		if d.Kind() == types.KindBool {
			*p = d.Bool()
			return nil
		}
	default:
		return fmt.Errorf("unsupported destination type %T", dest)
	}
	return fmt.Errorf("cannot scan %v into %T", datumValue(d), dest)
}

// Columns returns the result's column names.
func (c *Cursor) Columns() []string {
	return append([]string(nil), c.cols...)
}

// Err returns the first error the cursor hit — a failed Next, the query
// context's error, or a failed Close (joined onto an earlier error when
// both occurred, so neither is lost). It is nil after a clean exhaustion
// or a clean early Close.
func (c *Cursor) Err() error { return c.err }

// Close releases the query's resources and returns the release error, if
// any. Closing mid-stream propagates down the operator tree: sort
// enforcers abandon unsorted MRS segments, drop unread spill runs and
// release their arenas; the remaining input is never read. Close is
// idempotent, and Stats stays available afterwards.
func (c *Cursor) Close() error {
	c.finish()
	return c.closeErr
}

// fail records the cursor's first error and finishes it.
func (c *Cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.finish()
}

// finish closes the operator tree exactly once, returns the query's
// serving resources (sort-memory grant, admission slot) and freezes the
// stats.
func (c *Cursor) finish() {
	if c.finished {
		return
	}
	c.finished = true
	c.cur = nil
	if c.chunk != nil {
		types.PutChunk(c.chunk)
		c.chunk = nil
	}
	if c.closeErr = closeOp(c.op); c.closeErr != nil {
		if c.err == nil {
			c.err = c.closeErr
		} else {
			c.err = errors.Join(c.err, c.closeErr)
		}
	}
	c.final = c.snapshot()
	if c.grant != nil {
		c.grant.Release()
	}
	if c.admitted {
		c.db.gate.Leave()
	}
}

// closeOp closes the operator tree with panic containment — a panicking
// Close must still hand finish control to release the grant and gate slot.
func closeOp(op exec.Operator) (err error) {
	defer recoverQuery(&err)
	return op.Close()
}

// Stats reports the query's execution counters: a live snapshot while the
// cursor is open, the final numbers once it has finished.
func (c *Cursor) Stats() ExecStats {
	if c.finished {
		return c.final
	}
	return c.snapshot()
}

func (c *Cursor) snapshot() ExecStats {
	s := ExecStats{
		Rows:           c.rows,
		TimeToFirstRow: c.firstRow,
		Elapsed:        time.Since(c.start),
		IO:             c.tap.Stats(),
		QueuedTime:     c.queued,
	}
	if c.grant != nil {
		s.GrantedBlocks = c.grant.Initial()
		s.GrantWait = c.grant.Waited()
		s.GrantWaits = c.grant.Waits()
	}
	if len(c.sorts) > 0 {
		s.Sorts = make([]SortStats, len(c.sorts))
		for i, sort := range c.sorts {
			s.Sorts[i] = *sort.SortStats()
		}
	}
	return s
}
