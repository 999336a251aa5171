package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"pyro"
)

// warmupOps run before the measured window so lazy set-up, pooled chunks
// and (on topk_serve) the plan cache are in their steady state.
const warmupOps = 3

// setupLoads is how many fresh loads setup_s is the median of.
const setupLoads = 5

// sortSums adds up the SortStats of every sort enforcer an op ran.
type sortSums struct {
	comparisons, radixPasses, radixScans      int64
	runs, mergePasses, segments, spilledSegs  int
	bucketSkips, flatRunPages                 int64
	peakMem, tuplesIn, tuplesOut              int64
	spillRunsSerial, spillRunsParallel, sorts int
}

func (s *sortSums) add(st pyro.SortStats) {
	s.comparisons += st.Comparisons
	s.radixPasses += st.RadixPasses
	s.radixScans += st.RadixBucketScans
	s.runs += st.RunsGenerated
	s.mergePasses += st.MergePasses
	s.segments += st.Segments
	s.spilledSegs += st.SpilledSegs
	s.bucketSkips += st.MergeBucketSkips
	s.flatRunPages += st.FlatRunPages
	if st.PeakMemBytes > s.peakMem {
		s.peakMem = st.PeakMemBytes
	}
	s.tuplesIn += st.TuplesIn
	s.tuplesOut += st.TuplesOut
	s.spillRunsSerial += st.SpillRunsSerial
	s.spillRunsParallel += st.SpillRunsParallel
	s.sorts++
}

// counts are the engine's own counters for one op. On a single-client
// workload every op does identical work, so every op's counts must be
// identical (see checkExact).
type counts struct {
	io                            pyro.IOStats
	sorts                         sortSums
	goals, costed, orders, phase2 int
	rows                          int64
}

// opRec is everything recorded about one op.
type opRec struct {
	shape    int // drawn workloads: the shape this op ran; -1 for a pass over all
	traced   bool
	queries  int
	wall     time.Duration
	firstRow time.Duration // ExecStats.TimeToFirstRow, summed over the op's queries
	optimize time.Duration
	ssdMs    float64
	estCost  float64
	c        counts

	gateWait, grantWait time.Duration
	grantWaits          int64
	granted             int

	// Phase times, summed over the op's queries; traced ops only.
	open, firstNext, drain, closing time.Duration
	// queryWall is the wall-clock of each query of a pass, in shape order.
	queryWall []time.Duration
}

// span is one traced call into a layer. Times are nanoseconds since the
// start of the measured window; spans of one query share Query.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Query   int    `json:"query"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// client is one closed-loop load generator: it issues its next op only
// after the previous one completed.
type client struct {
	id      int
	r       *run
	slots   []*slots    // per shape
	checks  []*rowCheck // per shape
	recs    []opRec
	spans   []span
	queries int
	failed  []string
	nfailed int
}

// run is one benchmark run of one workload.
type run struct {
	w       *workload
	db      *pyro.Database
	queries []*pyro.Query // per shape; immutable, shared by clients
	traced  bool
	base    time.Time
	clients []*client

	loads               []loadTimes
	regret              float64
	measured            time.Duration
	allocBytes, mallocs uint64 // runtime.MemStats deltas over the window
	heapPeak            uint64
	before              pyro.ServingStats
	after               pyro.ServingStats
	failures            []string
	failed              int
}

// note keeps the first few failure messages; nfailed counts failed ops.
func (c *client) note(format string, args ...any) {
	if len(c.failed) < 5 {
		c.failed = append(c.failed, fmt.Sprintf(format, args...))
	}
}

// spanStart opens a span and returns its index; spanEnd closes it.
func (c *client) spanStart(parent, query int, name string, at time.Time) int {
	c.spans = append(c.spans, span{
		ID: c.id<<32 | (len(c.spans) + 1), Parent: parent, Query: query, Name: name,
		StartNs: int64(at.Sub(c.r.base)),
	})
	return len(c.spans) - 1
}

func (c *client) spanEnd(i int, at time.Time) { c.spans[i].EndNs = int64(at.Sub(c.r.base)) }

func (c *client) spanAt(parent, query int, name string, from, to time.Time) int {
	i := c.spanStart(parent, query, name, from)
	c.spanEnd(i, to)
	return c.spans[i].ID
}

// runQuery executes one query of shape si — Optimize → Query → Next until
// exhausted → Close — checks its rows, and folds its timings and counters
// into rec. A non-nil plan is executed as given instead of optimizing the
// shape's query. With full set the result is also compared row by row
// against the reference. opSpan is the enclosing op span's ID (0 =
// untraced).
func (c *client) runQuery(si int, plan *pyro.Plan, rec *opRec, opSpan int, full bool) error {
	r, sh := c.r, c.r.w.shapes[si]
	sl, chk := c.slots[si], c.checks[si]
	chk.reset()
	c.queries++
	qid := c.id<<32 | c.queries
	traced := opSpan != 0

	t0 := time.Now()
	if plan == nil {
		var err error
		if plan, err = r.db.Optimize(r.queries[si]); err != nil {
			return fmt.Errorf("optimize: %w", err)
		}
	}
	t1 := time.Now()
	cur, err := r.db.Query(context.Background(), plan)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	var tOpen, tFirst, tDrain time.Time
	if traced {
		tOpen = time.Now()
	}
	var got [][]any
	for cur.Next() {
		if traced && chk.n == 0 {
			tFirst = time.Now()
		}
		if err := cur.Scan(sl.dest...); err != nil {
			return errors.Join(fmt.Errorf("scan: %w", err), cur.Close())
		}
		chk.add(sl)
		if full {
			got = append(got, cur.Row())
		}
	}
	if traced {
		tDrain = time.Now()
		if chk.n == 0 {
			tFirst = tDrain
		}
	}
	if err := errors.Join(cur.Err(), cur.Close()); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	t2 := time.Now()

	st := cur.Stats()
	rec.queries++
	rec.firstRow += st.TimeToFirstRow
	rec.wall += t2.Sub(t0)
	rec.optimize += t1.Sub(t0)
	rec.ssdMs += ssd.ms(st.IO)
	rec.estCost += plan.EstimatedCost()
	rec.c.io.Add(st.IO)
	rec.c.rows += st.Rows
	for _, s := range st.Sorts {
		rec.c.sorts.add(s)
	}
	os := plan.OptimizerStats()
	rec.c.goals += os.GoalsExplored
	rec.c.costed += os.PlansCosted
	rec.c.orders += os.OrdersTried
	if os.Phase2Improved {
		rec.c.phase2++
	}
	rec.gateWait += st.QueuedTime
	rec.grantWait += st.GrantWait
	rec.grantWaits += st.GrantWaits
	rec.granted += st.GrantedBlocks
	if !r.w.drawn {
		rec.queryWall = append(rec.queryWall, t2.Sub(t0))
	}
	if traced {
		rec.open += tOpen.Sub(t1)
		rec.firstNext += tFirst.Sub(tOpen)
		rec.drain += tDrain.Sub(tFirst)
		rec.closing += t2.Sub(tDrain)
		c.spanAt(opSpan, qid, "pyro.optimize", t0, t1)
		open := c.spanAt(opSpan, qid, "pyro.query_open", t1, tOpen)
		// The engine reports its two waits as durations; lay them out at
		// the start of the Query call, gate first, in the order it takes
		// them.
		gateEnd := t1.Add(st.QueuedTime)
		if st.QueuedTime > 0 {
			c.spanAt(open, qid, "govern.gate_wait", t1, gateEnd)
		}
		if st.GrantWait > 0 {
			c.spanAt(open, qid, "govern.grant_wait", gateEnd, gateEnd.Add(st.GrantWait))
		}
		c.spanAt(opSpan, qid, "pyro.first_next", tOpen, tFirst)
		c.spanAt(opSpan, qid, "pyro.drain", tFirst, tDrain)
		c.spanAt(opSpan, qid, "pyro.close", tDrain, t2)
	}

	if err := chk.verify(sh.want); err != nil {
		return err
	}
	if full {
		return compareRows(got, sh.want.rows, sh.compared, sh.order)
	}
	return nil
}

// runOp runs one op: the query of shape si for a drawn workload, or (si <
// 0) one pass over the whole query set in order. It returns the record and
// whether every query succeeded and passed its checks.
func (c *client) runOp(si int, traced, full bool) (opRec, bool) {
	rec := opRec{shape: si, traced: traced}
	ok := true
	opSpan, opIdx := 0, -1
	if traced {
		opIdx = c.spanStart(0, 0, "op", time.Now())
		opSpan = c.spans[opIdx].ID
	}
	first, last := si, si
	if si < 0 {
		first, last = 0, len(c.r.w.shapes)-1
	}
	for i := first; i <= last; i++ {
		if err := c.runQuery(i, nil, &rec, opSpan, full); err != nil {
			c.note("%s/%s: %v", c.r.w.name, c.r.w.shapes[i].name, err)
			ok = false
		}
	}
	if traced {
		c.spanEnd(opIdx, time.Now())
	}
	return rec, ok
}

func (r *run) newClient(id int) *client {
	c := &client{id: id, r: r}
	for _, sh := range r.w.shapes {
		c.slots = append(c.slots, newSlots(sh.kinds))
		c.checks = append(c.checks, newRowCheck(sh.compared, sh.order))
	}
	return c
}

// setup loads the workload setupLoads times (keeping the last database),
// measures plan regret on it and runs the warm-up ops, the first of which
// compares every shape's result row by row with the reference.
func (r *run) setup() error {
	for i := 0; i < setupLoads; i++ {
		r.db = nil
		runtime.GC() // every load starts from the same heap, so setup_s repeats
		db, lt, err := r.w.load()
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		r.db, r.loads = db, append(r.loads, lt)
	}
	for _, sh := range r.w.shapes {
		q := sh.build(r.db)
		if err := q.Err(); err != nil {
			return fmt.Errorf("%s: %w", sh.name, err)
		}
		r.queries = append(r.queries, q)
	}
	for i := 0; i < r.w.clients; i++ {
		r.clients = append(r.clients, r.newClient(i))
	}
	if err := r.measureRegret(); err != nil {
		return err
	}
	// A warm-up op is a pass over the query set; a drawn workload walks
	// its shapes one op each.
	c, pass := r.clients[0], []int{-1}
	if r.w.drawn {
		pass = pass[:0]
		for si := range r.w.shapes {
			pass = append(pass, si)
		}
	}
	for op := 0; op < warmupOps; op++ {
		for _, si := range pass {
			if _, ok := c.runOp(si, false, op == 0); !ok {
				return fmt.Errorf("warm-up failed: %s", c.failed[0])
			}
		}
	}
	c.queries = 0
	return nil
}

// heuristics are the optimizer variants plan regret ranges over.
var heuristics = []pyro.Heuristic{pyro.PYRO, pyro.PYROOMinus, pyro.PYROP, pyro.PYROO, pyro.PYROE}

// measureRegret executes, once each, the distinct plans the five
// heuristics choose for every shape and sets r.regret to the geometric
// mean over shapes of hdd time(default PYRO-O plan) ÷ min hdd time: 1.00
// means the optimizer picked the cheapest plan it could have (the paper's
// Fig. 15 as a measured number). Every plan's result is checked too.
func (r *run) measureRegret() error {
	c := r.clients[0]
	logSum := 0.0
	for si, sh := range r.w.shapes {
		byPlan := make(map[string]float64) // Explain text → measured hdd ms
		best, chosen := math.Inf(1), 0.0
		for _, h := range heuristics {
			plan, err := r.db.Optimize(r.queries[si], pyro.WithHeuristic(h))
			if err != nil {
				return fmt.Errorf("%s under %v: %w", sh.name, h, err)
			}
			ms, seen := byPlan[plan.Explain()]
			if !seen {
				var rec opRec
				if err := c.runQuery(si, plan, &rec, 0, false); err != nil {
					return fmt.Errorf("%s under %v: %w", sh.name, h, err)
				}
				ms = hdd.ms(rec.c.io)
				byPlan[plan.Explain()] = ms
			}
			best = math.Min(best, ms)
			if h == pyro.PYROO {
				chosen = ms
			}
		}
		logSum += math.Log(chosen / best)
	}
	r.regret = math.Exp(logSum / float64(len(r.w.shapes)))
	return nil
}

// measure runs the closed loop for the given time: every client issues ops
// back to back until the deadline. In a traced run every other op records
// spans, so traced and untraced ops share the same conditions and their
// medians give the tracing overhead.
func (r *run) measure(seed int64, d time.Duration) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r.before = r.db.ServingStats()
	r.base = time.Now()
	deadline := r.base.Add(d)

	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(c.id)))
			for i := 0; time.Now().Before(deadline); i++ {
				si := -1
				if r.w.drawn {
					si = rng.Intn(len(r.w.shapes))
				}
				rec, ok := c.runOp(si, r.traced && i%2 == 0, false)
				if ok {
					c.recs = append(c.recs, rec)
				} else {
					c.nfailed++
				}
				if r.traced && c.id == 0 && i%heapSampleEvery(r.w) == 0 {
					var m runtime.MemStats
					runtime.ReadMemStats(&m)
					if m.HeapInuse > r.heapPeak {
						r.heapPeak = m.HeapInuse
					}
				}
			}
		}(c)
	}
	wg.Wait()
	r.measured = time.Since(r.base)
	r.after = r.db.ServingStats()
	runtime.ReadMemStats(&after)
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	r.mallocs = after.Mallocs - before.Mallocs
	if after.HeapInuse > r.heapPeak {
		r.heapPeak = after.HeapInuse
	}
	for _, c := range r.clients {
		r.failed += c.nfailed
		r.failures = append(r.failures, c.failed...)
	}
}

// heapSampleEvery spaces the traced run's heap samples (each one stops the
// world briefly) so they stay a negligible share of the run.
func heapSampleEvery(w *workload) int {
	if w.drawn {
		return 512
	}
	return 16
}

// recs returns every client's successful op records.
func (r *run) recs() []opRec {
	var all []opRec
	for _, c := range r.clients {
		all = append(all, c.recs...)
	}
	return all
}

// checkExact asserts the benchmark's exactness premise on a single-client
// workload: every op reports identical engine counters. A difference is a
// failure of the run, because every "exact" metric rests on it. The one
// counter left out is SortStats.PeakMemBytes: under the default
// (GOMAXPROCS-inherited) spill parallelism its high-water mark depends on
// how worker flushes interleave (see README "Exactness").
func (r *run) checkExact(recs []opRec) {
	if r.w.drawn || len(recs) == 0 {
		return
	}
	exact := func(c counts) counts {
		c.sorts.peakMem = 0
		return c
	}
	for i := range recs {
		if exact(recs[i].c) != exact(recs[0].c) {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf(
				"%s: op %d counters differ from op 0:\n  op 0: %+v\n  op %d: %+v",
				r.w.name, i, recs[0].c, i, recs[i].c))
			return
		}
	}
}
