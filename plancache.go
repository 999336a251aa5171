package pyro

import (
	"container/list"
	"math/bits"
	"sync"

	"pyro/internal/core"
)

// PlanCacheStats is a snapshot of the database's plan-cache counters.
type PlanCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// Entries is the current number of cached plans.
	Entries int
}

// planKey identifies one optimization problem: the logical query shape,
// the complete optimizer options (heuristic, ablations, cost model — all
// comparable value fields), and the row-target band. Two Optimize calls
// with equal keys provably produce the identical plan, because the
// optimizer is a pure function of (tree, options) — except for RowTarget,
// which is banded: targets in the same power-of-two band reuse one plan,
// trading exact prefix-cost thresholds within a band for cache hits
// across nearby Top-K values.
type planKey struct {
	shape string
	opts  core.Options
	band  int
}

// rowTargetBand buckets a row target into power-of-two bands:
// {0}, {1}, {2}, {3,4}, {5..8}, {9..16}, ... Band 0 (no target) is its
// own band, so targeted and untargeted plans never alias.
func rowTargetBand(k int64) int {
	if k <= 0 {
		return 0
	}
	return 1 + bits.Len64(uint64(k-1))
}

// planEntry is one cached optimization result. The plan tree and stats are
// immutable after optimization, so entries are shared by reference across
// cursors.
type planEntry struct {
	key   planKey
	plan  *core.Plan
	stats core.Stats
}

// planCache is a mutex-guarded LRU over optimization results. A database
// has one; every Optimize call consults it.
type planCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *planEntry
	byKey map[planKey]*list.Element
	stats PlanCacheStats
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		return nil
	}
	return &planCache{cap: capacity, order: list.New(), byKey: make(map[planKey]*list.Element)}
}

// get returns the cached result for key, if present, and marks it
// most-recently used.
func (pc *planCache) get(key planKey) (*core.Plan, core.Stats, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.byKey[key]
	if !ok {
		pc.stats.Misses++
		return nil, core.Stats{}, false
	}
	pc.stats.Hits++
	pc.order.MoveToFront(el)
	e := el.Value.(*planEntry)
	return e.plan, e.stats, true
}

// put stores an optimization result, evicting the least recently used
// entry beyond capacity.
func (pc *planCache) put(key planKey, plan *core.Plan, stats core.Stats) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.byKey[key]; ok {
		// A concurrent Optimize of the same query raced us; keep the
		// incumbent (the results are identical) and refresh recency.
		pc.order.MoveToFront(el)
		return
	}
	el := pc.order.PushFront(&planEntry{key: key, plan: plan, stats: stats})
	pc.byKey[key] = el
	for pc.order.Len() > pc.cap {
		last := pc.order.Back()
		pc.order.Remove(last)
		delete(pc.byKey, last.Value.(*planEntry).key)
		pc.stats.Evictions++
	}
}

// snapshot returns the cache's counters.
func (pc *planCache) snapshot() PlanCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	s := pc.stats
	s.Entries = pc.order.Len()
	return s
}
