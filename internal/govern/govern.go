// Package govern arbitrates shared execution resources across the
// concurrent queries of one database. Everything below it is per-query:
// each cursor has its own storage tap, its own grant, its own spill
// arenas. Nothing above it stops a thousand concurrent Top-K cursors from
// each claiming the full sort-memory budget and thrashing the spill path.
// The package provides the two serving-side arbiters:
//
//   - Governor — a global sort-memory pool. Queries acquire a Grant before
//     building their operator tree; the grant is the query's live budget
//     (iter.Budget, bound to the tree by exec.Bind), which every sort's row
//     store and every nested-loops join's outer block read in place of the
//     static M. The pool is shared max-min fairly: every claimant — the
//     live grants at the blocks they asked for, each blocked Acquire at the
//     whole pool, and the newcomer at its ask — fills up to one water
//     level, so a claimant asking less than the level gets all it asked and
//     the rest split what remains. A lone query always receives its full
//     ask, so single-cursor execution is byte-identical to a static budget
//     of that size. When the free blocks do not cover a newcomer's share,
//     every live grant above the level is shrunk to it, spilling or not:
//     memory a query holds only because it arrived first is not its share.
//
//   - Gate — bounded query admission. At most Max queries run at once;
//     excess callers queue, and their queue time is reported so ExecStats
//     can surface it.
//
// Blocked Acquire and Enter calls wait in one select on their wakeup
// channel and the caller's context, so a cancellation or deadline reaches
// a query stuck waiting for memory or admission the moment it happens,
// exactly as its ctx.Err poll reaches one stuck inside a sort. Nothing
// here runs a timer.
package govern

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pyro/internal/storage"
)

// Config sizes a Governor.
type Config struct {
	// TotalBlocks is the global sort-memory pool in disk blocks. Must be
	// positive.
	TotalBlocks int
}

// Stats is a snapshot of the governor's counters.
type Stats struct {
	// Grants is how many Acquire calls have succeeded.
	Grants int64
	// GrantWaits is how many of those had to block for capacity.
	GrantWaits int64
	// Shrinks is how many times a live grant was shrunk to the water level
	// to make room for a newcomer; ReclaimedBlocks totals the blocks taken
	// back.
	Shrinks         int64
	ReclaimedBlocks int64
	// GrantedBlocks is the currently outstanding total; PeakGrantedBlocks
	// its high-water mark. The governor's invariant is
	// PeakGrantedBlocks <= TotalBlocks: the pool is never overcommitted.
	GrantedBlocks     int
	PeakGrantedBlocks int
	// LiveGrants is the current number of outstanding grants; PeakLive its
	// high-water mark.
	LiveGrants int
	PeakLive   int
}

// Governor is the global sort-memory arbiter. All methods are safe for
// concurrent use.
type Governor struct {
	cfg Config

	mu      sync.Mutex
	free    int
	grants  []*Grant // live grants in acquisition order
	waiters int
	gen     chan struct{} // closed and replaced whenever capacity appears
	stats   Stats
}

// New returns a governor over a pool of cfg.TotalBlocks sort-memory blocks.
func New(cfg Config) (*Governor, error) {
	if cfg.TotalBlocks <= 0 {
		return nil, fmt.Errorf("govern: TotalBlocks must be positive, got %d", cfg.TotalBlocks)
	}
	return &Governor{cfg: cfg, free: cfg.TotalBlocks, gen: make(chan struct{})}, nil
}

// Total returns the pool size in blocks.
func (g *Governor) Total() int { return g.cfg.TotalBlocks }

// MinGrant returns the floor of the water level, TotalBlocks/256 and at
// least 1: no grant is shrunk below it, and a newcomer whose share the pool
// cannot free even then waits. Callers sizing a small ask floor it here.
func (g *Governor) MinGrant() int { return max(g.cfg.TotalBlocks/256, 1) }

// Stats returns a snapshot of the governor's counters.
func (g *Governor) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.stats
	s.GrantedBlocks = g.cfg.TotalBlocks - g.free
	s.LiveGrants = len(g.grants)
	return s
}

// Grant is one query's share of the pool. Its live block count is read by
// every sort and nested-loops join of the query's plan (it implements
// iter.Budget), so a reclaim shrink reaches them at their next buffering
// decision.
type Grant struct {
	g      *Governor
	blocks atomic.Int64
	// want, initial and waited are written before the grant is returned
	// and read-only afterwards. want is the ask (clamped to the pool) the
	// grant keeps claiming in every later water level.
	want     int
	initial  int
	waited   time.Duration
	waits    int64
	released bool // guarded by g.mu
}

// Blocks returns the grant's current size. Sorts consult it per buffering
// decision, so it shrinks take effect mid-query.
func (gr *Grant) Blocks() int { return int(gr.blocks.Load()) }

// Initial returns the size the grant was first issued at.
func (gr *Grant) Initial() int { return gr.initial }

// Waited returns how long Acquire blocked before this grant was issued
// (0 when capacity was immediate); Waits is 1 when it blocked at all.
func (gr *Grant) Waited() time.Duration { return gr.waited }

// Waits returns the number of blocked waits Acquire performed (0 or 1).
func (gr *Grant) Waits() int64 { return gr.waits }

// Release returns the grant's blocks to the pool and wakes waiters.
// Release is idempotent.
func (gr *Grant) Release() {
	g := gr.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if gr.released {
		return
	}
	gr.released = true
	g.free += int(gr.blocks.Load())
	gr.blocks.Store(0)
	for i, l := range g.grants {
		if l == gr {
			g.grants = append(g.grants[:i], g.grants[i+1:]...)
			break
		}
	}
	g.signalLocked()
}

// Acquire grants sort memory: min(want, level), where level is the
// max-min fair water level over every claimant of the pool (levelLocked) —
// the whole ask when the query is alone or the asks all fit. When the free
// blocks fall short of that, every live grant above the level is shrunk to
// it first. Acquire blocks only while even that cannot free the share
// (more claimants than MinGrant lets the pool serve): it waits for a
// release or ctx, whichever comes first, and returns ctx.Err() if ctx
// ends the wait. ctx is consulted only then — an Acquire that need not
// wait is granted whatever its context says — and a nil ctx waits until a
// release makes room. tap is not consulted: a grant's size depends on the
// claimants' asks alone.
func (g *Governor) Acquire(want int, tap *storage.Tap, ctx context.Context) (*Grant, error) {
	if want <= 0 {
		return nil, fmt.Errorf("govern: non-positive grant ask %d", want)
	}
	if want > g.cfg.TotalBlocks {
		want = g.cfg.TotalBlocks
	}
	start := time.Now()
	waited := false
	g.mu.Lock()
	for {
		level := g.levelLocked(want)
		give := min(want, level)
		if g.free < give {
			g.reclaimLocked(level)
		}
		if g.free >= give {
			gr := &Grant{g: g, want: want, initial: give}
			gr.blocks.Store(int64(give))
			if waited {
				gr.waited = time.Since(start)
				gr.waits = 1
			}
			g.free -= give
			g.grants = append(g.grants, gr)
			g.stats.Grants++
			if granted := g.cfg.TotalBlocks - g.free; granted > g.stats.PeakGrantedBlocks {
				g.stats.PeakGrantedBlocks = granted
			}
			if len(g.grants) > g.stats.PeakLive {
				g.stats.PeakLive = len(g.grants)
			}
			g.mu.Unlock()
			return gr, nil
		}
		if !waited {
			waited = true
			g.stats.GrantWaits++
		}
		g.waiters++
		wake := g.gen
		g.mu.Unlock()
		var err error
		select {
		case <-wake:
		case <-done(ctx):
			err = ctx.Err()
		}
		g.mu.Lock()
		g.waiters--
		// A waiter that leaves raises the others' level, which only raises
		// their shares and frees less by reclaim: none of them fits
		// because of it, so it wakes no one.
		if err != nil {
			g.mu.Unlock()
			return nil, err
		}
	}
}

// done is ctx's Done channel, or nil — a wait no cancellation ends — for a
// nil ctx.
func done(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// ExpectedGrant predicts what Acquire(want, ...) would be granted under
// the pool's current contention, without taking anything: min(want, level)
// from the same water level Acquire computes. The optimizer feeds the
// prediction into the cost model's M so plan choice anticipates
// contention-induced spilling — a sort that will only be granted a quarter
// of its ask should be priced as the external sort it becomes, not the
// in-memory sort it would be alone. The prediction mirrors Acquire's
// sizing, not its waiting: an over-claimed pool still predicts the level,
// because that is what the query eventually runs with once releases make
// room.
func (g *Governor) ExpectedGrant(want int) int {
	if want <= 0 {
		return 0
	}
	if want > g.cfg.TotalBlocks {
		want = g.cfg.TotalBlocks
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return min(want, g.levelLocked(want))
}

// levelLocked is the max-min fair water level of the pool among its
// claimants: every live grant at its ask, every blocked Acquire at the
// whole pool (its ask is not recorded), and a newcomer at want. It is the
// largest L with Σ min(ask, L) ≤ TotalBlocks — the whole pool when every
// ask fits — floored at the minimum grant. Claimants asking less than L get
// their ask; the others get L, and what the integer level leaves over is
// less than their number.
func (g *Governor) levelLocked(want int) int {
	total := g.cfg.TotalBlocks
	fill := func(level int) int {
		n := min(want, level) + g.waiters*level
		for _, gr := range g.grants {
			n += min(gr.want, level)
		}
		return n
	}
	if fill(total) <= total {
		return total
	}
	// fill is non-decreasing: search the last level that fits.
	lo, hi := 0, total // fill(lo) ≤ total < fill(hi)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if fill(mid) <= total {
			lo = mid
		} else {
			hi = mid
		}
	}
	return max(lo, g.MinGrant())
}

// reclaimLocked shrinks every live grant above level to it. The level is
// each claimant's fair share, so a grant above it holds memory only
// because it was issued when the pool had fewer claimants; whether its
// sorts are spilling does not change that.
func (g *Governor) reclaimLocked(level int) {
	freed := false
	for _, gr := range g.grants {
		b := int(gr.blocks.Load())
		if b <= level {
			continue
		}
		gr.blocks.Store(int64(level))
		g.free += b - level
		g.stats.Shrinks++
		g.stats.ReclaimedBlocks += int64(b - level)
		freed = true
	}
	if freed {
		g.signalLocked()
	}
}

// signalLocked wakes every waiter (they re-evaluate and re-sleep).
func (g *Governor) signalLocked() {
	close(g.gen)
	g.gen = make(chan struct{})
}
