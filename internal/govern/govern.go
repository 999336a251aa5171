// Package govern arbitrates shared execution resources across the
// concurrent queries of one database. Everything below it is per-query:
// each cursor has its own storage tap, its own ExecOptions, its own spill
// arenas. Nothing above it stops a thousand concurrent Top-K cursors from
// each claiming the full sort-memory budget and thrashing the spill path.
// The package provides the two serving-side arbiters:
//
//   - Governor — a global sort-memory pool. Queries acquire a Grant before
//     building their operator tree; the grant's live block count flows into
//     xsort.Config as the sort budget (xsort.Budget) in place of the static
//     per-sort M. A lone query always receives its full ask, so
//     single-cursor execution is byte-identical to the ungoverned engine;
//     concurrent queries share the pool by fair shares. Spill pressure
//     feeds back: a grant whose storage.Tap ledger shows run-page writes is
//     already external-sorting, gains little from hoarded memory, and is
//     shrunk toward its fair share while other queries wait — so one huge
//     spilling sort cannot pin the pool against a queue of small Top-K
//     cursors.
//
//   - Gate — bounded query admission. At most Max queries run at once;
//     excess callers queue, and their queue time is reported so ExecStats
//     can surface it.
//
// Blocked Acquire and Enter calls poll the caller's abort function (the
// same context-derived poll that iter.Guard threads through the sort
// loops), so a context cancellation reaches a query stuck waiting for
// memory or admission exactly as it reaches one stuck inside a sort.
package govern

import (
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
	// MinGrantBlocks is the smallest grant worth running a sort with: a
	// waiter is granted as soon as this much is free (even if its fair
	// share is larger), and pressure-shrinking never takes a grant below
	// it. 0 defaults to TotalBlocks/256, at least 1.
	MinGrantBlocks int
	// PollInterval bounds how long a blocked Acquire waits between abort
	// polls and spill-pressure re-checks (0 = 200µs). Releases wake
	// waiters immediately; the poll is the backstop that notices abort and
	// tap-observed spill writes, which have no wakeup of their own.
	PollInterval time.Duration
}

func (c Config) minGrant() int {
	if c.MinGrantBlocks > 0 {
		return c.MinGrantBlocks
	}
	m := c.TotalBlocks / 256
	if m < 1 {
		m = 1
	}
	return m
}

func (c Config) poll() time.Duration {
	if c.PollInterval > 0 {
		return c.PollInterval
	}
	return 200 * time.Microsecond
}

// Stats is a snapshot of the governor's counters.
type Stats struct {
	// Grants is how many Acquire calls have succeeded.
	Grants int64
	// GrantWaits is how many of those had to block for capacity.
	GrantWaits int64
	// Shrinks is how many live grants were shrunk by spill-pressure
	// reclaim; ReclaimedBlocks totals the blocks taken back.
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
	if cfg.MinGrantBlocks < 0 {
		return nil, fmt.Errorf("govern: negative MinGrantBlocks %d", cfg.MinGrantBlocks)
	}
	return &Governor{cfg: cfg, free: cfg.TotalBlocks, gen: make(chan struct{})}, nil
}

// Total returns the pool size in blocks.
func (g *Governor) Total() int { return g.cfg.TotalBlocks }

// MinGrant returns the smallest grant the governor issues or shrinks to;
// callers sizing a small ask floor it here.
func (g *Governor) MinGrant() int { return g.cfg.minGrant() }

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
// every sort enforcer of the query's plan (it implements xsort.Budget), so
// a pressure shrink reaches the sorts at their next buffering decision.
type Grant struct {
	g      *Governor
	tap    *storage.Tap // the query's I/O tap; run-page writes mean spilling
	blocks atomic.Int64
	// initial and waited are written before the grant is returned and
	// read-only afterwards.
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

// spilling reports whether the grant's query has written sort-run pages —
// the tap-ledger signal that its sorts are already external.
func (gr *Grant) spilling() bool {
	return gr.tap != nil && gr.tap.Stats().RunPageWrites > 0
}

// Acquire grants sort memory: up to want blocks, the whole pool when the
// query is alone, a fair share under contention. It blocks while the pool
// is exhausted, polling abort (nil = wait indefinitely) so a context
// cancellation reaches the wait; spill-pressure reclaim runs on every
// attempt, shrinking live spilling grants toward their fair share to free
// capacity for the queue. tap may be nil (the grant is then never
// considered spilling).
func (g *Governor) Acquire(want int, tap *storage.Tap, abort func() error) (*Grant, error) {
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
		n := len(g.grants) + g.waiters + 1
		ask := want
		if n > 1 {
			if fair := g.fairShare(n); ask > fair {
				ask = fair
			}
		}
		if g.free < ask {
			g.reclaimLocked(n)
		}
		give := ask
		if give > g.free {
			// A partial grant keeps small queries moving: anything at
			// least MinGrantBlocks (or the full ask, if smaller) is
			// worth running with rather than queueing for.
			give = g.free
		}
		if min := g.cfg.minGrant(); give >= ask || (give >= min && give > 0) {
			gr := &Grant{g: g, tap: tap, initial: give, waits: 0}
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
		ch := g.gen
		g.mu.Unlock()
		select {
		case <-ch:
		case <-time.After(g.cfg.poll()):
		}
		var aerr error
		if abort != nil {
			aerr = abort()
		}
		g.mu.Lock()
		g.waiters--
		if aerr != nil {
			g.mu.Unlock()
			return nil, aerr
		}
	}
}

// ExpectedGrant predicts what Acquire(want, ...) would be granted under
// the pool's current contention, without taking anything: the ask capped
// at the fair share among the current claimants plus this one. The
// optimizer feeds the prediction into the cost model's M so plan choice
// anticipates contention-induced spilling — a sort that will only be
// granted a quarter of its ask should be priced as the external sort it
// becomes, not the in-memory sort it would be alone. The prediction
// mirrors Acquire's sizing, not its waiting: an exhausted pool still
// predicts the fair share, because that is what the query eventually runs
// with once reclaim and releases make room.
func (g *Governor) ExpectedGrant(want int) int {
	if want <= 0 {
		return 0
	}
	if want > g.cfg.TotalBlocks {
		want = g.cfg.TotalBlocks
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	n := len(g.grants) + g.waiters + 1
	if n > 1 {
		if fair := g.fairShare(n); want > fair {
			want = fair
		}
	}
	return want
}

// fairShare is the per-query share of the pool among n claimants, floored
// at the minimum useful grant and capped at the pool.
func (g *Governor) fairShare(n int) int {
	if n < 1 {
		n = 1
	}
	fair := g.cfg.TotalBlocks / n
	if min := g.cfg.minGrant(); fair < min {
		fair = min
	}
	if fair > g.cfg.TotalBlocks {
		fair = g.cfg.TotalBlocks
	}
	return fair
}

// reclaimLocked shrinks live spilling grants toward the fair share among n
// claimants. A spilling grant's sorts are already paying external-sort
// I/O — the run-page writes on its tap are the evidence — so the memory
// above its fair share mostly delays the queue, not the spill. Non-spilling
// grants are left alone: their memory is what keeps them from spilling, and
// they return it at release.
func (g *Governor) reclaimLocked(n int) {
	fair := g.fairShare(n)
	freed := false
	for _, gr := range g.grants {
		b := int(gr.blocks.Load())
		if b <= fair || !gr.spilling() {
			continue
		}
		gr.blocks.Store(int64(fair))
		g.free += b - fair
		g.stats.Shrinks++
		g.stats.ReclaimedBlocks += int64(b - fair)
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
