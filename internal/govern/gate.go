package govern

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// GateStats is a snapshot of an admission gate's counters.
type GateStats struct {
	// Admitted is how many Enter calls have succeeded.
	Admitted int64
	// Waits is how many Enter calls had to queue for a slot.
	Waits int64
	// Live is the current number of admitted queries; PeakLive its
	// high-water mark (never exceeds Max).
	Live     int
	PeakLive int
	// Queued is the current number of callers waiting for admission.
	Queued int
}

// Gate is a bounded concurrent-query admission gate: a semaphore of Max
// slots held in one buffered channel. Excess Enter calls block sending to
// it, the runtime queues them in arrival order, and each Leave's receive
// hands its slot straight to the longest-queued one. All methods are safe
// for concurrent use.
type Gate struct {
	slots chan struct{} // one element per held slot

	mu    sync.Mutex
	stats GateStats // Live is read off slots
}

// NewGate returns a gate admitting at most max concurrent queries. max
// must be positive (callers model "unlimited" by not using a gate at all).
// The duration is not used.
func NewGate(max int, _ time.Duration) (*Gate, error) {
	if max <= 0 {
		return nil, fmt.Errorf("govern: gate max must be positive, got %d", max)
	}
	return &Gate{slots: make(chan struct{}, max)}, nil
}

// Max returns the gate's concurrency bound.
func (t *Gate) Max() int { return cap(t.slots) }

// Stats returns a snapshot of the gate's counters.
func (t *Gate) Stats() GateStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	s.Live = len(t.slots)
	return s
}

// Enter takes a slot, queueing behind earlier callers while every slot is
// held, and returns how long it queued (0 when admitted immediately). It
// waits for a Leave or ctx, whichever comes first, and returns ctx.Err()
// if ctx ends the wait. ctx is consulted only then, and a nil ctx queues
// until a Leave admits it. Every successful Enter must be paired with
// exactly one Leave.
func (t *Gate) Enter(ctx context.Context) (time.Duration, error) {
	select {
	case t.slots <- struct{}{}:
		t.admitted(false)
		return 0, nil
	default:
	}
	start := time.Now()
	t.mu.Lock()
	t.stats.Waits++
	t.stats.Queued++
	t.mu.Unlock()
	select {
	case t.slots <- struct{}{}:
		t.admitted(true)
		return time.Since(start), nil
	case <-done(ctx):
		t.mu.Lock()
		t.stats.Queued--
		t.mu.Unlock()
		return 0, ctx.Err()
	}
}

// admitted records an admission; queued says whether it left the queue.
func (t *Gate) admitted(queued bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Admitted++
	if queued {
		t.stats.Queued--
	}
	t.stats.PeakLive = max(t.stats.PeakLive, len(t.slots))
}

// Leave gives back a slot taken by a successful Enter; the longest-queued
// Enter, if any, holds it from that moment.
func (t *Gate) Leave() {
	select {
	case <-t.slots:
	default:
		panic("govern: Gate.Leave without matching Enter")
	}
}
