//go:build !race

// The race detector's sync.Pool drops a random quarter of what is put back,
// so a pool's reuse is measured without it.

package storage

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// After each way of dropping a temp file, the next temp file written draws
// its pages from the pool instead of allocating them: writing and dropping
// 64 pages again allocates less than an eighth of a page per page — a
// fresh buffer per page would be a whole one.
func TestLaterTempWriteReusesDroppedPages(t *testing.T) {
	const pages = 64
	for _, c := range tempDrops {
		t.Run(c.name, func(t *testing.T) {
			d := NewDisk(0)
			cycle := func() {
				f := c.make(d)
				writePages(t, f, pages, 0x5a)
				c.drop(d, f)
			}
			cycle()
			// The collector stays off while measuring only: a collection
			// would empty the pool the second cycle draws from.
			gc := debug.SetGCPercent(-1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cycle()
			runtime.ReadMemStats(&after)
			debug.SetGCPercent(gc)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(pages*d.PageSize()/8); got > limit {
				t.Errorf("writing %d temp pages after %s allocated %d bytes, want at most %d", pages, c.name, got, limit)
			}
			AssertNoLeaks(t, d)
		})
	}
}
