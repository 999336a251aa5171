//go:build !race

// The race detector's sync.Pool drops a random quarter of what is put back,
// so a pool's reuse is measured without it.

package xsort

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// TestSpilledSortReusesRunPages gates the page pool: a run page is written
// into a buffer of the block pool and handed back when its run is dropped,
// so once the pool is warm a spilled sort allocates far less than one page
// per run page it writes. The bound is an eighth of a page per run page
// written (512 bytes at 4 KiB): a fresh buffer per page, the way a data
// file's pages are made, is eight times that, while everything else this
// sort allocates — its heap and permutation, run files and their page
// lists, merge cursors — comes to under 200 bytes a run page. The sort
// reduces, so intermediate merges both free and write run pages; its input
// is decoded rows and its output is never decoded, so neither side
// allocates per row.
func TestSpilledSortReusesRunPages(t *testing.T) {
	d := storage.NewDisk(0)
	defer storage.AssertNoLeaks(t, d)
	rng := rand.New(rand.NewSource(7))
	rows := shuffled(genRows(20_000, 10, rng), rng)
	c := types.NewChunk(sortSchema.Len(), types.DefaultChunkCapacity)
	sortOnce := func() *SortStats {
		m, err := NewMRS(iter.FromSlice(rows), sortSchema, limitTarget, sortord.Empty, Config{Disk: d, MemoryBlocks: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Open(); err != nil {
			t.Fatal(err)
		}
		for {
			if err := m.NextChunk(c); err != nil {
				t.Fatal(err)
			}
			if c.Rows() == 0 {
				break
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	sortOnce() // warm-up: fills the pool with the pages one sort holds at once
	written := d.Stats().RunPageWrites
	// The collector stays off while measuring only: a collection would empty
	// the pool the measured sort draws from.
	gc := debug.SetGCPercent(-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := sortOnce()
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(gc)
	written = d.Stats().RunPageWrites - written
	if st.MergePasses == 0 || written == 0 {
		t.Fatalf("the sort must spill and reduce: %d merge passes, %d run pages written", st.MergePasses, written)
	}
	perPage := float64(after.TotalAlloc-before.TotalAlloc) / float64(written)
	t.Logf("%d run pages written, %.0f bytes allocated per run page", written, perPage)
	if limit := float64(d.PageSize()) / 8; perPage > limit {
		t.Errorf("a spilled sort allocates %.0f bytes per run page written, want at most %.0f: are run pages drawn from the pool?", perPage, limit)
	}
}
