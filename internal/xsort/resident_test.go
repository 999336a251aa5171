//go:build !race

package xsort

import (
	"fmt"
	"runtime"
	"testing"

	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// liveHeap is the heap in use by reachable objects. The second collection
// also empties the block pool's victim cache, so returned blocks do not
// count as live.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestAccountedIsResident: the memory a sort says it holds is the memory it
// holds. For each phase in which a sort sits on a full budget, the live heap
// the sort added (run files, which this disk keeps on the heap, taken out)
// must be within 15 % of SortStats.PeakMemBytes — the blocks of its row
// stores. A final merge over a kept tail holds the tail's blocks: there the
// blocks out of the disk's pool must be the blocks accounted, within the
// budget, and the heap within 15 % of them; an early Close gives them back.
// What the margin covers: the permutation a sort orders or the
// replacement-selection heap (4 bytes a row), the run writers' page buffers,
// one batch of emitted rows. A partial sort's arrival numbers are inside its
// store's blocks, so they are accounted.
func TestAccountedIsResident(t *testing.T) {
	const (
		blocks = 256
		rows   = 60_000
	)
	for _, sh := range residentShapes {
		type phase struct {
			name string
			// run drives a sort over in to the phase and returns the heap it
			// then holds and its PeakMemBytes.
			run func(t *testing.T, d *storage.Disk, in *genIter, base func() int64) (heap, peak int64)
		}
		full := func(st *rowStore) bool { return st != nil && st.held() >= blocks-1 }
		srs := func(after int) func(*testing.T, *storage.Disk, *genIter, func() int64) (int64, int64) {
			return func(t *testing.T, d *storage.Disk, in *genIter, base func() int64) (heap, peak int64) {
				s, err := NewMRS(in, sh.schema, sortord.New("c2", "c1"), sortord.Empty, Config{Disk: d, MemoryBlocks: blocks})
				if err != nil {
					t.Fatal(err)
				}
				fills := 0
				in.probe = func(i int) {
					// The store is at its budget from the end of the fill on;
					// `after` more rows in, replacement selection is in its
					// steady state.
					if heap == 0 && full(collecting(s)) {
						if fills++; fills > after {
							heap, peak = base(), s.stats.PeakMemBytes
						}
					}
				}
				if err := s.Open(); err != nil {
					t.Fatal(err)
				}
				if _, err := pull1(s); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				return heap, peak
			}
		}
		phases := []phase{
			{"srs-fill", srs(0)},
			{"srs-steady", srs(20_000)},
			{"mrs-in-memory", func(t *testing.T, d *storage.Disk, in *genIter, base func() int64) (int64, int64) {
				in.n = 12_000 // one segment that fits the budget
				m, err := NewMRS(in, sh.schema, sortord.New("c2", "c1"), sortord.Empty, Config{Disk: d, MemoryBlocks: blocks, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Open(); err != nil {
					t.Fatal(err)
				}
				if ok, err := pull1(m); !ok || err != nil {
					t.Fatalf("first row: %v %v", ok, err)
				}
				heap, peak := base(), m.stats.PeakMemBytes
				if m.stats.RunsGenerated != 0 {
					t.Fatalf("the segment was meant to fit: %+v", m.stats)
				}
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				return heap, peak
			}},
			{"mrs-oversized", func(t *testing.T, d *storage.Disk, in *genIter, base func() int64) (heap, peak int64) {
				// One oversized segment of a partial sort (c1 is made
				// constant): replacement selection in a store whose entries
				// carry arrival numbers.
				row := in.row
				in.row = func(i int) types.Tuple {
					t := row(i)
					t[0] = types.NewInt(0)
					return t
				}
				m, err := NewMRS(in, sh.schema, sortord.New("c1", "c2"), sortord.New("c1"), Config{Disk: d, MemoryBlocks: blocks, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				fills := 0
				in.probe = func(i int) {
					// Mid-collection, past the second run's start.
					if heap == 0 && m.col != nil && full(m.col.store) && i > rows/2 {
						if fills++; fills == 1 {
							heap, peak = base(), m.stats.PeakMemBytes
						}
					}
				}
				if err := m.Open(); err != nil {
					t.Fatal(err)
				}
				if _, err := pull1(m); err != nil {
					t.Fatal(err)
				}
				if m.stats.RunsGenerated < 2 {
					t.Fatalf("the segment was meant to spill several runs: %+v", m.stats)
				}
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				return heap, peak
			}},
			{"mrs-kept-tail", func(t *testing.T, d *storage.Disk, in *genIter, base func() int64) (heap, held int64) {
				// The same oversized segment, stopped in its final merge: the
				// heap's rows less its last row blocks, written as one more
				// run, are held as the merge's kept tail, their blocks
				// accounted until Close gives them back.
				row := in.row
				in.row = func(i int) types.Tuple {
					t := row(i)
					t[0] = types.NewInt(0)
					return t
				}
				m, err := NewMRS(in, sh.schema, sortord.New("c1", "c2"), sortord.New("c1"), Config{Disk: d, MemoryBlocks: blocks, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Open(); err != nil {
					t.Fatal(err)
				}
				if ok, err := pull1(m); !ok || err != nil {
					t.Fatalf("first row: %v %v", ok, err)
				}
				if m.cur == nil || !m.cur.spilled || m.cur.store == nil {
					t.Fatalf("the segment was meant to merge over a kept tail: %+v", m.stats)
				}
				heap, held = base(), m.liveBytes
				if live := d.LiveBlocks() * int64(d.PageSize()); live != held || held > blocks*int64(d.PageSize()) {
					t.Fatalf("%d bytes of blocks out, %d accounted, budget %d", live, held, blocks*d.PageSize())
				}
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				if d.LiveBlocks() != 0 {
					t.Fatalf("%d blocks still out after Close mid-merge", d.LiveBlocks())
				}
				return heap, held
			}},
		}
		for _, ph := range phases {
			t.Run(fmt.Sprintf("%s/%s", sh.name, ph.name), func(t *testing.T) {
				d := storage.NewDisk(0)
				defer storage.AssertNoLeaks(t, d)
				in := &genIter{n: rows, row: sh.row}
				before := liveHeap()
				heap, peak := ph.run(t, d, in, func() int64 {
					// Run pages live on this disk's heap; they are the
					// device, not the sort's memory.
					return liveHeap() - before - int64(d.TotalPages())*int64(d.PageSize())
				})
				if heap == 0 || peak == 0 {
					t.Fatalf("the phase was never reached (heap %d, peak %d)", heap, peak)
				}
				ratio := float64(heap) / float64(peak)
				t.Logf("resident %d B, accounted %d B: %.3f", heap, peak, ratio)
				if ratio < 0.85 || ratio > 1.15 {
					t.Errorf("resident/accounted = %.3f, want within 1 ± 0.15", ratio)
				}
			})
		}
	}
}
