package xsort

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// TestSpilledChunkSpansLiveUntilNextChunk: a spilled sort hands its rows out
// as spans over run pages and store blocks, and a run's pages go back to the
// block pool as soon as an intermediate merge consumes the run or its
// segment's arena is released. The chunk contract is what makes that safe: a
// span lives until its producer's next NextChunk, and the arena is released
// only on the call after the segment's last chunk. Three spilled sorts on one
// disk — a full sort that reduces, a partial sort that merges over kept
// tails, a bounded sort — are drained a chunk at a time, round robin, and
// after every chunk a burst of temp pages is written and dropped, so
// whatever a sort has just handed back to the pool is overwritten at once;
// every chunk must still hold the bytes it was received with when its own
// sort is asked again, and every sort must deliver its oracle's rows.
func TestSpilledChunkSpansLiveUntilNextChunk(t *testing.T) {
	d := storage.NewDisk(0)
	defer storage.AssertNoLeaks(t, d)
	rng := rand.New(rand.NewSource(42))
	sorted := genRows(20_000, 10, rng) // c1 ascending: ten segments of 2 000 rows
	mixed := shuffled(sorted, rng)
	type arm struct {
		name  string
		rows  []types.Tuple
		given sortord.Order
		cfg   Config
		check func(st *SortStats, tail bool) bool

		m    *MRS
		c    *types.Chunk
		held [][]byte // byte copies of c's rows, taken on receipt
		got  []types.Tuple
		tail bool // a spilled segment was merged over its kept tail
	}
	arms := []*arm{
		{name: "full sort with a reduction pass", rows: mixed, cfg: Config{Disk: d, MemoryBlocks: 4},
			check: func(st *SortStats, _ bool) bool { return st.MergePasses > 0 }},
		{name: "partial sort with a kept tail", rows: sorted, given: sortord.New("c1"), cfg: Config{Disk: d, MemoryBlocks: 8},
			check: func(st *SortStats, tail bool) bool { return st.SpilledSegs > 1 && st.MergePasses == 0 && tail }},
		{name: "bounded sort", rows: mixed, cfg: Config{Disk: d, MemoryBlocks: 4, Limit: 6_000},
			check: func(st *SortStats, _ bool) bool { return st.RunsGenerated > 0 }},
	}
	scribble := bytes.Repeat([]byte{0xee}, d.PageSize())
	overwritePool := func() {
		f := d.CreateTemp("scribble", storage.KindRun)
		for i := 0; i < 512; i++ {
			if _, err := f.AppendPage(scribble); err != nil {
				t.Fatal(err)
			}
		}
		d.Remove(f.Name())
	}
	for _, a := range arms {
		m, err := NewMRS(iter.FromSlice(a.rows), sortSchema, limitTarget, a.given, a.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Open(); err != nil {
			t.Fatal(err)
		}
		a.m, a.c = m, types.NewChunk(sortSchema.Len(), types.DefaultChunkCapacity)
	}
	for live := len(arms); live > 0; {
		live = 0
		for _, a := range arms {
			if a.m == nil {
				continue
			}
			for i, want := range a.held {
				if got := a.c.EncodedRow(i); !bytes.Equal(got, want) {
					t.Fatalf("%s: row %d changed before the sort's next NextChunk", a.name, len(a.got)-len(a.held)+i)
				}
			}
			if err := a.m.NextChunk(a.c); err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			if s := a.m.cur; s != nil && s.spilled && s.store != nil {
				a.tail = true
			}
			a.held = a.held[:0]
			for i := 0; i < a.c.Rows(); i++ {
				span := a.c.EncodedRow(i)
				if span == nil {
					t.Fatalf("%s: row %d came without its span", a.name, len(a.got))
				}
				a.held = append(a.held, bytes.Clone(span))
				a.got = append(a.got, a.c.OwnedRow(i))
			}
			overwritePool()
			if a.c.Rows() == 0 {
				if err := a.m.Close(); err != nil {
					t.Fatal(err)
				}
				if st := a.m.Stats(); !a.check(st, a.tail) {
					t.Errorf("%s does not spill the way it is meant to: %+v, kept tail %v", a.name, *st, a.tail)
				}
				a.m = nil
				continue
			}
			live++
		}
	}
	for _, a := range arms {
		k := len(a.rows)
		if a.cfg.Limit > 0 {
			k = int(a.cfg.Limit)
		}
		// Rows that tie on (c1, c2) are identical, so even the unstable
		// spilled full sort must match the stable oracle row for row.
		if want := stablePrefix(a.rows, k); !reflect.DeepEqual(a.got, want) {
			t.Errorf("%s: %d rows out, not the oracle's %d", a.name, len(a.got), len(want))
		}
	}
}
