package storage

import (
	"sync"
	"testing"
)

func TestTappedFileChargesBothLedgers(t *testing.T) {
	d := NewDisk(64)
	f := d.Create("data", KindData)
	tap := NewTap()
	view := f.Tapped(tap)

	if _, err := view.AppendPage(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := view.ReadPage(0); err != nil {
		t.Fatal(err)
	}
	view.Seek()

	want := IOStats{PageReads: 1, PageWrites: 1, Seeks: 1}
	if got := tap.Stats(); got != want {
		t.Fatalf("tap stats = %+v, want %+v", got, want)
	}
	if got := d.Stats(); got != want {
		t.Fatalf("disk stats = %+v, want %+v — taps must not divert device accounting", got, want)
	}

	// The view shares pages with the original; the original's I/O does not
	// reach the tap.
	if f.NumPages() != 1 {
		t.Fatalf("original sees %d pages, want the view's append", f.NumPages())
	}
	if _, err := f.ReadPage(0); err != nil {
		t.Fatal(err)
	}
	if got := tap.Stats(); got != want {
		t.Fatalf("untapped read leaked into the tap: %+v", got)
	}
	if got := d.Stats(); (got != IOStats{PageReads: 2, PageWrites: 1, Seeks: 1}) {
		t.Fatalf("disk stats = %+v", got)
	}

	// Nil taps are free passthroughs.
	if f.Tapped(nil) != f {
		t.Fatal("Tapped(nil) must return the file itself")
	}

	tap.Reset()
	if got := tap.Stats(); got != (IOStats{}) {
		t.Fatalf("Reset left %+v", got)
	}
}

func TestTappedArenaAttributesSpills(t *testing.T) {
	d := NewDisk(64)
	tap := NewTap()
	a := d.NewArenaTapped(tap)
	f := a.CreateTemp("run", KindRun)
	if _, err := f.AppendPage(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadPage(0); err != nil {
		t.Fatal(err)
	}

	want := IOStats{PageReads: 1, PageWrites: 1, RunPageReads: 1, RunPageWrites: 1}
	if got := tap.Stats(); got != want {
		t.Fatalf("tap stats = %+v, want %+v", got, want)
	}
	if got := d.Stats(); got != want {
		t.Fatalf("disk stats with live arena = %+v, want %+v", got, want)
	}
	// Release moves no charge: the disk and the tap observed them live.
	a.Release()
	if got := d.Stats(); got != want {
		t.Fatalf("disk stats after release = %+v, want %+v", got, want)
	}
	if got := tap.Stats(); got != want {
		t.Fatalf("tap stats after release = %+v, want %+v", got, want)
	}
}

// TestConcurrentTapsAreDisjoint drives two tapped workloads on one disk
// concurrently (run under -race by make race) and asserts exact, disjoint
// attribution: each tap sees precisely its own transfers and the device
// ledger sees the sum.
func TestConcurrentTapsAreDisjoint(t *testing.T) {
	d := NewDisk(64)
	shared := d.Create("shared", KindData)
	for i := 0; i < 8; i++ {
		if _, err := shared.AppendPage(make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	base := d.Stats()

	const workers = 4
	const readsPer = 200
	taps := make([]*Tap, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		taps[w] = NewTap()
		wg.Add(1)
		go func(tap *Tap) {
			defer wg.Done()
			view := shared.Tapped(tap)
			arena := d.NewArenaTapped(tap)
			defer arena.Release()
			run := arena.CreateTemp("run", KindRun)
			if _, err := run.AppendPage(make([]byte, 8)); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < readsPer; i++ {
				if _, err := view.ReadPage(i % 8); err != nil {
					t.Error(err)
					return
				}
				if _, err := run.ReadPage(0); err != nil {
					t.Error(err)
					return
				}
			}
		}(taps[w])
	}
	wg.Wait()

	want := IOStats{
		PageReads:     2 * readsPer,
		PageWrites:    1,
		RunPageReads:  readsPer,
		RunPageWrites: 1,
	}
	var sum IOStats
	for w, tap := range taps {
		if got := tap.Stats(); got != want {
			t.Fatalf("tap %d = %+v, want %+v", w, got, want)
		}
		sum.Add(taps[w].Stats())
	}
	if got := d.Stats().Sub(base); got != sum {
		t.Fatalf("device delta %+v != sum of taps %+v", got, sum)
	}
}
