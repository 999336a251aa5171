package storage

import (
	"bytes"
	"errors"
	"testing"
)

// writePages appends n pages of fill to f.
func writePages(t *testing.T, f *File, n int, fill byte) {
	t.Helper()
	page := bytes.Repeat([]byte{fill}, f.PageSize())
	for i := 0; i < n; i++ {
		if _, err := f.AppendPage(page); err != nil {
			t.Fatal(err)
		}
	}
}

// tempDrops are the ways a temp file leaves its holder: each must hand the
// file's pages back to the block pool.
var tempDrops = []struct {
	name string
	make func(d *Disk) *File
	drop func(d *Disk, f *File)
}{
	{"Disk.Remove", func(d *Disk) *File { return d.CreateTemp("spool", KindRun) },
		func(d *Disk, f *File) { d.Remove(f.Name()) }},
	{"SpillArena.Remove", func(d *Disk) *File { return d.NewArena().CreateTemp("run", KindRun) },
		func(d *Disk, f *File) {
			for _, a := range d.arenas {
				a.Remove(f.Name())
				a.Release()
			}
		}},
	{"SpillArena.Release", func(d *Disk) *File { return d.NewArena().CreateTemp("run", KindRun) },
		func(d *Disk, f *File) {
			for _, a := range d.arenas {
				a.Release()
			}
		}},
	{"Truncate", func(d *Disk) *File { return d.CreateTemp("spool", KindRun) },
		func(d *Disk, f *File) { f.Truncate(); d.Remove(f.Name()) }},
}

// Each way of dropping a temp file hands every page it held back to the
// pool, and the file is empty after it; none of them is sort memory.
func TestDroppedTempFileHandsItsPagesBack(t *testing.T) {
	for _, c := range tempDrops {
		t.Run(c.name, func(t *testing.T) {
			d := NewDisk(256)
			f := c.make(d)
			writePages(t, f, 5, 0xab)
			if got := d.tempPages.Load(); got != 5 {
				t.Fatalf("temp pages held = %d, want 5", got)
			}
			if got := d.LiveBlocks(); got != 0 {
				t.Fatalf("LiveBlocks = %d with only temp pages out, want 0", got)
			}
			c.drop(d, f)
			if got := d.tempPages.Load(); got != 0 {
				t.Fatalf("temp pages held after %s = %d, want 0", c.name, got)
			}
			if f.NumPages() != 0 {
				t.Fatalf("dropped file still has %d pages", f.NumPages())
			}
			AssertNoLeaks(t, d)
		})
	}
}

// A data file's pages are its own for good: removing or truncating it hands
// nothing to the pool, so a page read before stays intact however many temp
// pages are written and recycled after.
func TestDataFilePagesAreNeverRecycled(t *testing.T) {
	d := NewDisk(256)
	removed, truncated := d.Create("t", KindData), d.Create("i", KindData)
	writePages(t, removed, 4, 0x11)
	writePages(t, truncated, 4, 0x22)
	var held [][]byte
	for _, f := range []*File{removed, truncated} {
		for i := 0; i < f.NumPages(); i++ {
			p, err := f.ReadPage(i)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, p)
		}
	}
	want := make([][]byte, len(held))
	for i, p := range held {
		want[i] = bytes.Clone(p)
	}
	d.Remove(removed.Name())
	truncated.Truncate()
	if got := d.tempPages.Load(); got != 0 {
		t.Fatalf("data pages entered the pool's accounting: %d", got)
	}
	for round := 0; round < 50; round++ {
		f := d.CreateTemp("churn", KindRun)
		writePages(t, f, 8, 0xee)
		d.Remove(f.Name())
	}
	for i := range held {
		if !bytes.Equal(held[i], want[i]) {
			t.Fatalf("data page %d was overwritten after its file was dropped", i)
		}
	}
	AssertNoLeaks(t, d)
}

// LiveBlocks counts sort memory only: temp pages and a TupleWriter's staging
// page come from the same pool but never enter it.
func TestLiveBlocksCountsSortMemoryOnly(t *testing.T) {
	d := NewDisk(256)
	b := d.GetBlock(1)
	f := d.CreateTemp("spool", KindRun)
	w := NewTupleWriter(f)
	writePages(t, f, 3, 0x33)
	if got := d.LiveBlocks(); got != 1 {
		t.Fatalf("LiveBlocks = %d beside temp pages and a writer, want the 1 block", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	d.Remove(f.Name())
	if got := d.LiveBlocks(); got != 1 {
		t.Fatalf("LiveBlocks = %d after dropping the temp file, want the 1 block", got)
	}
	d.PutBlock(b)
	AssertNoLeaks(t, d)
}

// A write refused by an injected fault or by the temp quota takes no page
// from the pool, and a writer that hit one still gives its staging page back.
func TestFailedTempWriteLeaksNoPage(t *testing.T) {
	cases := []struct {
		name  string
		setup func(d *Disk)
		want  error
	}{
		{"fault", func(d *Disk) {
			// The first rule fails the third run-page write, the second
			// the fourth.
			run := FaultClass{OpWrite, KindRun}
			d.SetFaultPlan(NewFaultPlan(FaultRule{Class: run, At: 3}, FaultRule{Class: run, At: 4}))
		}, ErrInjectedFault},
		{"ENOSPC", func(d *Disk) { d.SetTempQuotaPages(2) }, ErrNoTempSpace},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := NewDisk(64)
			c.setup(d)
			f := d.NewArena().CreateTemp("run", KindRun)
			page := make([]byte, 64)
			for i := 0; i < 2; i++ {
				if _, err := f.AppendPage(page); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := f.AppendPage(page); !errors.Is(err, c.want) {
				t.Fatalf("third write = %v, want %v", err, c.want)
			}
			if f.NumPages() != 2 || d.tempPages.Load() != 2 {
				t.Fatalf("after a refused write: %d pages, %d held, want 2 and 2", f.NumPages(), d.tempPages.Load())
			}
			g := d.CreateTemp("spool", KindRun)
			w := NewTupleWriter(g)
			if err := w.WriteRaw(make([]byte, 40)); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); !errors.Is(err, c.want) {
				t.Fatalf("writer Close = %v, want %v", err, c.want)
			}
			if err := w.Close(); !errors.Is(err, c.want) {
				t.Fatalf("second Close = %v, want the first failure again", err)
			}
			d.Remove(g.Name())
			for _, a := range d.arenas {
				a.Release()
			}
			AssertNoLeaks(t, d)
		})
	}
}

// A closed writer's staging page is back in the pool: using the writer
// again fails instead of writing into a buffer someone else may hold.
func TestTupleWriterUnusableAfterClose(t *testing.T) {
	d := NewDisk(64)
	f := d.CreateTemp("spool", KindRun)
	w := NewTupleWriter(f)
	if err := w.WriteRaw(make([]byte, 20)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRaw(make([]byte, 20)); !errors.Is(err, errWriterClosed) {
		t.Fatalf("write after Close = %v, want errWriterClosed", err)
	}
	if err := w.Close(); !errors.Is(err, errWriterClosed) {
		t.Fatalf("second Close = %v, want errWriterClosed", err)
	}
	if f.NumPages() != 1 {
		t.Fatalf("file has %d pages, want the 1 Close flushed", f.NumPages())
	}
	d.Remove(f.Name())
	AssertNoLeaks(t, d)
}
