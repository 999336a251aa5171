package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"pyro/internal/types"
)

func TestDiskCreateOpenRemove(t *testing.T) {
	d := NewDisk(0)
	if d.PageSize() != DefaultPageSize {
		t.Fatalf("default page size = %d", d.PageSize())
	}
	f := d.Create("t1", KindData)
	if f.Name() != "t1" || f.Kind() != KindData {
		t.Fatal("file metadata wrong")
	}
	got, err := d.Open("t1")
	if err != nil || got != f {
		t.Fatalf("Open: %v", err)
	}
	if _, err := d.Open("nope"); err == nil {
		t.Fatal("opening missing file should error")
	}
	d.Remove("t1")
	if _, err := d.Open("t1"); err == nil {
		t.Fatal("file should be removed")
	}
	d.Remove("t1") // idempotent
}

func TestPageIOAccounting(t *testing.T) {
	d := NewDisk(128)
	f := d.Create("f", KindData)
	r := d.Create("r", KindRun)
	if _, err := f.AppendPage([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AppendPage([]byte{4}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadPage(0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPage(0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPage(5); err == nil {
		t.Fatal("out-of-range read should error")
	}
	s := d.Stats()
	if s.PageWrites != 2 || s.PageReads != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.RunPageWrites != 1 || s.RunPageReads != 1 {
		t.Fatalf("run attribution wrong: %+v", s)
	}
	if s.Total() != 4 || s.RunTotal() != 2 {
		t.Fatalf("totals wrong: %+v", s)
	}
	d.ResetStats()
	if d.Stats().Total() != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestStatsAddSub(t *testing.T) {
	a := IOStats{PageReads: 5, PageWrites: 3, RunPageReads: 1, RunPageWrites: 2, Seeks: 4}
	b := IOStats{PageReads: 1, PageWrites: 1, RunPageReads: 1, RunPageWrites: 1, Seeks: 1}
	diff := a.Sub(b)
	if diff.PageReads != 4 || diff.PageWrites != 2 || diff.Seeks != 3 {
		t.Fatalf("Sub = %+v", diff)
	}
	var acc IOStats
	acc.Add(a)
	acc.Add(b)
	if acc.PageReads != 6 || acc.RunTotal() != 5 {
		t.Fatalf("Add = %+v", acc)
	}
	if acc.String() == "" {
		t.Fatal("String empty")
	}
}

// A data page is a fresh buffer and a temp page a pool buffer: both are
// copies, exactly as long as what was written.
func TestAppendPageCopiesAndBounds(t *testing.T) {
	for _, kind := range []FileKind{KindData, KindRun} {
		d := NewDisk(64)
		f := d.Create("f", kind)
		buf := []byte{9, 9}
		if _, err := f.AppendPage(buf); err != nil {
			t.Fatal(err)
		}
		buf[0] = 1
		p, _ := f.ReadPage(0)
		if p[0] != 9 {
			t.Fatal("AppendPage must copy")
		}
		if len(p) != 2 || cap(p) != 2 {
			t.Fatalf("page of kind %d is %d bytes (cap %d), want the 2 written", kind, len(p), cap(p))
		}
		if _, err := f.AppendPage(make([]byte, 65)); err == nil {
			t.Fatal("oversized page should error")
		}
		if f.NumPages() != 1 {
			t.Fatal("failed append must not allocate a page")
		}
		d.Remove(f.Name())
		AssertNoLeaks(t, d)
	}
}

func TestTupleWriterReaderRoundTrip(t *testing.T) {
	d := NewDisk(256)
	f := d.Create("f", KindData)
	w := NewTupleWriter(f)
	var want []types.Tuple
	for i := 0; i < 500; i++ {
		tup := types.NewTuple(types.NewInt(int64(i)), types.NewString(fmt.Sprintf("row-%d", i)))
		want = append(want, tup)
		if err := w.Write(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.TuplesWritten() != 500 {
		t.Fatalf("TuplesWritten = %d", w.TuplesWritten())
	}
	if f.NumPages() < 2 {
		t.Fatalf("expected multiple pages, got %d", f.NumPages())
	}
	got, err := ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i][0].Int() != want[i][0].Int() || got[i][1].Str() != want[i][1].Str() {
			t.Fatalf("tuple %d mismatch: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestTupleReaderRewind(t *testing.T) {
	d := NewDisk(128)
	f := d.Create("f", KindData)
	if err := WriteAll(f, []types.Tuple{
		types.NewTuple(types.NewInt(1)),
		types.NewTuple(types.NewInt(2)),
	}); err != nil {
		t.Fatal(err)
	}
	r := NewTupleReader(f)
	if tup, ok, _ := r.Next(); !ok || tup[0].Int() != 1 {
		t.Fatal("first read wrong")
	}
	before := d.Stats().Seeks
	r.Rewind()
	if d.Stats().Seeks != before+1 {
		t.Fatal("Rewind should charge a seek")
	}
	if tup, ok, _ := r.Next(); !ok || tup[0].Int() != 1 {
		t.Fatal("post-rewind read wrong")
	}
}

func TestOversizedTupleErrors(t *testing.T) {
	d := NewDisk(32)
	f := d.Create("f", KindData)
	w := NewTupleWriter(f)
	big := types.NewTuple(types.NewString("this string is far too large for a page"))
	if err := w.Write(big); err == nil {
		t.Fatal("oversized tuple should error")
	}
}

// TestWriteRawPageIdentical copies a tuple file through NextRaw/WriteRaw and
// demands the copy be indistinguishable from the original written through
// Write: same page count, same page bytes, same page directory, same charged
// transfers. The tuple sizes walk the packing edge cases on a 64-byte page
// (62 payload bytes): one tuple filling a page exactly, two that fill it
// exactly together, and one that misses the remaining room by a byte.
func TestWriteRawPageIdentical(t *testing.T) {
	d := NewDisk(64)
	str := func(n int) types.Tuple { return types.NewTuple(types.NewString(string(make([]byte, n)))) } // 3+n bytes encoded (n < 128)
	var tuples []types.Tuple
	for _, n := range []int{59, 28, 28, 27, 29, 6, 7, 46, 18, 19, 59, 11} {
		tuples = append(tuples, str(n))
	}
	for i := 0; i < 40; i++ {
		tuples = append(tuples, types.NewTuple(types.NewInt(int64(i)), types.NewString(fmt.Sprintf("r%d", i*i)), types.Null))
	}
	orig := d.Create("orig", KindRun)
	ow := NewTupleWriter(orig)
	for _, tup := range tuples {
		if err := ow.Write(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := ow.Close(); err != nil {
		t.Fatal(err)
	}
	written := d.Stats()

	cp := d.Create("copy", KindRun)
	cw := NewTupleWriter(cp)
	r := NewTupleReader(orig)
	for i := 0; ; i++ {
		enc, ok, err := r.NextRaw()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if want := tuples[i].Encode(nil); !bytes.Equal(enc, want) {
			t.Fatalf("NextRaw tuple %d = %x, want %x", i, enc, want)
		}
		if err := cw.WriteRaw(enc); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	copied := d.Stats().Sub(written)
	if copied.PageReads != written.PageWrites || copied.PageWrites != written.PageWrites {
		t.Errorf("copy charged %d reads / %d writes, want %d of each", copied.PageReads, copied.PageWrites, written.PageWrites)
	}
	if cw.TuplesWritten() != ow.TuplesWritten() || !reflect.DeepEqual(cw.PageStarts(), ow.PageStarts()) {
		t.Errorf("copy wrote %d tuples starting %v, original %d starting %v",
			cw.TuplesWritten(), cw.PageStarts(), ow.TuplesWritten(), ow.PageStarts())
	}
	if cp.NumPages() != orig.NumPages() {
		t.Fatalf("copy has %d pages, original %d", cp.NumPages(), orig.NumPages())
	}
	for i := 0; i < orig.NumPages(); i++ {
		a, _ := orig.ReadPage(i)
		b, _ := cp.ReadPage(i)
		if !bytes.Equal(a, b) {
			t.Errorf("page %d differs: %x vs %x", i, a, b)
		}
	}

	// An oversized tuple is refused by both entry points with the same
	// error, and neither refusal poisons the writer.
	big := str(60)
	w := NewTupleWriter(d.Create("big", KindRun))
	werr, rerr := w.Write(big), w.WriteRaw(big.Encode(nil))
	if werr == nil || rerr == nil || werr.Error() != rerr.Error() {
		t.Fatalf("oversized tuple: Write err %v, WriteRaw err %v", werr, rerr)
	}
	if err := w.WriteRaw(str(59).Encode(nil)); err != nil {
		t.Fatalf("writer unusable after a refused tuple: %v", err)
	}
}

func TestEmptyFileRead(t *testing.T) {
	d := NewDisk(0)
	f := d.Create("f", KindData)
	r := NewTupleReader(f)
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("empty file: ok=%v err=%v", ok, err)
	}
	// Close on empty writer writes nothing.
	w := NewTupleWriter(f)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != 0 {
		t.Fatal("empty close should not write a page")
	}
}

func TestCreateTempUnique(t *testing.T) {
	d := NewDisk(0)
	a := d.CreateTemp("sort", KindRun)
	b := d.CreateTemp("sort", KindRun)
	if a.Name() == b.Name() {
		t.Fatal("temp names must be unique")
	}
	names := d.FileNames()
	if len(names) != 2 {
		t.Fatalf("FileNames = %v", names)
	}
}

func TestTruncate(t *testing.T) {
	d := NewDisk(0)
	f := d.Create("f", KindData)
	if _, err := f.AppendPage([]byte{1}); err != nil {
		t.Fatal(err)
	}
	f.Truncate()
	if f.NumPages() != 0 {
		t.Fatal("Truncate failed")
	}
	if d.TotalPages() != 0 {
		t.Fatal("TotalPages after truncate")
	}
}

func TestConcurrentDiskAccess(t *testing.T) {
	d := NewDisk(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := d.Create(fmt.Sprintf("f%d", g), KindData)
			for i := 0; i < 50; i++ {
				if _, err := f.AppendPage([]byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := f.ReadPage(i); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := d.Stats()
	if s.PageReads != 400 || s.PageWrites != 400 {
		t.Fatalf("concurrent stats = %+v", s)
	}
}

func TestQuickWriteReadAnyTuples(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := r.Intn(60)
			tuples := make([]types.Tuple, n)
			for i := range tuples {
				tuples[i] = types.NewTuple(
					types.NewInt(r.Int63n(1000)),
					types.NewFloat(r.Float64()),
					types.NewString(fmt.Sprintf("s%d", r.Intn(100))),
				)
			}
			vals[0] = reflect.ValueOf(tuples)
		},
	}
	seq := 0
	prop := func(tuples []types.Tuple) bool {
		d := NewDisk(256)
		seq++
		f := d.Create(fmt.Sprintf("q%d", seq), KindData)
		if err := WriteAll(f, tuples); err != nil {
			return false
		}
		got, err := ReadAll(f)
		if err != nil || len(got) != len(tuples) {
			return false
		}
		for i := range tuples {
			for j := range tuples[i] {
				if got[i][j].Compare(tuples[i][j]) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// --- Spill-arena concurrency -----------------------------------------------

func TestArenaNamespaceIsolation(t *testing.T) {
	d := NewDisk(0)
	a := d.NewArena()
	b := d.NewArena()
	fa := a.CreateTemp("run", KindRun)
	fb := b.CreateTemp("run", KindRun)
	if fa.Name() == fb.Name() {
		t.Fatalf("arena temp names collide: %q", fa.Name())
	}
	// Arena files are invisible to the global namespace but visible to the
	// leak check.
	if _, err := d.Open(fa.Name()); err == nil {
		t.Fatal("arena file should not be openable through the global namespace")
	}
	if names := d.FileNames(); len(names) != 2 {
		t.Fatalf("FileNames should include arena files, got %v", names)
	}
	// Removing through the wrong arena is a no-op; through the right one it
	// deletes.
	b.Remove(fa.Name())
	a.Remove(fa.Name())
	if names := d.FileNames(); len(names) != 1 || names[0] != fb.Name() {
		t.Fatalf("after removes: %v", names)
	}
	a.Release()
	b.Release()
	if names := d.FileNames(); len(names) != 0 {
		t.Fatalf("release should drop arena files, got %v", names)
	}
}

// TestArenaChargesTheDiskLedger: arena file I/O lands in the disk totals as
// it happens, and releasing the arena (once or twice) leaves them alone.
func TestArenaChargesTheDiskLedger(t *testing.T) {
	d := NewDisk(128)
	a := d.NewArena()
	f := a.CreateTemp("run", KindRun)
	if _, err := f.AppendPage([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadPage(0); err != nil {
		t.Fatal(err)
	}
	f.Seek()
	want := IOStats{PageReads: 1, PageWrites: 1, RunPageReads: 1, RunPageWrites: 1, Seeks: 1}
	if got := d.Stats(); got != want {
		t.Fatalf("live stats = %+v, want %+v", got, want)
	}
	a.Release()
	a.Release() // idempotent
	if got := d.Stats(); got != want {
		t.Fatalf("post-release stats = %+v, want %+v", got, want)
	}
}

func TestArenaResetStatsCoversLiveArenas(t *testing.T) {
	d := NewDisk(128)
	a := d.NewArena()
	if _, err := a.CreateTemp("run", KindRun).AppendPage([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create("t", KindData).AppendPage([]byte{2}); err != nil {
		t.Fatal(err)
	}
	if d.Stats().PageWrites != 2 {
		t.Fatalf("stats = %+v", d.Stats())
	}
	d.ResetStats()
	if got := d.Stats(); got.Total() != 0 {
		t.Fatalf("ResetStats left %+v", got)
	}
	a.Release()
	if got := d.Stats(); got.Total() != 0 {
		t.Fatalf("release after reset re-added I/O: %+v", got)
	}
}

func TestReleasedArenaCreatePanics(t *testing.T) {
	d := NewDisk(0)
	a := d.NewArena()
	a.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("CreateTemp on a released arena should panic")
		}
	}()
	a.CreateTemp("run", KindRun)
}

// TestConcurrentArenaWriters is the race-detector gate for concurrent
// spills: N workers spilling into their own arenas share no mutable state
// beyond the disk's atomic counters, which total what the same work charges
// when done serially.
func TestConcurrentArenaWriters(t *testing.T) {
	const workers, pagesEach = 8, 40
	work := func(parallel bool) IOStats {
		d := NewDisk(64)
		run := func(a *SpillArena) {
			f := a.CreateTemp("spill", KindRun)
			for i := 0; i < pagesEach; i++ {
				if _, err := f.AppendPage([]byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < pagesEach; i++ {
				if _, err := f.ReadPage(i); err != nil {
					t.Error(err)
					return
				}
			}
			f.Seek()
		}
		if parallel {
			var wg sync.WaitGroup
			arenas := make([]*SpillArena, workers)
			for g := 0; g < workers; g++ {
				arenas[g] = d.NewArena()
			}
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(a *SpillArena) {
					defer wg.Done()
					run(a)
				}(arenas[g])
			}
			wg.Wait()
			// Release half before snapshotting: totals must not care
			// whether an arena is still live.
			for g := 0; g < workers/2; g++ {
				arenas[g].Release()
			}
			s := d.Stats()
			for g := workers / 2; g < workers; g++ {
				arenas[g].Release()
			}
			if after := d.Stats(); after != s {
				t.Errorf("release changed totals: %+v -> %+v", s, after)
			}
			return s
		}
		for g := 0; g < workers; g++ {
			a := d.NewArena()
			run(a)
			a.Release()
		}
		return d.Stats()
	}
	serial := work(false)
	parallel := work(true)
	if serial != parallel {
		t.Fatalf("parallel arena totals diverge from serial:\n serial   %+v\n parallel %+v", serial, parallel)
	}
	if serial.RunPageWrites != workers*pagesEach {
		t.Fatalf("run writes = %d, want %d", serial.RunPageWrites, workers*pagesEach)
	}
}

// TestConcurrentArenaSharedByWorkers exercises one arena shared by several
// goroutines: temp creation must stay collision-free and the ledger exact.
func TestConcurrentArenaSharedByWorkers(t *testing.T) {
	d := NewDisk(64)
	a := d.NewArena()
	const workers, files = 6, 20
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < files; i++ {
				f := a.CreateTemp("seg", KindRun)
				if _, err := f.AppendPage([]byte{1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(a.fileNames()); got != workers*files {
		t.Fatalf("arena holds %d files, want %d (name collision?)", got, workers*files)
	}
	if got := d.Stats().RunPageWrites; got != workers*files {
		t.Fatalf("run writes = %d, want %d", got, workers*files)
	}
	a.Release()
	if names := d.FileNames(); len(names) != 0 {
		t.Fatalf("leaked %v", names)
	}
}

// TestBlockPoolCountsWhatIsOut: blocks are page-sized (or a whole number of
// pages), counted per disk while out, and a pooled block of another disk's
// page size is never handed out.
func TestBlockPoolCountsWhatIsOut(t *testing.T) {
	d, other := NewDisk(512), NewDisk(128)
	b1, b2, big := d.GetBlock(1), d.GetBlock(1), d.GetBlock(3)
	if len(b1.Buf) != 512 || len(big.Buf) != 3*512 || big.Pages() != 3 {
		t.Fatalf("block sizes %d, %d (%d pages)", len(b1.Buf), len(big.Buf), big.Pages())
	}
	if got := d.LiveBlocks(); got != 5 {
		t.Fatalf("LiveBlocks = %d, want 5", got)
	}
	d.PutBlock(b1)
	for i := 0; i < 4; i++ { // whatever the pool hands back, it is this disk's size
		b := other.GetBlock(1)
		if len(b.Buf) != 128 {
			t.Fatalf("a %d-byte block for a 128-byte-page disk", len(b.Buf))
		}
		other.PutBlock(b)
	}
	d.PutBlock(b2)
	d.PutBlock(big)
	if d.LiveBlocks() != 0 || other.LiveBlocks() != 0 {
		t.Fatalf("blocks still out: %d, %d", d.LiveBlocks(), other.LiveBlocks())
	}
	leaky := &recordingTB{}
	held := d.GetBlock(1)
	AssertNoLeaks(leaky, d)
	if leaky.errors != 1 {
		t.Fatalf("AssertNoLeaks reported %d problems with a block out, want 1", leaky.errors)
	}
	d.PutBlock(held)
}

type recordingTB struct{ errors int }

func (r *recordingTB) Helper()               {}
func (r *recordingTB) Errorf(string, ...any) { r.errors++ }
