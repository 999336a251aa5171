// Package storage implements the simulated block device under the PYRO
// execution engine. All table, index and sort-run data live in paged
// in-memory "files"; every page read or write is charged to an IOStats
// counter. The experiments in the paper compare plans by I/O behaviour, so
// exact accounting of block transfers — not wall-clock disk latency — is the
// property the substitution must preserve (see DESIGN.md).
//
// Page I/O charges one lock-free atomic ledger and never takes the
// device-wide mutex (which guards only the file registry). Spill producers
// — a sort, or one oversized segment of one — get their own SpillArenas:
// isolated temp namespaces whose files release together. Per-query
// attribution is a Tap's job.
//
// The default page size is 4 KiB, matching the paper's setup ("We assume a
// disk block size of 4K bytes").
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultPageSize is the simulated disk block size in bytes.
const DefaultPageSize = 4096

// IOStats counts simulated block transfers. The engine distinguishes reads
// and writes and, separately, transfers attributable to sort-run generation
// and merging, which is the quantity Section 3 of the paper eliminates via
// partial sorting.
type IOStats struct {
	PageReads     int64 // pages read (all causes)
	PageWrites    int64 // pages written (all causes)
	RunPageReads  int64 // subset of PageReads from sort-run files
	RunPageWrites int64 // subset of PageWrites to sort-run files
	Seeks         int64 // random repositioning events (per run switch / probe)
}

// Total returns total block transfers (reads + writes).
func (s IOStats) Total() int64 { return s.PageReads + s.PageWrites }

// RunTotal returns transfers attributable to sort runs.
func (s IOStats) RunTotal() int64 { return s.RunPageReads + s.RunPageWrites }

// Add accumulates o into s.
func (s *IOStats) Add(o IOStats) {
	s.PageReads += o.PageReads
	s.PageWrites += o.PageWrites
	s.RunPageReads += o.RunPageReads
	s.RunPageWrites += o.RunPageWrites
	s.Seeks += o.Seeks
}

// Sub returns s - o, for interval measurements.
func (s IOStats) Sub(o IOStats) IOStats {
	return IOStats{
		PageReads:     s.PageReads - o.PageReads,
		PageWrites:    s.PageWrites - o.PageWrites,
		RunPageReads:  s.RunPageReads - o.RunPageReads,
		RunPageWrites: s.RunPageWrites - o.RunPageWrites,
		Seeks:         s.Seeks - o.Seeks,
	}
}

func (s *IOStats) String() string {
	return fmt.Sprintf("reads=%d writes=%d (run reads=%d writes=%d) seeks=%d",
		s.PageReads, s.PageWrites, s.RunPageReads, s.RunPageWrites, s.Seeks)
}

// ledger is a lock-free IOStats accumulator. Files charge transfers with
// plain atomic adds, so page I/O from concurrent sort workers never
// serializes on a mutex; snapshots sum monotone counters and are exact
// whenever the ledger is quiescent (which is when tests assert on it).
type ledger struct {
	pageReads     atomic.Int64
	pageWrites    atomic.Int64
	runPageReads  atomic.Int64
	runPageWrites atomic.Int64
	seeks         atomic.Int64
}

func (l *ledger) charge(kind FileKind, reads, writes int64, seek bool) {
	if reads != 0 {
		l.pageReads.Add(reads)
		if kind == KindRun {
			l.runPageReads.Add(reads)
		}
	}
	if writes != 0 {
		l.pageWrites.Add(writes)
		if kind == KindRun {
			l.runPageWrites.Add(writes)
		}
	}
	if seek {
		l.seeks.Add(1)
	}
}

func (l *ledger) snapshot() IOStats {
	return IOStats{
		PageReads:     l.pageReads.Load(),
		PageWrites:    l.pageWrites.Load(),
		RunPageReads:  l.runPageReads.Load(),
		RunPageWrites: l.runPageWrites.Load(),
		Seeks:         l.seeks.Load(),
	}
}

func (l *ledger) reset() {
	l.pageReads.Store(0)
	l.pageWrites.Store(0)
	l.runPageReads.Store(0)
	l.runPageWrites.Store(0)
	l.seeks.Store(0)
}

// FileKind labels a file for I/O attribution.
type FileKind uint8

const (
	// KindData is table or index data.
	KindData FileKind = iota
	// KindRun is an external-sort run file.
	KindRun
)

// TempSpace is the capability to create and remove temporary files — the
// surface external sorting needs from the storage layer. It is satisfied by
// the Disk itself (global namespace) and by SpillArena (an isolated
// per-sort namespace), so run formation and merging code is agnostic to
// which namespace its spill files land in.
type TempSpace interface {
	CreateTemp(prefix string, kind FileKind) *File
	Remove(name string)
	PageSize() int
}

// Disk is a simulated block device: a set of named paged files plus an
// IOStats ledger. A Disk is safe for concurrent use by multiple goroutines;
// page transfers charge a lock-free atomic ledger, and the mutex guards only
// the file/arena registry. Every file charges the ledger, arena files
// included.
type Disk struct {
	pageSize   int
	stats      ledger
	fault      atomic.Pointer[faultSlot] // installed FaultPlan; nil slot or plan = no faults
	tempQuota  atomic.Int64              // max live run pages; <= 0 = unlimited
	liveBlocks atomic.Int64              // pages of sort memory out (block.go)

	mu        sync.Mutex
	files     map[string]*File
	arenas    map[int64]*SpillArena
	nextTemp  int
	nextArena int64
}

// NewDisk returns an empty disk with the given page size (0 => default).
func NewDisk(pageSize int) *Disk {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Disk{
		pageSize: pageSize,
		files:    make(map[string]*File),
		arenas:   make(map[int64]*SpillArena),
	}
}

// PageSize returns the block size in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// Stats returns a snapshot of the I/O counters.
func (d *Disk) Stats() IOStats { return d.stats.snapshot() }

// ResetStats zeroes the I/O counters.
func (d *Disk) ResetStats() { d.stats.reset() }

// newFile builds a file of the disk.
func (d *Disk) newFile(name string, kind FileKind) *File {
	return &File{disk: d, pageSize: d.pageSize, name: name, kind: kind, data: &pageStore{}}
}

// Create creates (or truncates) a named file of the given kind.
func (d *Disk) Create(name string, kind FileKind) *File {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.newFile(name, kind)
	d.files[name] = f
	return f
}

// CreateTemp creates a uniquely named temporary file (used for sort runs).
func (d *Disk) CreateTemp(prefix string, kind FileKind) *File {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextTemp++
	name := fmt.Sprintf("%s.tmp%d", prefix, d.nextTemp)
	f := d.newFile(name, kind)
	d.files[name] = f
	return f
}

// Open returns the named file, or an error if absent. Arena files are not
// visible here: an arena's namespace is private to its holder.
func (d *Disk) Open(name string) (*File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("storage: file %q does not exist", name)
	}
	return f, nil
}

// Remove deletes the named file. Removing a missing file is a no-op, like
// closing an already-closed descriptor during cleanup.
func (d *Disk) Remove(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.files, name)
}

// FileNames lists files in deterministic order (for tests and tools),
// including files inside live arenas — a leaked spill file is still a leak.
func (d *Disk) FileNames() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.files))
	for n := range d.files {
		out = append(out, n)
	}
	for _, a := range d.arenas {
		out = append(out, a.fileNames()...)
	}
	sort.Strings(out)
	return out
}

// TotalPages returns the number of allocated pages across all files,
// including live arenas'.
func (d *Disk) TotalPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, f := range d.files {
		n += f.NumPages()
	}
	for _, a := range d.arenas {
		n += a.totalPages()
	}
	return n
}

// LiveArenas returns the number of unreleased spill arenas — nonzero after a
// query finishes means a failure path skipped an arena Release.
func (d *Disk) LiveArenas() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.arenas)
}

// LiveTempFiles lists every live temporary file: KindRun files in the global
// namespace plus all files inside live arenas. Table and index data files
// are permanent and excluded; everything returned here should be gone once
// no query is in flight.
func (d *Disk) LiveTempFiles() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for n, f := range d.files {
		if f.kind == KindRun {
			out = append(out, n)
		}
	}
	for _, a := range d.arenas {
		out = append(out, a.fileNames()...)
	}
	sort.Strings(out)
	return out
}

// File is a paged file on the simulated disk. Its transfers charge the
// disk's ledger plus, for tapped views (File.Tapped), one query's
// observation Tap. Views share the underlying page store, so a tapped view
// and the registry's original are the same file with different attribution.
type File struct {
	disk     *Disk   // owning device: its ledger, fault plan and temp quota
	tap      *ledger // optional per-query observer; nil on untapped files
	pageSize int
	name     string
	kind     FileKind
	data     *pageStore
}

// pageStore is the page state shared between a file and its tapped views.
type pageStore struct {
	mu    sync.Mutex
	pages [][]byte
}

// Tapped returns a view of the file whose transfers additionally charge t.
// The view shares the file's pages (reads, appends and truncates are common
// to all views); only the attribution differs. A nil tap returns f itself.
func (f *File) Tapped(t *Tap) *File {
	if t == nil {
		return f
	}
	cp := *f
	cp.tap = t.ledgerOrNil()
	return &cp
}

// charge records block transfers on the device ledger and, when this is a
// tapped view, mirrors them onto the query's tap.
func (f *File) charge(reads, writes int64, seek bool) {
	f.disk.stats.charge(f.kind, reads, writes, seek)
	if f.tap != nil {
		f.tap.charge(f.kind, reads, writes, seek)
	}
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Kind returns the file's I/O attribution kind.
func (f *File) Kind() FileKind { return f.kind }

// PageSize returns the block size this file was created with.
func (f *File) PageSize() int { return f.pageSize }

// NumPages returns the number of allocated pages.
func (f *File) NumPages() int {
	f.data.mu.Lock()
	defer f.data.mu.Unlock()
	return len(f.data.pages)
}

// AppendPage writes a new page at the end of the file and charges one block
// write. The page contents are copied. The write can fail: on an injected
// write fault, on a run-page write past the disk's temp-space quota
// (ErrNoTempSpace), or on a page larger than the block size. Nothing is
// appended or charged on failure.
func (f *File) AppendPage(data []byte) (int, error) {
	if len(data) > f.pageSize {
		return 0, fmt.Errorf("storage: page of %d bytes exceeds page size %d in %q", len(data), f.pageSize, f.name)
	}
	if err := f.faultCheck(OpWrite); err != nil {
		return 0, err
	}
	if f.kind == KindRun {
		if err := f.disk.checkTempQuota(); err != nil {
			return 0, err
		}
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	f.data.mu.Lock()
	f.data.pages = append(f.data.pages, cp)
	n := len(f.data.pages)
	f.data.mu.Unlock()
	f.charge(0, 1, false)
	return n - 1, nil
}

// ReadPage returns page i, charging one block read. The returned slice must
// not be modified by the caller.
func (f *File) ReadPage(i int) ([]byte, error) {
	if err := f.faultCheck(OpRead); err != nil {
		return nil, err
	}
	f.data.mu.Lock()
	if i < 0 || i >= len(f.data.pages) {
		n := len(f.data.pages)
		f.data.mu.Unlock()
		return nil, fmt.Errorf("storage: page %d out of range [0,%d) in %q", i, n, f.name)
	}
	p := f.data.pages[i]
	f.data.mu.Unlock()
	f.charge(1, 0, false)
	return p, nil
}

// Seek records a random repositioning (merge-run switches, index probes).
func (f *File) Seek() { f.charge(0, 0, true) }

// Truncate drops all pages without charging I/O (models deallocation).
func (f *File) Truncate() {
	f.data.mu.Lock()
	defer f.data.mu.Unlock()
	f.data.pages = f.data.pages[:0]
}
