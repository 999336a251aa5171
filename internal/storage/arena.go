package storage

import (
	"fmt"
	"sort"
	"sync"
)

// SpillArena is an isolated temp-file namespace handed to one spill
// producer (a sort, or one spilled segment of one). Its files are invisible
// to the disk's global namespace and to other arenas, so their names never
// collide, and releasing the arena drops whatever files it still holds — a
// failure path cannot leak a run. Arena files charge the disk's ledger like
// any other file; what one query spilled is its Tap's to tell.
//
// The holder may share one arena across goroutines (CreateTemp/Remove are
// mutex-guarded, page I/O is lock-free).
type SpillArena struct {
	disk *Disk
	id   int64
	tap  *ledger // optional per-query observer inherited by arena files

	mu       sync.Mutex
	files    map[string]*File
	nextTemp int
	released bool
}

// NewArena registers a fresh spill arena on the disk.
func (d *Disk) NewArena() *SpillArena {
	return d.NewArenaTapped(nil)
}

// NewArenaTapped registers a fresh spill arena whose files additionally
// charge the given query Tap (nil taps nothing).
func (d *Disk) NewArenaTapped(t *Tap) *SpillArena {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextArena++
	a := &SpillArena{disk: d, id: d.nextArena, tap: t.ledgerOrNil(), files: make(map[string]*File)}
	d.arenas[a.id] = a
	return a
}

// PageSize returns the disk's block size.
func (a *SpillArena) PageSize() int { return a.disk.pageSize }

// CreateTemp creates a uniquely named temp file inside the arena. Names
// carry the arena id so concurrent arenas can never collide with each other
// or with the disk's global temp namespace.
func (a *SpillArena) CreateTemp(prefix string, kind FileKind) *File {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.released {
		panic("storage: CreateTemp on a released SpillArena")
	}
	a.nextTemp++
	name := fmt.Sprintf("%s.a%d.tmp%d", prefix, a.id, a.nextTemp)
	f := a.disk.newFile(name, kind)
	f.tap = a.tap
	a.files[name] = f
	return f
}

// Remove deletes the named arena file (no-op when absent, like Disk.Remove).
func (a *SpillArena) Remove(name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.files, name)
}

// Release drops any remaining files (spill files are transient by
// definition) and deregisters the arena. Idempotent; a released arena must
// not be used again.
func (a *SpillArena) Release() {
	a.disk.mu.Lock()
	if _, live := a.disk.arenas[a.id]; !live {
		a.disk.mu.Unlock()
		return
	}
	delete(a.disk.arenas, a.id)
	a.disk.mu.Unlock()

	a.mu.Lock()
	a.released = true
	a.files = nil
	a.mu.Unlock()
}

// fileNames lists the arena's files (caller holds no lock; used by
// Disk.FileNames for leak checks).
func (a *SpillArena) fileNames() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.files))
	for n := range a.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// totalPages sums the arena files' allocated pages.
func (a *SpillArena) totalPages() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, f := range a.files {
		n += f.NumPages()
	}
	return n
}
