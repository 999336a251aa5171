// Package arena exercises the arenarelease analyzer. Each function is one
// self-contained case; `want` comments pin the expected diagnostics.
package arena

import "pyrofix/internal/storage"

// adoptLeak reconstructs the MRS adopt leak the PR 8 fault sweep caught
// dynamically: the only Release is inline, so the early return on pump
// failure (or a panic inside pump) leaks the arena's temp files.
func adoptLeak(d *storage.Disk, pump func() error) error {
	a := d.NewArena("segment") // want `arena Release is not deferred`
	if err := pump(); err != nil {
		return err // the arena is still live here
	}
	a.Release()
	return nil
}

// adoptFixed is the shape the analyzer accepts — the PR 8 fix: release in
// a defer, guarded by an ownership flag because the happy path hands the
// arena off.
func adoptFixed(d *storage.Disk, pump func() error, handoff func(*storage.SpillArena)) error {
	a := d.NewArena("segment")
	owned := true
	defer func() {
		if owned {
			a.Release()
		}
	}()
	if err := pump(); err != nil {
		return err
	}
	owned = false
	handoff(a)
	return nil
}

// inlineOnly releases on the straight-line path only: still flagged,
// because any panic between creation and Release leaks.
func inlineOnly(d *storage.Disk) {
	a := d.NewArena("tmp") // want `arena Release is not deferred`
	a.Release()
}

// discarded throws the arena away at birth.
func discarded(d *storage.Disk) {
	d.NewArena("scratch") // want `result of Disk.NewArena is discarded`
}

// discardedBlank is the same leak spelled with the blank identifier.
func discardedBlank(d *storage.Disk) {
	_ = d.NewArenaTapped("scratch", nil) // want `result of Disk.NewArenaTapped is discarded`
}

// neverReleased binds the arena but neither releases nor hands it off.
func neverReleased(d *storage.Disk) {
	a := d.NewArena("scratch") // want `arena is never released and never escapes`
	if a == nil {
		return
	}
}

// deferredRelease is the canonical clean shape.
func deferredRelease(d *storage.Disk, fill func(*storage.SpillArena) error) error {
	a := d.NewArena("spill")
	defer a.Release()
	return fill(a)
}

// returned transfers ownership to the caller at birth.
func returned(d *storage.Disk) *storage.SpillArena {
	return d.NewArena("handoff")
}

// runSet owns an arena across calls; its lifecycle releases it.
type runSet struct {
	arena *storage.SpillArena
}

// stored transfers ownership into a structure.
func stored(d *storage.Disk, rs *runSet) {
	rs.arena = d.NewArenaTapped("spool", nil)
}

// passed transfers ownership to another function.
func passed(d *storage.Disk, adopt func(*storage.SpillArena)) {
	a := d.NewArena("adopted")
	adopt(a)
}

// flatRunLeak mirrors the flat-run spill writer: one arena backs both the
// payload tuple file and the fixed-width entry file, and both writers'
// Closes are fallible (a final partial page still has to flush).
// Releasing inline after both closes leaks both run files when either
// flush fails.
func flatRunLeak(d *storage.Disk, closePayload, closeEntries func() error) error {
	a := d.NewArenaTapped("flat-run", nil) // want `arena Release is not deferred`
	if err := closePayload(); err != nil {
		return err
	}
	if err := closeEntries(); err != nil {
		return err // payload AND entry files stay on disk
	}
	a.Release()
	return nil
}

// flatRunFixed is the accepted shape of the same writer: the deferred,
// flag-guarded Release covers every early return across both files, and
// ownership moves to the run set only once both closes succeed.
func flatRunFixed(d *storage.Disk, closePayload, closeEntries func() error, adopt func(*storage.SpillArena)) error {
	a := d.NewArenaTapped("flat-run", nil)
	owned := true
	defer func() {
		if owned {
			a.Release()
		}
	}()
	if err := closePayload(); err != nil {
		return err
	}
	if err := closeEntries(); err != nil {
		return err
	}
	owned = false
	adopt(a)
	return nil
}

// truncatedRunLeak mirrors a limit-bounded spill writer: a run is cut at
// keep rows, so the write loop has an early exit that is not an error. With
// the only Release after the loop, the failure inside it — the run's
// remaining input is simply abandoned — leaves the arena and its part-written
// run behind.
func truncatedRunLeak(d *storage.Disk, keep int, next func() (bool, error)) error {
	a := d.NewArenaTapped("cut-run", nil) // want `arena Release is not deferred`
	for n := 0; n < keep; n++ {
		more, err := next()
		if err != nil {
			return err // the cut run and its arena are still live here
		}
		if !more {
			break
		}
	}
	a.Release()
	return nil
}

// truncatedRunFixed is the accepted shape: the deferred, flag-guarded
// Release covers the failure as well as both ways out of the loop — input
// exhausted, or keep rows written — and the cut run changes hands only once
// it is complete.
func truncatedRunFixed(d *storage.Disk, keep int, next func() (bool, error), adopt func(*storage.SpillArena)) error {
	a := d.NewArenaTapped("cut-run", nil)
	owned := true
	defer func() {
		if owned {
			a.Release()
		}
	}()
	for n := 0; n < keep; n++ {
		more, err := next()
		if err != nil {
			return err
		}
		if !more {
			break
		}
	}
	owned = false
	adopt(a)
	return nil
}
