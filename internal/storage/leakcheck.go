package storage

// TB is the slice of testing.TB the leak check needs; taking an interface
// keeps the testing package out of the production build.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// AssertNoLeaks fails the test if the disk holds any live temporary file,
// unreleased spill arena, unreturned block of sort memory or temp-file page
// not handed back to the block pool. Every query — successful, cancelled, failed by an
// injected fault, or panicked — must leave the device in this state, so
// end-to-end tests call it after draining their cursors.
func AssertNoLeaks(t TB, d *Disk) {
	t.Helper()
	if files := d.LiveTempFiles(); len(files) > 0 {
		t.Errorf("storage: leaked temp files: %v", files)
	}
	if n := d.LiveArenas(); n > 0 {
		t.Errorf("storage: %d unreleased spill arenas", n)
	}
	if n := d.LiveBlocks(); n != 0 {
		t.Errorf("storage: %d pages of sort memory not returned", n)
	}
	if n := d.tempPages.Load(); n != 0 {
		t.Errorf("storage: %d temp-file pages not returned to the block pool", n)
	}
}
