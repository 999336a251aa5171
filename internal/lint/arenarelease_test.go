package lint

import "testing"

// TestArenaRelease drives the analyzer over the fixture package, which
// includes a reconstruction of the PR 8 MRS adopt leak (inline-only
// Release with a fallible call in between) and the flat-run writer shape
// (one arena backing a payload file and an entry file, with a fallible
// entry-writer Close between creation and Release) and the limit-bounded
// writer (a run cut at k rows: a write loop with a non-error early exit)
// alongside the accepted shapes: plain defer, defer guarded by an ownership
// flag, and every form of ownership transfer. The second fixture package is
// the analyzer's other resource kind, a sort's row store: a block list
// dropped on a flush's error path, and one never given back at all.
func TestArenaRelease(t *testing.T) {
	res := runFixture(t, []*Analyzer{ArenaRelease}, "./arena", "./stores/internal/xsort")
	if want := 9; len(res.Diagnostics) != want {
		t.Errorf("got %d diagnostics, want %d", len(res.Diagnostics), want)
	}
}
