package xsort

import (
	"errors"
	"math/rand"
	"testing"

	"pyro/internal/iter"
	"pyro/internal/sortord"
)

// abortAfter returns a poll that starts failing with errCanceled after n
// invocations — a deterministic stand-in for a context cancelled
// mid-query. Only the consumer goroutine polls it.
var errCanceled = errors.New("query canceled")

func abortAfter(n int) func() error {
	polls := 0
	return func() error {
		if polls++; polls > n {
			return errCanceled
		}
		return nil
	}
}

// TestSRSAbortInterruptsOpen: the full sort blocks for its whole input on
// its first NextChunk (Open reads one lookahead row); an abort firing partway
// through must surface from that NextChunk, and Close must leave no spill
// file or block of sort memory behind.
func TestSRSAbortInterruptsOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rows := shuffled(genRows(20_000, 10, rng), rng)
	cfg, d := smallCfg(t, 4) // tiny memory: the abort lands in the spill loop
	s, err := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), sortord.Empty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Bind(iter.Binding{Abort: abortAfter(3)})
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := pull1(s); !errors.Is(err, errCanceled) {
		t.Fatalf("the first NextChunk returned %v, want the abort error", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if names := d.FileNames(); len(names) != 0 {
		t.Fatalf("aborted SRS leaked files: %v", names)
	}
	if n := d.LiveBlocks(); n != 0 {
		t.Fatalf("aborted SRS kept %d blocks of sort memory", n)
	}
}

// TestMRSAbortInterruptsCollect: the abort must reach MRS's demand-driven
// segment collection, surfacing from Next, after which Close releases every
// arena of the partially collected state.
func TestMRSAbortInterruptsCollect(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	rows := genRows(20_000, 2, rng) // two oversized segments
	cfg, d := smallCfg(t, 4)
	cfg.Parallelism = 1
	m, err := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), sortord.New("c1"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Bind(iter.Binding{Abort: abortAfter(3)})
	if err := m.Open(); err != nil {
		t.Fatal(err) // MRS Open reads one lookahead tuple; abort lands later
	}
	var sawErr error
	for i := 0; i < 30_000; i++ {
		ok, err := pull1(m)
		if err != nil {
			sawErr = err
			break
		}
		if !ok {
			break
		}
	}
	if !errors.Is(sawErr, errCanceled) {
		t.Fatalf("Next returned %v, want the abort error", sawErr)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if names := d.FileNames(); len(names) != 0 {
		t.Fatalf("aborted MRS leaked files: %v", names)
	}
	if n := d.LiveBlocks(); n != 0 {
		t.Fatalf("aborted MRS kept %d blocks of sort memory", n)
	}
}

// TestMRSAbortWithParallelSpill: with the segment pool on, an abort firing
// while oversized segments spill — the emitting one and the one read ahead —
// must still surface and release cleanly (race-gated by `make race`).
func TestMRSAbortWithParallelSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	rows := genRows(20_000, 2, rng)
	cfg, d := smallCfg(t, 4)
	cfg.Parallelism = 2
	m, err := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), sortord.New("c1"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Bind(iter.Binding{Abort: abortAfter(10)})
	if err := m.Open(); err != nil {
		t.Fatal(err)
	}
	var sawErr error
	for i := 0; i < 30_000; i++ {
		ok, err := pull1(m)
		if err != nil {
			sawErr = err
			break
		}
		if !ok {
			break
		}
	}
	if !errors.Is(sawErr, errCanceled) {
		t.Fatalf("Next returned %v, want the abort error", sawErr)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if names := d.FileNames(); len(names) != 0 {
		t.Fatalf("aborted MRS leaked files: %v", names)
	}
	if n := d.LiveBlocks(); n != 0 {
		t.Fatalf("aborted MRS kept %d blocks of sort memory", n)
	}
}

// TestMRSLimitAbortReleasesEverything: the bounded sort's own exits — the
// in-memory selection (k fits) and the truncated-run spill with its cut
// reduction merges (k does not fit) — are reached by the abort like any other
// loop, at every poll position, and leave no file, arena or block of sort memory behind.
func TestMRSLimitAbortReleasesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	rows := genRows(6000, 2, rng)
	for _, tc := range []struct {
		name  string
		limit int64
	}{{"fits", 10}, {"spills", 400}} {
		for _, par := range []int{1, 2} {
			aborted := 0
			for polls := 1; polls <= 40; polls += 3 {
				cfg, d := smallCfg(t, 4)
				cfg.Parallelism = par
				cfg.Limit = tc.limit
				m, err := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), sortord.New("c1"), cfg)
				if err != nil {
					t.Fatal(err)
				}
				m.Bind(iter.Binding{Abort: abortAfter(polls)})
				// A late enough abort never fires: the bounded sort is done first.
				if _, err = drain(m); err != nil {
					if !errors.Is(err, errCanceled) {
						t.Fatalf("%s par=%d polls=%d: drain returned %v, want the abort error", tc.name, par, polls, err)
					}
					aborted++
				}
				if names := d.FileNames(); len(names) != 0 {
					t.Fatalf("%s par=%d polls=%d: aborted bounded MRS leaked files: %v", tc.name, par, polls, names)
				}
				if n := d.LiveBlocks(); n != 0 {
					t.Fatalf("%s par=%d polls=%d: aborted bounded MRS kept %d blocks of sort memory", tc.name, par, polls, n)
				}
			}
			if aborted == 0 {
				t.Fatalf("%s par=%d: no abort position was reached", tc.name, par)
			}
		}
	}
}

// TestNilAbortSortsNormally pins that an unbound sort (no Bind, so no abort)
// sorts as usual.
func TestNilAbortSortsNormally(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	rows := shuffled(genRows(500, 10, rng), rng)
	cfg, _ := smallCfg(t, 1000)
	s, err := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), sortord.Empty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := drain(s)
	if err != nil || len(out) != len(rows) {
		t.Fatalf("drain: %d rows, err %v", len(out), err)
	}
}
