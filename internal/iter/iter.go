// Package iter defines the demand-driven pull contract shared by the
// execution engine and the external sort operators — a stream of row
// chunks — plus what one query hands its operators at run time: a Binding
// (abort poll, I/O tap, live memory budget), whose abort a Guard polls at a
// bounded stride so per-tuple loops deep inside a sort can honor a context
// cancellation without paying a function call per tuple.
package iter

import (
	"errors"

	"pyro/internal/storage"
	"pyro/internal/types"
)

// Iterator is a demand-driven stream of rows served a chunk at a time. The
// contract is:
//
//	Open      — acquire resources; must be called exactly once before NextChunk.
//	NextChunk — overwrite c with the next rows, at most c.Cap() of them and
//	            possibly with a selection vector installed; c.Rows() == 0
//	            signals exhaustion (and stays so on further calls). The rows
//	            are valid only until the next call.
//	Close     — release resources; safe to call once after Open, even mid-stream.
//
// A NextChunk does only the work its first row needs plus free work —
// decoding rows co-resident on a page it already read, copying rows already
// in memory — so a consumer that stops mid-stream has done the I/O a
// consumer asking for one row at a time would have done at the same row.
type Iterator interface {
	Open() error
	NextChunk(c *types.Chunk) error
	Close() error
}

// SliceIterator adapts an in-memory tuple slice to the Iterator contract.
// It is used by tests and tools that feed a sort literal rows.
type SliceIterator struct {
	Tuples []types.Tuple
	pos    int
}

// FromSlice returns an iterator over the given tuples.
func FromSlice(tuples []types.Tuple) *SliceIterator {
	return &SliceIterator{Tuples: tuples}
}

// Open resets the iterator to the first tuple.
func (s *SliceIterator) Open() error {
	s.pos = 0
	return nil
}

// NextChunk copies the next buffered tuples into c, up to its capacity.
func (s *SliceIterator) NextChunk(c *types.Chunk) error {
	c.Reset()
	for ; s.pos < len(s.Tuples) && !c.Full(); s.pos++ {
		c.AppendRow(s.Tuples[s.pos])
	}
	return nil
}

// Close is a no-op.
func (s *SliceIterator) Close() error { return nil }

// Drain opens it, pulls every row as an owned tuple of ncols datums, closes
// it, and returns the tuples. Close is called on every path, including
// failed Opens, so operators can rely on it for resource cleanup. When both
// a pull and the subsequent Close fail, the errors are joined — a Close
// failure (a leaked resource, a poisoned spill arena) must not vanish behind
// the pull error that triggered the cleanup; when only one side fails that
// error is returned unwrapped.
func Drain(it Iterator, ncols int) ([]types.Tuple, error) {
	if err := it.Open(); err != nil {
		return nil, closeAfter(it, err)
	}
	c := types.GetChunk(ncols, types.DefaultChunkCapacity)
	defer types.PutChunk(c)
	var out []types.Tuple
	for {
		if err := it.NextChunk(c); err != nil {
			return nil, closeAfter(it, err)
		}
		if c.Rows() == 0 {
			break
		}
		for i := 0; i < c.Rows(); i++ {
			out = append(out, c.OwnedRow(i))
		}
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// closeAfter closes the iterator after err already failed the drain,
// joining the two errors when Close fails too. The common clean-Close case
// returns err unchanged (not re-wrapped), so callers comparing sentinel
// errors by identity keep working.
func closeAfter(it Iterator, err error) error {
	if cerr := it.Close(); cerr != nil {
		return errors.Join(err, cerr)
	}
	return err
}

// Binding is one query's run-time state, handed to its operator tree in one
// walk (exec.Bind) before Open. The zero Binding is an unbound tree: nothing
// aborts, nothing is tapped, every buffer holds its static budget.
type Binding struct {
	// Abort, when non-nil, is polled through a Guard by every loop that can
	// outlive one NextChunk — a filter rejecting every row, a hash build, a
	// spool, a sort collecting a segment, a merge — and its first error
	// aborts the operator. The cursor supplies its context's Err. Must be
	// safe for concurrent use.
	Abort func() error
	// Tap, when non-nil, receives a copy of every I/O charge the plan
	// causes — scans, deferred fetches, nested-loops spools, sort spill
	// arenas — beside the device ledger, so concurrent queries on one disk
	// get exact, disjoint attribution.
	Tap *storage.Tap
	// Budget, when non-nil, is the query's live memory allowance (its
	// governor grant), read by MemoryBlocks.
	Budget Budget
}

// Budget is a live memory allowance in disk blocks. Its holders re-read it
// at every buffering decision, so a governor can shrink a running query's
// memory and its buffers obey the new bound from then on. Implementations
// must be safe for concurrent use: the governor changes it from another
// goroutine while operators read it.
type Budget interface {
	// Blocks returns the current allowance in disk blocks.
	Blocks() int
}

// MemoryBlocks is what an operator built with static blocks of memory may
// hold right now: the live budget when it is positive and smaller, static
// otherwise. A sort's row store and a nested-loops join's outer block both
// size themselves from it, so one grant bounds both.
func (b Binding) MemoryBlocks(static int) int {
	if b.Budget != nil {
		if n := b.Budget.Blocks(); n > 0 && n < static {
			return n
		}
	}
	return static
}

// Guard polls an abort function at a bounded stride. Long-running
// per-tuple loops — a sort collecting a segment or forming runs by
// replacement selection, a run-reduction merge — call Check once per tuple;
// every stride-th call actually polls, so a context cancellation reaches
// the loop within a bounded amount of work at negligible per-tuple cost.
//
// A Guard with a nil poll function never aborts. The zero Guard is ready
// to use. Guards are not safe for concurrent use; concurrent workers each
// take their own Guard over the same (concurrency-safe) poll function.
type Guard struct {
	poll func() error
	n    uint32
}

// guardStride is how many Check calls one poll covers. Small enough that a
// cancellation lands promptly even in tuple-at-a-time loops, large enough
// that polling never shows up in a sort profile.
const guardStride = 256

// NewGuard returns a guard over poll (nil means never abort).
func NewGuard(poll func() error) Guard { return Guard{poll: poll} }

// Check returns poll's error on the first and every stride-th call, nil
// otherwise.
func (g *Guard) Check() error {
	if g.poll == nil {
		return nil
	}
	if g.n != 0 {
		g.n--
		return nil
	}
	g.n = guardStride - 1
	return g.poll()
}
