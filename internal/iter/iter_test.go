package iter

import (
	"errors"
	"testing"

	"pyro/internal/types"
)

// faultIterator fails on demand at each contract point.
type faultIterator struct {
	openErr  error
	nextErr  error
	closeErr error
	tuples   []types.Tuple
	pos      int
	closed   int
}

func (f *faultIterator) Open() error { return f.openErr }

func (f *faultIterator) NextChunk(c *types.Chunk) error {
	c.Reset()
	if f.pos >= len(f.tuples) {
		return f.nextErr
	}
	c.AppendRow(f.tuples[f.pos])
	f.pos++
	return nil
}

func (f *faultIterator) Close() error {
	f.closed++
	return f.closeErr
}

func TestDrainJoinsNextAndCloseErrors(t *testing.T) {
	nextErr := errors.New("next failed")
	closeErr := errors.New("close failed")
	it := &faultIterator{nextErr: nextErr, closeErr: closeErr,
		tuples: []types.Tuple{types.NewTuple(types.NewInt(1))}}
	_, err := Drain(it, 1)
	if !errors.Is(err, nextErr) {
		t.Fatalf("Drain error %v does not wrap the Next error", err)
	}
	if !errors.Is(err, closeErr) {
		t.Fatalf("Drain error %v lost the Close error", err)
	}
	if it.closed != 1 {
		t.Fatalf("Close called %d times, want 1", it.closed)
	}
}

func TestDrainPreservesErrorIdentityOnCleanClose(t *testing.T) {
	nextErr := errors.New("next failed")
	it := &faultIterator{nextErr: nextErr}
	if _, err := Drain(it, 1); err != nextErr {
		t.Fatalf("Drain returned %v, want the untouched Next error", err)
	}
	closeErr := errors.New("close failed")
	it2 := &faultIterator{closeErr: closeErr}
	if _, err := Drain(it2, 1); err != closeErr {
		t.Fatalf("Drain returned %v, want the untouched Close error", err)
	}
}

func TestDrainJoinsOpenAndCloseErrors(t *testing.T) {
	openErr := errors.New("open failed")
	closeErr := errors.New("close failed")
	it := &faultIterator{openErr: openErr, closeErr: closeErr}
	_, err := Drain(it, 1)
	if !errors.Is(err, openErr) || !errors.Is(err, closeErr) {
		t.Fatalf("Drain error %v should wrap both the Open and Close errors", err)
	}
}

func TestDrainHappyPath(t *testing.T) {
	in := []types.Tuple{types.NewTuple(types.NewInt(1)), types.NewTuple(types.NewInt(2))}
	out, err := Drain(FromSlice(in), 1)
	if err != nil || len(out) != 2 {
		t.Fatalf("Drain = %d tuples, err %v", len(out), err)
	}
}

func TestGuardPollsAtStride(t *testing.T) {
	polls := 0
	var poisoned error
	g := NewGuard(func() error { polls++; return poisoned })
	// First call polls, the next stride-1 calls don't.
	for i := 0; i < guardStride; i++ {
		if err := g.Check(); err != nil {
			t.Fatal(err)
		}
	}
	if polls != 1 {
		t.Fatalf("%d polls over one stride, want 1", polls)
	}
	// Poison the poll: the error must surface within one stride of checks.
	poisoned = errors.New("canceled")
	var got error
	for i := 0; i < guardStride; i++ {
		if got = g.Check(); got != nil {
			break
		}
	}
	if got != poisoned {
		t.Fatalf("guard returned %v, want the poll error within one stride", got)
	}
}

func TestGuardNilPollNeverAborts(t *testing.T) {
	var g Guard
	for i := 0; i < 3*guardStride; i++ {
		if err := g.Check(); err != nil {
			t.Fatalf("zero Guard aborted: %v", err)
		}
	}
}
