// Package xsort is a fixture double for the sort package's row store: the
// owner of a list of sort-memory blocks drawn from the disk's pool. It
// exercises the arenarelease analyzer's second resource kind; `want`
// comments pin the expected diagnostics.
package xsort

// rowStore stands in for the block-owning store.
type rowStore struct{ blocks int }

func newRowStore() *rowStore { return &rowStore{} }

func (s *rowStore) add() bool { s.blocks++; return true }

// release returns every block to the pool.
func (s *rowStore) release() { s.blocks = 0 }

// spillLeak reconstructs a flush that forms a run from a batch's store: the
// store goes back inline, after the write, so the write's error return — a
// failed page transfer, ENOSPC — or a panic inside it drops the whole block
// list. The pool never sees the blocks again.
func spillLeak(write func(*int) error) error {
	st := newRowStore() // want `row store release is not deferred`
	st.add()
	n := 0
	if err := write(&n); err != nil {
		return err // the store still holds its blocks here
	}
	st.release()
	return nil
}

// spillFixed is the accepted shape: the deferred release covers the error
// return and the panic alike.
func spillFixed(write func(*int) error) error {
	st := newRowStore()
	defer st.release()
	st.add()
	n := 0
	return write(&n)
}

// handedOff transfers ownership: a flush job takes the whole block list and
// releases it itself.
func handedOff(dispatch func(*rowStore)) {
	st := newRowStore()
	st.add()
	dispatch(st)
}

// collector owns a store across calls; its lifecycle releases it.
type collector struct{ store *rowStore }

// stored transfers ownership into a structure at birth.
func stored(c *collector) {
	c.store = newRowStore()
}

// dropped never gives the blocks back.
func dropped() bool {
	st := newRowStore() // want `row store is never released and never escapes`
	return st.add()
}
