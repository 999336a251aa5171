package xsort

// runHeap is the replacement-selection heap: a binary min-heap over
// (run, key) of the rows buffered in a rowStore. The heap order is a
// permutation of entry handles — every sift swaps one 4-byte handle, and
// the entries (which hold the key prefixes the comparisons read) stay where
// they are. That handle array, 4 bytes a row, is the one part of
// replacement selection's memory outside the store's blocks.
//
// A row's run rides in its entry's flag byte as one parity bit: the heap
// only ever holds rows of the current run and of the next, so parity tells
// them apart, and rows of the current run sort first. Key comparisons are
// counted into *comparisons; run comparisons are not (they are bit checks,
// not the multi-attribute comparisons the paper's analysis counts).
type runHeap struct {
	st          *rowStore
	heap        []uint32 // heap order: entry handles into st
	ky          *keyer
	comparisons *int64
	current     byte // flagRun parity of the run being written
}

func newRunHeap(st *rowStore, ky *keyer, comparisons *int64) *runHeap {
	return &runHeap{st: st, ky: ky, comparisons: comparisons}
}

func (h *runHeap) len() int { return len(h.heap) }

// nextRun makes the rows deferred to the next run the current ones.
func (h *runHeap) nextRun() { h.current ^= flagRun }

// runFlag returns the flag bits of a row entering the heap for the current
// run, or deferred to the next.
func (h *runHeap) runFlag(deferred bool) byte {
	if deferred {
		return h.current ^ flagRun
	}
	return h.current
}

// topDeferred reports whether the minimum belongs to the next run — the
// current one is then exhausted.
func (h *runHeap) topDeferred() bool {
	return h.st.entry(h.heap[0])[h.st.width]&flagRun != h.current
}

// less orders two entries: run first, then key.
func (h *runHeap) less(a, b []byte) bool {
	if ra, rb := a[h.st.width]&flagRun, b[h.st.width]&flagRun; ra != rb {
		return ra == h.current
	}
	*h.comparisons++
	return h.ky.compareEntries(h.st, a, b, 0) < 0
}

// push adds the entry with handle e (already in the store).
func (h *runHeap) push(e uint32) {
	h.heap = append(h.heap, e)
	h.siftUp(len(h.heap) - 1)
}

// pop removes and returns the minimum entry's handle. The entry and its row
// stay in the store until the caller frees them.
func (h *runHeap) pop() uint32 {
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.heap = h.heap[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

// seed adopts a sorted fill without any comparisons: the heap order is the
// ascending permutation the run-formation sort produced — a sorted array is
// a valid binary min-heap, so subsequent push/pop traffic works unchanged.
// Must be called on an empty heap.
func (h *runHeap) seed(order []uint32) {
	h.heap = order
}

// The sifts hold the moving element's entry across levels instead of looking
// it up again at each; the comparisons made, and their order, are those of
// the textbook loops.

func (h *runHeap) siftUp(i int) {
	moving := h.st.entry(h.heap[i])
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(moving, h.st.entry(h.heap[parent])) {
			return
		}
		h.heap[i], h.heap[parent] = h.heap[parent], h.heap[i]
		i = parent
	}
}

func (h *runHeap) siftDown(i int) {
	n := len(h.heap)
	moving := h.st.entry(h.heap[i])
	//pyro:bounded(heap sift descends one level per iteration: at most log2(len(heap)) steps)
	for {
		l, r := 2*i+1, 2*i+2
		smallest, least := i, moving
		if l < n {
			if e := h.st.entry(h.heap[l]); h.less(e, least) {
				smallest, least = l, e
			}
		}
		if r < n {
			if e := h.st.entry(h.heap[r]); h.less(e, least) {
				smallest, least = r, e
			}
		}
		if smallest == i {
			return
		}
		h.heap[i], h.heap[smallest] = h.heap[smallest], h.heap[i]
		i = smallest
	}
}
