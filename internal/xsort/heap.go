package xsort

// runHeap is the replacement-selection heap: a binary min-heap over
// (run, key) of the rows buffered in a rowStore — over (run, key, arrival)
// when the store numbers its rows, so that rows with equal keys leave in the
// order they came. The heap order is a permutation of entry handles — every
// sift moves one 4-byte handle, and the entries (which hold the key prefixes
// and arrival numbers the comparisons read) stay where they are. That handle
// array, 4 bytes a row, is the one part of replacement selection's memory
// outside the store's blocks; it is drawn from a pool (permScratch) and goes
// back to it when the segment's run formation ends (release).
//
// A row's run rides in its entry's flag byte as one parity bit: the heap
// only ever holds rows of the current run and of the next, so parity tells
// them apart, and rows of the current run sort first. Key comparisons are
// counted into *comparisons; run comparisons are not (they are bit checks,
// not the multi-attribute comparisons the paper's analysis counts).
//
// pop sifts bottom-up (Floyd): the hole the least row leaves walks down to a
// leaf along the smaller child, one comparison a level, and the last row
// climbs back from there the few levels it usually has to — where a textbook
// sift-down spends two comparisons a level.
type runHeap struct {
	st          *rowStore
	buf         *[]uint32 // the pooled array heap lives in
	heap        []uint32  // heap order: entry handles into st
	ky          *keyer
	comparisons *int64
	current     byte // flagRun parity of the run being written
}

// newRunHeap starts replacement selection over the sorted fill of st, order,
// a permutation of its handles in a pooled array (permScratch): a sorted
// array is a valid binary min-heap, so adopting it takes no comparison.
func newRunHeap(st *rowStore, ky *keyer, order *[]uint32, comparisons *int64) *runHeap {
	return &runHeap{st: st, buf: order, heap: *order, ky: ky, comparisons: comparisons}
}

// release hands the heap's array back to the pool; the heap must not be used
// again.
func (h *runHeap) release() {
	if h != nil && h.buf != nil {
		*h.buf = h.heap[:0]
		permScratch.Put(h.buf)
		h.buf, h.heap = nil, nil
	}
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

// less orders two entries: run first, then key (compareEntries), then, in a
// numbered store, arrival.
func (h *runHeap) less(a, b []byte) bool {
	if ra, rb := a[h.st.width]&flagRun, b[h.st.width]&flagRun; ra != rb {
		return ra == h.current
	}
	*h.comparisons++
	if c := h.ky.compareEntries(h.st, a, b, 0); c != 0 || !h.st.numbered {
		return c < 0
	}
	return h.st.arrivedBefore(a, b)
}

// push adds the entry with handle e (already in the store).
func (h *runHeap) push(e uint32) {
	h.heap = append(h.heap, e)
	h.siftUp(len(h.heap)-1, e)
}

// pop removes and returns the minimum entry's handle. The entry and its row
// stay in the store until the caller frees them.
func (h *runHeap) pop() uint32 {
	top := h.heap[0]
	last := len(h.heap) - 1
	moving := h.heap[last]
	h.heap = h.heap[:last]
	if last > 0 {
		h.siftDown(moving)
	}
	return top
}

// siftDown places e at the root, which is a hole: the hole walks down to a
// leaf along the smaller child, and e climbs back from there.
func (h *runHeap) siftDown(e uint32) {
	i, n := 0, len(h.heap)
	for c := 1; c < n; c = 2*i + 1 {
		if r := c + 1; r < n && h.less(h.st.entry(h.heap[r]), h.st.entry(h.heap[c])) {
			c = r
		}
		h.heap[i] = h.heap[c]
		i = c
	}
	h.siftUp(i, e)
}

// siftUp places e, whose slot is the hole at i, at or above i. The moving
// entry is held across levels instead of being looked up again at each.
func (h *runHeap) siftUp(i int, e uint32) {
	moving := h.st.entry(e)
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(moving, h.st.entry(h.heap[parent])) {
			break
		}
		h.heap[i] = h.heap[parent]
		i = parent
	}
	h.heap[i] = e
}
