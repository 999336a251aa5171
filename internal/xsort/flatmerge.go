package xsort

import (
	"bytes"
	"fmt"

	"pyro/internal/storage"
	"pyro/internal/types"
)

// merger is the final-merge surface SRS and MRS serve tuples from; the
// layout decides the implementation (runMerger for tuple runs, flatMerger
// for flat entry runs).
type merger interface {
	next() (types.Tuple, bool, error)
}

// openMerger builds the final merge of runs under the sort's layout,
// accumulating work counters directly into st (final merges run on the
// consumer goroutine).
func openMerger(runs []spillRun, ky *keyer, lay entryLayout, st *SortStats) (merger, error) {
	if lay.flat() {
		return newFlatMerger(runs, ky, lay, false, &st.Comparisons, &st.MergeBucketSkips)
	}
	return newRunMerger(payloadFiles(runs), ky, &st.Comparisons)
}

// flatCursor is one input of a flat-run merge: the run's entry reader and
// payload tuple reader advanced in lockstep, plus the head record. prefix is
// copied out of the entry page (an EntryReader slice dies when the reader
// crosses a page); the head's payload is the decoded tuple t in a final
// merge and its still-encoded page bytes raw in an intermediate one; key
// caches the head's re-encoded full key suffix and is populated only if a
// blob tie-break actually consults it.
type flatCursor struct {
	entries *storage.EntryReader
	payload *storage.TupleReader
	ord     int32 // run ordinal — the deterministic full-tie break
	prefix  []byte
	trunc   bool
	t       types.Tuple
	raw     []byte
	key     []byte
}

// flatHead is one merged record as nextEntry hands it out: entry prefix,
// tie flag and the payload in the merger's mode (t or raw, see flatCursor).
// The slices are the merger's own and valid until the following call.
type flatHead struct {
	prefix []byte
	trunc  bool
	t      types.Tuple
	raw    []byte
}

// flatMerger merges flat entry runs. In heap mode (LayoutFlatHeap) it is a
// plain binary min-heap over all cursors, ordered by (prefix bytes, blob,
// run ordinal) — the entry-layout twin of runMerger, kept as the ablation
// baseline.
//
// In radix mode (LayoutFlat, the default) the merge is a radix-aware
// cascade: the merger maintains a base — the byte prefix all live heads
// currently share — and partitions cursors into 256 buckets by the first
// byte past it (the first byte that can actually discriminate; a naive
// leading-byte partition would bucket on the key codec's marker byte,
// which is constant). Only the lowest live bucket's cursors sit in the
// heap; the rest are parked comparison-free until the merge frontier
// reaches their bucket. Because key order is byte order, a parked cursor
// can never hold the global minimum — so heap size tracks the number of
// runs overlapping *at the frontier*, not the fan-in, and a cursor whose
// advanced head leaves the active bucket parks with zero comparisons
// (MergeBucketSkips counts those). A head that moves past the base region
// entirely parks in the far bucket; when every in-base bucket has drained,
// the cascade re-bases over the far cursors' heads — a pure byte scan, no
// key comparisons — and partitioning restarts one region deeper. Runs with
// low overlap at the frontier — replacement-selection output, MRS segment
// batches — merge almost comparison-free.
//
// Both modes break full-key ties by run ordinal, a deterministic total
// order, so their outputs are byte-identical unconditionally; the tuple
// layout's runMerger agrees whenever sort keys are duplicate-free.
//
// Orthogonally to the heap/radix choice, raw fixes what the merge does with
// payloads. A final merge (raw false) decodes every tuple it reads — it is
// about to emit them. An intermediate merge (raw true) compares entries
// only, so it carries each payload as the encoded bytes it read and hands
// them to the output run verbatim; a tuple is decoded only when two
// truncated prefixes tie and the blob has to be re-encoded from it.
type flatMerger struct {
	ky          *keyer // cloned; blob consults re-encode through it
	width       int
	raw         bool
	err         error // first lazy-decode failure of a raw blob consult
	comparisons *int64
	bucketSkips *int64

	heap []*flatCursor

	radix     bool
	base      []byte                     // shared head prefix of the current cascade region
	parked    [buckets + 1][]*flatCursor // by first byte past base; last = past the region
	active    int                        // current bucket; in-base parking below it is impossible
	remaining int                        // live cursors, heap + parked

	out flatHead // nextEntry's result (survives the cursor advance)
}

// buckets is the in-base fan-out of the cascade; parked[buckets] is the far
// bucket (heads past the current base region, re-based when reached).
const buckets = 256

// newFlatMerger opens a merge of flat runs; radix-aware iff lay.mode is
// LayoutFlat, payloads left encoded iff raw.
func newFlatMerger(runs []spillRun, ky *keyer, lay entryLayout, raw bool, comparisons, bucketSkips *int64) (*flatMerger, error) {
	m := &flatMerger{
		ky:          ky.clone(),
		width:       lay.width,
		raw:         raw,
		radix:       lay.mode == LayoutFlat,
		comparisons: comparisons,
		bucketSkips: bucketSkips,
		active:      buckets, // first refill re-bases over all cursors
	}
	for ord, r := range runs {
		c := &flatCursor{
			entries: storage.NewEntryReader(r.entries, lay.size),
			payload: storage.NewTupleReader(r.payload),
			ord:     int32(ord),
			prefix:  make([]byte, lay.width),
		}
		ok, err := m.advance(c)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // empty run
		}
		m.remaining++
		if m.radix {
			m.parked[buckets] = append(m.parked[buckets], c)
		} else {
			m.heap = append(m.heap, c)
		}
	}
	if !m.radix {
		m.heapify()
	}
	return m, nil
}

// bucketOf classifies a head against the current base: its first byte past
// the base when the head still lies in the region, the far bucket once it
// has moved beyond it. Heads only grow, so a head below the base region is
// impossible. When the base spans the whole prefix, every in-region head is
// prefix-equal and shares bucket 0.
func (m *flatMerger) bucketOf(c *flatCursor) int {
	d := len(m.base)
	if !bytes.Equal(c.prefix[:d], m.base) {
		return buckets
	}
	if d == m.width {
		return 0
	}
	return int(c.prefix[d])
}

// rebase starts the next cascade region: the new base is the longest byte
// prefix shared by every far-parked head, and those cursors redistribute
// into its buckets. This is a linear byte scan — like a radix counting
// pass, it performs no key comparisons — and each rebase strictly advances
// the frontier, so rebases are bounded by the merged entry count.
func (m *flatMerger) rebase() {
	members := m.parked[buckets]
	m.parked[buckets] = nil
	d := m.width
	first := members[0].prefix
	for _, c := range members[1:] {
		j := 0
		for j < d && c.prefix[j] == first[j] {
			j++
		}
		d = j
	}
	m.base = append(m.base[:0], first[:d]...)
	for _, c := range members {
		b := m.bucketOf(c)
		m.parked[b] = append(m.parked[b], c)
	}
	m.active = 0
}

// advance reads the cursor's next entry and payload tuple in lockstep; the
// payload page is read at the same moment in either mode.
func (m *flatMerger) advance(c *flatCursor) (bool, error) {
	e, ok, err := c.entries.Next()
	if err != nil {
		return false, err
	}
	var tok bool
	if m.raw {
		c.raw, tok, err = c.payload.NextRaw()
	} else {
		c.t, tok, err = c.payload.Next()
	}
	if err != nil {
		return false, err
	}
	if ok != tok {
		return false, storage.ErrCorruptRun
	}
	if !ok {
		return false, nil
	}
	copy(c.prefix, e)
	c.trunc = e[len(c.prefix)] != 0
	c.key = nil
	return true, nil
}

// blobKey returns the cursor head's full key suffix, re-encoding it from
// the payload tuple on first consult — which, for a raw head, is also the
// one place an intermediate merge decodes a tuple. Truncated prefixes that
// tie are the only callers — by construction a rare case when
// FixedWidthHint covered the key columns.
func (m *flatMerger) blobKey(c *flatCursor) []byte {
	if c.key == nil {
		t := c.t
		if m.raw {
			var err error
			if t, _, err = types.DecodeTuple(c.raw); err != nil {
				// NextRaw framed these bytes with EncodedTupleLen, which
				// FuzzEncodedTupleLen holds to DecodeTuple's verdict, so
				// only a drift between the two lands here; nextEntry
				// surfaces it rather than merging on a missing key.
				if m.err == nil {
					m.err = fmt.Errorf("xsort: decoding a run tuple for its key: %w", err)
				}
				return nil
			}
		}
		c.key = m.ky.wrap(t).key[m.ky.skip:]
	}
	return c.key
}

// less orders two cursor heads: prefix bytes, then the blob if both are
// truncated (a mixed-truncation prefix tie is impossible — see
// keys.Codec.AppendFixed), then run ordinal. One logical comparison is
// counted whether or not the blob is consulted, so comparison totals stay
// deterministic and comparable across layouts.
func (m *flatMerger) less(a, b *flatCursor) bool {
	*m.comparisons++
	if c := bytes.Compare(a.prefix, b.prefix); c != 0 {
		return c < 0
	}
	if a.trunc && b.trunc {
		if c := bytes.Compare(m.blobKey(a), m.blobKey(b)); c != 0 {
			return c < 0
		}
	}
	return a.ord < b.ord
}

func (m *flatMerger) heapify() {
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
}

func (m *flatMerger) siftDown(i int) {
	n := len(m.heap)
	//pyro:bounded(heap sift descends one level per iteration: at most log2(fan-in) steps)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && m.less(m.heap[l], m.heap[smallest]) {
			smallest = l
		}
		if r < n && m.less(m.heap[r], m.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		m.heap[i], m.heap[smallest] = m.heap[smallest], m.heap[i]
		i = smallest
	}
}

// pop removes the heap top.
func (m *flatMerger) pop() {
	last := len(m.heap) - 1
	m.heap[0] = m.heap[last]
	m.heap = m.heap[:last]
	if last > 0 {
		m.siftDown(0)
	}
}

// nextEntry returns the globally smallest head and advances its cursor.
func (m *flatMerger) nextEntry() (flatHead, bool, error) {
	for len(m.heap) == 0 {
		if !m.radix || m.remaining == 0 {
			return flatHead{}, false, nil
		}
		// Activate the lowest parked bucket; heads only grow, so parking
		// below the active bucket is impossible and the scan never moves
		// backwards. When only far-parked cursors remain, cascade into the
		// next base region.
		for m.active < buckets && len(m.parked[m.active]) == 0 {
			m.active++
		}
		if m.active == buckets {
			m.rebase()
			continue
		}
		m.heap = append(m.heap, m.parked[m.active]...)
		m.parked[m.active] = nil
		m.heapify()
	}
	top := m.heap[0]
	m.out.prefix = append(m.out.prefix[:0], top.prefix...)
	m.out.raw = append(m.out.raw[:0], top.raw...)
	m.out.trunc, m.out.t = top.trunc, top.t
	ok, err := m.advance(top)
	if err != nil {
		return flatHead{}, false, err
	}
	switch {
	case !ok:
		m.remaining--
		m.pop()
	case m.radix && m.bucketOf(top) != m.active:
		// The advanced head left the merge frontier's bucket: park it
		// comparison-free until the frontier catches up.
		*m.bucketSkips++
		m.parked[m.bucketOf(top)] = append(m.parked[m.bucketOf(top)], top)
		m.pop()
	default:
		m.siftDown(0)
	}
	if m.err != nil {
		return flatHead{}, false, m.err
	}
	return m.out, true, nil
}

// next serves a final merge as a tuple stream.
func (m *flatMerger) next() (types.Tuple, bool, error) {
	h, ok, err := m.nextEntry()
	return h.t, ok, err
}
