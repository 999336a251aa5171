package xsort

import (
	"bytes"
	"fmt"

	"pyro/internal/iter"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// A spilled run is one file of encoded rows — the bytes the store held, page
// after page, in sorted order. There is no second file and no per-run key
// material: whoever reads a run back keys each row again from its bytes.

// runWriter streams one sorted run into ns, the caller's spill arena.
// Streaming matters: replacement selection and merge outputs don't know a
// run's length up front. On error the caller abandons the writer or
// releases the whole arena.
type runWriter struct {
	ns   storage.TempSpace
	file *storage.File
	w    *storage.TupleWriter
}

// runPrefix names every run file; the arena a run lives in already keeps
// one sort's runs apart from another's.
const runPrefix = "mrs"

func newRunWriter(ns storage.TempSpace) *runWriter {
	f := ns.CreateTemp(runPrefix, storage.KindRun)
	return &runWriter{ns: ns, file: f, w: storage.NewTupleWriter(f)}
}

// write appends one encoded row as it is: a spill is a copy.
func (w *runWriter) write(row []byte) error { return w.w.WriteRaw(row) }

// close finishes the run. On error its file is already removed.
func (w *runWriter) close() (*storage.File, error) {
	if err := w.w.Close(); err != nil {
		w.abandon()
		return nil, err
	}
	return w.file, nil
}

// abandon removes the partially written run.
func (w *runWriter) abandon() { w.ns.Remove(w.file.Name()) }

// writeRun writes the rows of st, in emission order, as one run in ns.
func writeRun(ns storage.TempSpace, st *rowStore, order []uint32) (*storage.File, error) {
	w := newRunWriter(ns)
	for _, h := range order {
		if err := w.write(st.rowBytes(st.entry(h))); err != nil {
			w.abandon()
			return nil, err
		}
	}
	return w.close()
}

// mergeInput is one sorted input of a merge: a run file's reader
// (storage.TupleReader), or a spilled segment's kept tail (tailRun). NextRaw
// returns the next encoded row, a view valid until the following call;
// Buffered reports whether it can do so without reading a page.
type mergeInput interface {
	NextRaw() ([]byte, bool, error)
	Buffered() bool
}

// tailRun is a spilled segment's kept tail as a merge input: the rows its
// store still holds at input end, their entries laid out in sorted order
// (MRS.keepTail). The rows are already in memory, so it is always Buffered
// and its reads are no transfers; its spans are store rows, valid until the
// store is released.
type tailRun struct {
	st   *rowStore
	next int // entries handed out
}

func (t *tailRun) NextRaw() ([]byte, bool, error) {
	if t.next == t.st.len() {
		return nil, false, nil
	}
	row := t.st.rowBytes(t.st.entry(t.st.handle(t.next)))
	t.next++
	return row, true, nil
}

func (t *tailRun) Buffered() bool { return true }

// readers opens a merge input on each run.
func readers(runs []*storage.File) []mergeInput {
	in := make([]mergeInput, len(runs))
	for i, f := range runs {
		in[i] = storage.NewTupleReader(f)
	}
	return in
}

// mergeCursor is one input of a multiway merge and its head row, still
// encoded — a view of the reader's current page or of the tail's store —
// with the sort key re-derived from those bytes into the cursor's own buffer
// (one encode per row read buys log(fan-in) byte comparisons in the heap).
type mergeCursor struct {
	r   mergeInput
	ord int // the input's place in the run list: full-key ties go to the earlier run
	row []byte
	key []byte
}

// runMerger merges sorted inputs — runs, and a spilled segment's kept tail
// in its place among them — into one sorted stream of encoded rows with a
// binary heap of cursors; comparisons are counted. Heads are compared on their
// keys past the keyer's skip — a spilled segment's runs all share the
// encoded bytes of the segment's `given` prefix — and rows that tie on the
// whole key come out in run order. Runs are formed in arrival order by stable
// sorts and every reduction keeps merged outputs in their groups' place
// (reductionPass), so that tie-break is what makes the sort stable and its
// output bytes independent of the reduction schedule.
type runMerger struct {
	cursors     []*mergeCursor
	ky          *keyer
	comparisons *int64
	taken       bool // the top cursor's head has been handed out: advance it first
}

func newRunMerger(inputs []mergeInput, ky *keyer, comparisons *int64) (*runMerger, error) {
	m := &runMerger{ky: ky, comparisons: comparisons}
	for ord, in := range inputs {
		c := &mergeCursor{r: in, ord: ord}
		ok, err := m.load(c)
		if err != nil {
			return nil, err
		}
		if ok { // else an empty run
			m.cursors = append(m.cursors, c)
		}
	}
	for i := len(m.cursors)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

// load reads c's next row and keys it; false at the end of the run.
func (m *runMerger) load(c *mergeCursor) (bool, error) {
	row, ok, err := c.r.NextRaw()
	if err != nil || !ok {
		return false, err
	}
	c.row = row
	if c.key, err = m.ky.codec.AppendEncoded(c.key[:0], row); err != nil {
		return false, fmt.Errorf("xsort: keying a run row: %w", err)
	}
	return true, nil
}

func (m *runMerger) less(i, j int) bool {
	*m.comparisons++
	a, b := m.cursors[i], m.cursors[j]
	if c := bytes.Compare(a.key[m.ky.skip:], b.key[m.ky.skip:]); c != 0 {
		return c < 0
	}
	return a.ord < b.ord
}

func (m *runMerger) siftDown(i int) {
	n := len(m.cursors)
	//pyro:bounded(heap sift descends one level per iteration: at most log2(fan-in) steps)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && m.less(l, smallest) {
			smallest = l
		}
		if r < n && m.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		m.cursors[i], m.cursors[smallest] = m.cursors[smallest], m.cursors[i]
		i = smallest
	}
}

// next returns the smallest head row among all cursors, encoded. The bytes
// are a view of a run page, valid until the following call: the cursor that
// served them is advanced only then, so a merge cut short — a bounded sort's
// keep — reads nothing past its last row.
func (m *runMerger) next() ([]byte, bool, error) {
	if m.taken {
		m.taken = false
		ok, err := m.load(m.cursors[0])
		if err != nil {
			return nil, false, err
		}
		if !ok {
			last := len(m.cursors) - 1
			m.cursors[0] = m.cursors[last]
			m.cursors = m.cursors[:last]
		}
		m.siftDown(0)
	}
	if len(m.cursors) == 0 {
		return nil, false, nil
	}
	m.taken = true
	return m.cursors[0].row, true, nil
}

// fill appends the merge's next rows to c, at most limit of them, as spans
// over the run pages they sit on, and returns how many it appended. Once c
// holds a row it stops before any row whose load would read a new run page:
// the chunk does only the I/O its first row needs, and every span in it stays
// on its cursor's current page — valid until the next call reads past it. A
// kept tail never reads a page, so its rows never end a chunk.
func (m *runMerger) fill(c *types.Chunk, limit int64) (int64, error) {
	var n int64
	for ; n < limit && !c.Full(); n++ {
		if c.Rows() > 0 && m.taken && !m.cursors[0].r.Buffered() {
			break
		}
		row, ok, err := m.next()
		if err != nil || !ok {
			return n, err
		}
		if err := appendEncoded(c, row); err != nil {
			return n, err
		}
	}
	return n, nil
}

// mergeGroup merges a group of runs into one fresh run in ns, removing the
// consumed inputs on success, and counts its comparisons and the runs it
// consumed into stats. abort (the query's, see MRS.Bind) is polled per
// merged row at the guard stride.
//
// keep bounds the output: a limit-bounded sort (Config.Limit) will never
// read past the first keep rows of the merged order, so the merge stops
// there — the rest of its inputs is neither read nor rewritten — and the
// inputs are removed all the same. noLimit merges everything.
//
// The merge moves bytes, not tuples: the winning row is copied from its input
// page to the output page undecoded. A spilled row is decoded once — by the
// final merge, as it is emitted — no matter how many passes rewrite its run.
func mergeGroup(abort func() error, ns storage.TempSpace, group []*storage.File, ky *keyer, keep int64, stats *SortStats) (*storage.File, error) {
	guard := iter.NewGuard(abort)
	stats.RunsMerged += len(group)
	w := newRunWriter(ns)
	fail := func(err error) (*storage.File, error) {
		w.abandon()
		return nil, err
	}
	m, err := newRunMerger(readers(group), ky, &stats.Comparisons)
	if err != nil {
		return fail(err)
	}
	for n := int64(0); n < keep; n++ {
		if err := guard.Check(); err != nil {
			return fail(err)
		}
		row, ok, err := m.next()
		if err != nil {
			return fail(err)
		}
		if !ok {
			break
		}
		if err := w.write(row); err != nil {
			return fail(err)
		}
	}
	merged, err := w.close() // on error close has removed the partial output
	if err != nil {
		return nil, err
	}
	for _, g := range group {
		ns.Remove(g.Name())
	}
	return merged, nil
}

// reduceRuns merges runs until at most fanIn remain, so the final merge can
// proceed with one input buffer per run, one reducePass at a time.
func reduceRuns(fanIn int, abort func() error, ns storage.TempSpace, runs []*storage.File, ky *keyer, keep int64, stats *SortStats) ([]*storage.File, error) {
	for len(runs) > fanIn {
		var err error
		if runs, err = reducePass(fanIn, abort, ns, runs, ky, keep, stats); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// reducePass runs one intermediate merge pass over runs (more than fanIn of
// them) as reductionPass plans it — it rewrites only the runs the final merge
// cannot take as they are — and increments stats.MergePasses; consumed run
// files are removed from ns, untouched runs keep their place behind the
// merged ones. Every merged output is cut at keep rows (see mergeGroup).
func reducePass(fanIn int, abort func() error, ns storage.TempSpace, runs []*storage.File, ky *keyer, keep int64, stats *SortStats) ([]*storage.File, error) {
	stats.MergePasses++
	groups := reductionPass(len(runs), fanIn)
	outs := make([]*storage.File, len(groups))
	for g, grp := range groups {
		var err error
		if outs[g], err = mergeGroup(abort, ns, runs[grp.lo:grp.hi], ky, keep, stats); err != nil {
			return nil, err
		}
	}
	return append(outs, runs[groups[len(groups)-1].hi:]...), nil
}

// runGroup is a half-open range of consecutive runs that one merge consumes.
type runGroup struct{ lo, hi int }

// reductionPass plans one run-reduction pass over n > fanIn runs: the groups
// to merge into one run apiece. Groups are consecutive, disjoint, 2..fanIn
// wide and together cover a prefix of the run list; every run behind the
// last group passes through untouched. Merged outputs take their groups'
// place, so the run list stays in formation order — which is what lets the
// merge's run-ordinal tie-break keep full-key ties in input order whatever
// the schedule.
//
// When one pass can leave exactly F = fanIn runs (n ≤ F²) it merges only
// what that takes: m = ⌈(n−F)/(F−1)⌉ groups, each removing width−1 runs —
// the first k0 = (n−F) − (m−1)(F−1) + 1 wide to absorb the remainder, the
// rest full F-way — so k0 + (m−1)F runs are rewritten and the others reach
// the final merge as formed. Beyond F² runs no single pass suffices; the pass
// then merges everything F at a time (a trailing lone run passes through) and
// the caller re-plans over the ⌈n/F⌉ survivors.
func reductionPass(n, fanIn int) []runGroup {
	m, first := passShape(n, fanIn)
	groups := make([]runGroup, 0, m)
	lo, hi := 0, first
	for g := 0; g < m; g++ {
		if hi > n {
			hi = n
		}
		if hi-lo >= 2 {
			groups = append(groups, runGroup{lo, hi})
		}
		lo, hi = hi, hi+fanIn
	}
	return groups
}

// passShape is reductionPass's schedule without the groups: m groups, the
// first first runs wide and the rest fanIn, the last clipped at n and dropped
// if that leaves it a lone run. PlanSpill walks it over runs it counts rather
// than lists.
func passShape(n, fanIn int) (m, first int) {
	m, first = (n+fanIn-1)/fanIn, fanIn // full pass: everything, F at a time
	if m <= fanIn {                     // n ≤ F²: one partial pass reaches F
		excess := n - fanIn
		m = (excess + fanIn - 2) / (fanIn - 1)
		first = excess - (m-1)*(fanIn-1) + 1
	}
	return m, first
}
