package xsort

import (
	"sync"

	"pyro/internal/iter"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// mergeCursor is one input of a multiway merge: a run reader plus its
// lookahead tuple, wrapped with its normalized key (re-encoded on read —
// one encode per tuple buys log(fan-in) cheap byte comparisons in the heap).
// The keyer's skip short-circuits those comparisons past any shared key
// prefix: a spilled MRS segment's runs all share the encoded bytes of the
// segment's `given` prefix, so its merges never re-scan them.
type mergeCursor struct {
	r    *storage.TupleReader
	head keyed
}

// runMerger merges sorted run files into a single sorted stream. It uses a
// loser-free simple binary heap of cursors; comparisons are counted.
type runMerger struct {
	cursors     []*mergeCursor
	ky          *keyer
	comparisons *int64
}

func newRunMerger(runs []*storage.File, ky *keyer, comparisons *int64) (*runMerger, error) {
	m := &runMerger{ky: ky, comparisons: comparisons}
	for _, f := range runs {
		c := &mergeCursor{r: storage.NewTupleReader(f)}
		t, ok, err := c.r.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // empty run
		}
		c.head = ky.wrap(t)
		m.cursors = append(m.cursors, c)
	}
	// Heapify.
	for i := len(m.cursors)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

func (m *runMerger) less(i, j int) bool {
	*m.comparisons++
	return m.ky.compare(m.cursors[i].head, m.cursors[j].head) < 0
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

// next returns the smallest head among all cursors, advancing that cursor.
func (m *runMerger) next() (types.Tuple, bool, error) {
	if len(m.cursors) == 0 {
		return nil, false, nil
	}
	top := m.cursors[0]
	out := top.head.t
	t, ok, err := top.r.Next()
	if err != nil {
		return nil, false, err
	}
	if ok {
		top.head = m.ky.wrap(t)
		m.siftDown(0)
	} else {
		last := len(m.cursors) - 1
		m.cursors[0] = m.cursors[last]
		m.cursors = m.cursors[:last]
		if last > 0 {
			m.siftDown(0)
		}
	}
	return out, true, nil
}

// mergeTally is the work done by one group merge, tallied locally so
// concurrent group merges can publish once and the caller can fold counts
// in deterministic group order.
type mergeTally struct {
	comparisons int64
	bucketSkips int64
	pages       int64 // entry pages written by the merged output run
	runs        int   // input runs the merge consumed
}

func (t mergeTally) addTo(st *SortStats) {
	st.Comparisons += t.comparisons
	st.MergeBucketSkips += t.bucketSkips
	st.FlatRunPages += t.pages
	st.RunsMerged += t.runs
}

// mergeGroup merges a group of runs into one fresh run in ns, removing the
// consumed inputs on success. The work tally is returned rather than
// accumulated so concurrent group merges can tally locally and the caller
// can fold counts in deterministic group order. The keyer is cloned first:
// merging may re-encode keys as tuples come off disk (keyer.wrap mutates
// scratch buffers), and group merges run concurrently. abort (nil = never)
// is polled per merged tuple at the guard stride; it may be shared with
// other concurrent merges, so each call takes its own Guard.
//
// keep bounds the output: a limit-bounded sort (Config.Limit) will never
// read past the first keep rows of the merged order, so the merge stops
// there — the rest of its inputs is neither read nor rewritten — and the
// inputs are removed all the same. noLimit merges everything.
//
// In the flat layouts the merge moves records, not tuples: the output run's
// entries are the winning input entries (prefix and tie flag verbatim, fresh
// row ordinals) and its payload is the winning tuple's encoded bytes, copied
// page to page undecoded. A key is encoded once per sort and a tuple decoded
// once — by the final merge — no matter how many passes rewrite its run.
func mergeGroup(ns storage.TempSpace, prefix string, group []spillRun, ky *keyer, lay entryLayout, keep int64, abort func() error) (spillRun, mergeTally, error) {
	ky = ky.clone()
	guard := iter.NewGuard(abort)
	tally := mergeTally{runs: len(group)}
	w := newRunWriter(ns, prefix, lay)
	fail := func(err error) (spillRun, mergeTally, error) {
		w.abandon()
		return spillRun{}, tally, err
	}
	if lay.flat() {
		m, err := newFlatMerger(group, ky, lay, true, &tally.comparisons, &tally.bucketSkips)
		if err != nil {
			return fail(err)
		}
		for n := int64(0); n < keep; n++ {
			if err := guard.Check(); err != nil {
				return fail(err)
			}
			h, ok, err := m.nextEntry()
			if err != nil {
				return fail(err)
			}
			if !ok {
				break
			}
			if err := w.writeEntry(h.prefix, h.trunc, h.raw); err != nil {
				return fail(err)
			}
		}
	} else {
		m, err := newRunMerger(payloadFiles(group), ky, &tally.comparisons)
		if err != nil {
			return fail(err)
		}
		for n := int64(0); n < keep; n++ {
			if err := guard.Check(); err != nil {
				return fail(err)
			}
			t, ok, err := m.next()
			if err != nil {
				return fail(err)
			}
			if !ok {
				break
			}
			if err := w.writeTuple(t); err != nil {
				return fail(err)
			}
		}
	}
	merged, pages, err := w.close()
	if err != nil {
		// close already removed the partial output.
		return spillRun{}, tally, err
	}
	tally.pages = pages
	for _, g := range group {
		g.remove(ns)
	}
	return merged, tally, nil
}

// reduceRuns merges runs until at most fanIn remain, so the final merge can
// proceed with one input buffer per run. Each intermediate pass is planned
// by reductionPass — it rewrites only the runs the final merge cannot take
// as they are — and increments stats.MergePasses; consumed run files are
// removed from ns, untouched runs keep their place behind the merged ones.
// Every merged output is cut at keep rows (see mergeGroup).
//
// With SpillParallelism > 1 the groups of one pass — mutually independent
// by construction — merge concurrently on worker goroutines. The plan is the
// serial pass's and each group's tally folds into stats in group order, so
// comparison and I/O totals match the serial path exactly.
func reduceRuns(cfg Config, ns storage.TempSpace, runs []spillRun, ky *keyer, lay entryLayout, keep int64, stats *SortStats) ([]spillRun, error) {
	fanIn := cfg.fanIn()
	par := cfg.spillParallelism()
	for len(runs) > fanIn {
		stats.MergePasses++
		groups := reductionPass(len(runs), fanIn)
		outs := make([]spillRun, len(groups))
		tallies := make([]mergeTally, len(groups))
		errs := make([]error, len(groups))
		merge := func(g int) {
			in := runs[groups[g].lo:groups[g].hi]
			outs[g], tallies[g], errs[g] = mergeGroup(ns, cfg.TempPrefix, in, ky, lay, keep, cfg.Abort)
		}
		if par <= 1 {
			for g := range groups {
				merge(g)
			}
		} else {
			sem := make(chan struct{}, par)
			var wg sync.WaitGroup
			for g := range groups {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					defer recoverWorker(&errs[g])
					merge(g)
				}(g)
			}
			wg.Wait()
		}
		for g := range groups {
			tallies[g].addTo(stats)
			if errs[g] != nil {
				return nil, errs[g]
			}
		}
		runs = append(outs, runs[groups[len(groups)-1].hi:]...)
	}
	return runs, nil
}

// runGroup is a half-open range of consecutive runs that one merge consumes.
type runGroup struct{ lo, hi int }

// reductionPass plans one run-reduction pass over n > fanIn runs: the groups
// to merge into one run apiece. Groups are consecutive, disjoint, 2..fanIn
// wide and together cover a prefix of the run list; every run behind the
// last group passes through untouched. Merged outputs take their groups'
// place, so the run list stays in formation order — which is what lets the
// flat merges' run-ordinal tie-break keep full-key ties in input order
// whatever the schedule.
//
// When one pass can leave exactly F = fanIn runs (n ≤ F²) it merges only
// what that takes: m = ⌈(n−F)/(F−1)⌉ groups, each removing width−1 runs —
// the first k0 = (n−F) − (m−1)(F−1) + 1 wide to absorb the remainder, the
// rest full F-way — so k0 + (m−1)F runs are rewritten and the others reach
// the final merge as formed. The groups sit at the front because those runs
// land first: MRS's pipelined harvest starts merging them while the tail of
// the segment is still being formed. Beyond F² runs no single pass suffices;
// the pass then merges everything F at a time (a trailing lone run passes
// through) and the caller re-plans over the ⌈n/F⌉ survivors.
//
// Every reduction path — serial, parallel, and the pipelined harvest in MRS
// — must plan through this function: one schedule is what keeps comparison
// and I/O totals independent of parallelism (the golden tests' invariant).
func reductionPass(n, fanIn int) []runGroup {
	m, first := (n+fanIn-1)/fanIn, fanIn // full pass: everything, F at a time
	if m <= fanIn {                      // n ≤ F²: one partial pass reaches F
		excess := n - fanIn
		m = (excess + fanIn - 2) / (fanIn - 1)
		first = excess - (m-1)*(fanIn-1) + 1
	}
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
