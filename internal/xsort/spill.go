package xsort

import (
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// Spec is a sort as its enforcer is built: the schema of its input, the order
// it produces and the prefix of that order the input already carries (ε for a
// full sort). The spill planner and the sort-memory footprint read it.
type Spec struct {
	Schema *types.Schema
	Target sortord.Order
	Given  sortord.Order
}

// replacementSelection reports whether a sort over an input carrying given,
// bounded by limit rows (0: unbounded), forms the runs of its oversized
// segment by replacement selection (SRS in the paper): nothing given, no
// limit. Every other spilling segment writes one run per memory batch — a
// bounded full sort is one segment under the bounded collector. MRS forms
// runs by it and PlanSpill prices them by it, so the two cannot disagree.
func replacementSelection(given sortord.Order, limit int64) bool {
	return given.IsEmpty() && limit == 0
}

// SpillPlan is how one sort — a full sort, or one segment of a partial sort —
// uses its run files, as PlanSpill predicts it. Page counts are run-file
// transfers; the sort's input and output are not in them.
type SpillPlan struct {
	InMemory bool // nothing is written: the rows, or the bounded selection, fit M

	Runs       int   // formation runs, an evicted tail's included
	Passes     int   // intermediate merge passes, the final merge excluded
	RunsMerged int   // runs the intermediate merges consume (SortStats.RunsMerged)
	FanIn      int   // runs the final merge reads
	Held       int64 // rows the final merge reads from memory beside them: the kept tail (0 when it is written)

	Written   int64 // run pages written: formation runs and every intermediate merge's output
	Read      int64 // run pages the intermediate merges read
	FinalRead int64 // run pages the final merge reads

	// Rows a merge reads back — from runs, or the final merge from the kept
	// tail: a merge keys every row it reads.
	MergedRows int64 // by the intermediate merges
	FinalRows  int64 // by the final merge
}

// Pages returns every run-page transfer of the plan.
func (p SpillPlan) Pages() int64 { return p.Written + p.Read + p.FinalRead }

// PlanSpill predicts, without sorting anything, how a sort of rows rows of s
// bounded by limit (Config.Limit; 0 is unbounded) spills with memoryBlocks
// blocks of memory on pageSize-byte pages. It is pure and deterministic, and
// it is put together from the rules the sorter runs by:
//
//   - a store holds what rowStore.add lets it (memoryLoad): as many rows as
//     footprint.blocks — the governor's own measure — fits in memoryBlocks;
//   - replacementSelection chooses the run formation: a batch is one memory
//     load (cut at limit rows), replacement selection forms runs of about
//     two; a bounded sort spills only when limit rows do not fit, since its
//     collector selects whenever the store is full with more;
//   - at input end the store still holds a memory load under replacement
//     selection and the last batch otherwise, and keeps it for the final
//     merge (Held) when that merge then needs no pass, as MRS.keepTail
//     decides by footprint.tailCut: all of it beside one read block per run,
//     or, where the sort may evict, all but the fewest last row blocks, which
//     become one more run. Otherwise every row is written, and an external
//     sort moves its input 2p+1 times over;
//   - every pass is reductionPass at mergeFanIn, and every intermediate
//     merge's output is cut at limit rows, as is the final merge's read;
//   - a run of r rows takes the pages a TupleWriter fills with r rows of the
//     schema's average encoded width (storage.TuplesPerPage).
//
// A merge cut short reads from each input its share of the rows it emits, in
// proportion to the input's length, plus the one row it holds as that input's
// head — and, on average, half a page past them. Rows of varying width are
// priced at their average width, so the page counts are exact only for
// fixed-width rows.
//
// The run list is kept run-length encoded (span): every formation run but the
// last has the same length, and a pass merges alike neighbours into alike
// outputs, so planning takes time and memory in the passes, not in the runs:
// an estimate of 10¹² rows at M = 2 is some 35 passes of work.
func PlanSpill(s Spec, rows, limit int64, memoryBlocks, pageSize int) SpillPlan {
	srs := replacementSelection(s.Given, limit)
	f := s.footprint()
	load := memoryLoad(f, srs, memoryBlocks, pageSize)
	keep := int64(noLimit)
	if limit > 0 {
		keep = limit
	}
	if rows <= load || (!srs && keep < load) {
		return SpillPlan{InMemory: true}
	}

	perPage := storage.TuplesPerPage(f.row, int64(pageSize))
	pages := func(n int64) int64 { return (n + perPage - 1) / perPage }
	runLen := load
	if srs {
		runLen = 2 * load
	}
	formed := func(n int64) []span { // runs of runLen over n rows, cut at keep
		runs := push(nil, min(runLen, keep), int(n/runLen))
		if tail := n % runLen; tail > 0 {
			runs = push(runs, min(tail, keep), 1)
		}
		return runs
	}
	before := (rows - 1) / load * load // the batches flushed before the last
	if srs {
		before = rows - load
	}
	runs := formed(before)
	tail := rows - before
	held := f.tailCut(tail, int((before+runLen-1)/runLen), srs, memoryBlocks, pageSize)
	if held == 0 {
		runs = formed(rows)
	} else if held < tail {
		runs = push(runs, tail-held, 1)
	}
	var p SpillPlan
	for _, r := range runs {
		p.Runs += r.count
		p.Written += int64(r.count) * pages(r.n)
	}

	// merge is one merge of in, and of held rows in memory, cut at keep rows:
	// the rows it emits and the pages and rows it reads to emit them. Cut
	// short, it stops reading each input at a row that may fall anywhere on
	// its page: x rows cost x/perPage + ½ pages, at most the whole input —
	// summed exactly, in half-pages of 2·perPage, and rounded once. Rows in
	// memory cost no page.
	merge := func(in []span, held int64) (out, read, loaded int64) {
		total := held
		for _, r := range in {
			total += int64(r.count) * r.n
		}
		out = min(total, keep)
		cut := int64(0)
		for _, r := range in {
			c := int64(r.count)
			if out == total {
				read, loaded = read+c*pages(r.n), loaded+c*r.n
				continue
			}
			x := min(r.n, int64(float64(out)*float64(r.n)/float64(total))+1)
			cut += c * min(2*x+perPage, 2*perPage*pages(r.n))
			loaded += c * x
		}
		switch {
		case out == total:
			loaded += held
		case held > 0:
			loaded += min(held, int64(float64(out)*float64(held)/float64(total))+1)
		}
		return out, read + (cut+perPage)/(2*perPage), loaded
	}
	fanIn := mergeFanIn(memoryBlocks)
	for n := p.Runs; n > fanIn; {
		p.Passes++
		groups, first := passShape(n, fanIn)
		var outs []span
		for g, left := 0, n; g < groups; {
			w := fanIn
			if g == 0 {
				w = first
			}
			if w = min(w, left); w < 2 {
				break // a lone trailing run passes through
			}
			// F-wide groups that lie in the head span are alike: merge one
			// and count it for all of them.
			alike := 1
			if w == fanIn {
				alike = max(min(runs[0].count/w, groups-g), 1)
			}
			grp, rest := take(runs, w)
			if alike > 1 {
				_, rest = take(rest, (alike-1)*w)
			}
			runs = rest
			out, read, loaded := merge(grp, 0)
			k := int64(alike)
			outs = push(outs, out, alike)
			p.RunsMerged += alike * w
			p.Written += k * pages(out)
			p.Read += k * read
			p.MergedRows += k * loaded
			g, left, n = g+alike, left-alike*w, n-alike*(w-1)
		}
		for _, r := range runs {
			outs = push(outs, r.n, r.count)
		}
		runs = outs
	}
	for _, r := range runs {
		p.FanIn += r.count
	}
	p.Held = held
	_, p.FinalRead, p.FinalRows = merge(runs, held)
	return p
}

// span is count consecutive runs of n rows each: PlanSpill's run list,
// run-length encoded.
type span struct {
	n     int64
	count int
}

// push appends count runs of n rows to list, into its last span when that
// holds runs of the same length.
func push(list []span, n int64, count int) []span {
	if count == 0 {
		return list
	}
	if k := len(list); k > 0 && list[k-1].n == n {
		list[k-1].count += count
		return list
	}
	return append(list, span{n, count})
}

// take splits the first w runs off list, consuming its head span in place.
func take(list []span, w int) (head, rest []span) {
	for w > 0 {
		c := min(w, list[0].count)
		head = append(head, span{list[0].n, c})
		if list[0].count -= c; list[0].count == 0 {
			list = list[1:]
		}
		w -= c
	}
	return head, list
}

// tailCut is rowStore.tailCut planned for a store holding tail rows of
// footprint f, packed as rowStore.add packs them, beside runs disk runs: the
// rows the final merge keeps in memory — all of them, or those before the
// fewest last row blocks whose eviction makes the rest fit with one more read
// block — or 0 when they are written. A planned sort always may evict: a
// bounded one spills only with its store full of rows it keeps, so it has
// freed none.
func (f footprint) tailCut(tail int64, runs int, padded bool, memoryBlocks, pageSize int) int64 {
	allowance := int64(memoryBlocks) - int64(runs)
	if f.blocks(tail, padded, pageSize) <= allowance {
		return tail
	}
	// The most row blocks, short of all, whose rows fit with their entries:
	// a binary search, since both grow with the blocks kept.
	perRow := perBlock(f.slot(padded), pageSize)
	lo, hi := int64(0), packed(tail, f.slot(padded), pageSize)-1
	for lo < hi {
		if k := (lo + hi + 1) / 2; k+packed(k*perRow, f.entry, pageSize)+1 <= allowance {
			lo = k
		} else {
			hi = k - 1
		}
	}
	return lo * perRow
}

// memoryLoad is how many rows of footprint f a store of memoryBlocks blocks
// takes before it refuses one (rowStore.add): the most whose blocks
// (footprint.blocks) fit, the store never held to fewer than two blocks.
func memoryLoad(f footprint, padded bool, memoryBlocks, pageSize int) int64 {
	m := int64(max(memoryBlocks, 2))
	// One row always fits; m blocks of rows alone would leave none for entries.
	lo, hi := int64(1), m*max(int64(pageSize)/max(f.row, 1), 1)
	for lo < hi {
		if mid := (lo + hi + 1) / 2; f.blocks(mid, padded, pageSize) <= m {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
