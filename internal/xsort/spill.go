package xsort

import (
	"math"

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
//     footprint.blocks — the governor's own measure — fits in memoryBlocks,
//     padded under replacement selection, their entries carrying arrival
//     numbers where the store numbers its rows;
//   - replacementSelection chooses the run formation: replacement
//     selection, in a store that pads its rows and, but in the unbounded
//     full sort, numbers them, forms runs of about two memory loads, the
//     first of e−1 (the snowplow), each cut at limit rows; a bounded sort
//     whose limit is short of two loads of a store that neither pads nor
//     numbers writes batches of one memory load, cut at limit rows, and
//     spills only when limit rows do not fit, since its collector selects
//     whenever the store is full with more;
//   - at input end the store still holds a memory load under replacement
//     selection and the last batch otherwise, and keeps it for the final
//     merge (Held) when that merge then needs no pass, as MRS.keepTail
//     decides by footprint.tailCut: all of it beside one read block per run,
//     or all but the fewest last row blocks' worth, which become one more
//     run. Otherwise every row is written, and an external sort moves its
//     input 2p+1 times over;
//   - every pass is reductionPass at mergeFanIn, and every intermediate
//     merge's output is cut at limit rows, as is the final merge's read;
//   - a run of r rows takes the pages a TupleWriter fills with r rows of the
//     schema's average encoded width (storage.TuplesPerPage); where r is a
//     replacement-selection run's planned length, its actual length varies
//     about r, and so does where its last page ends.
//
// A merge cut short reads from each input its share of the rows it emits, in
// proportion to the input's length, plus the one row it holds as that input's
// head — and, on average, half a page past them. Rows of varying width are
// priced at their average width, so the page counts are exact only for
// fixed-width rows, and replacement selection's runs are priced at the
// lengths they take on random keys.
//
// The run list is kept run-length encoded (span): all formation runs but the
// first and the last two have the same length, and a pass merges alike
// neighbours into alike outputs, so planning takes time and memory in the
// passes, not in the runs: an estimate of 10¹² rows at M = 2 is some 35
// passes of work.
func PlanSpill(s Spec, rows, limit int64, memoryBlocks, pageSize int) SpillPlan {
	keep := int64(noLimit)
	if limit > 0 {
		keep = limit
	}
	f := s.footprint(limit, false)
	load := memoryLoad(f, memoryBlocks, pageSize)
	rs := replacementSelection(keep, load)
	if rs {
		f = s.footprint(limit, true)
		load = memoryLoad(f, memoryBlocks, pageSize)
	}
	if rows <= load || keep < load {
		return SpillPlan{InMemory: true}
	}

	// Page counts are summed in units of half a row's share of a page —
	// 2·perPage to the page — and rounded once, at the end. A run of n rows
	// fills ⌈n/perPage⌉ pages where its length is known: a batch, or a run
	// cut at keep. A replacement-selection run's length varies about the
	// planned one, so its last page is on average (perPage−1)/(2·perPage)
	// full past n/perPage — as is a merge's output of such runs.
	perPage := storage.TuplesPerPage(f.row, int64(pageSize))
	unit := 2 * perPage
	units := func(n int64) int64 {
		if rs && n < keep {
			return 2*n + perPage - 1
		}
		return unit * ((n + perPage - 1) / perPage)
	}
	var runs []span
	run := func(n int64, count int) { runs = push(runs, min(n, keep), count) } // a run is cut at keep rows
	var held int64
	if rs {
		// On random keys (the snowplow) the first run is (e−1) memory loads
		// long, every later one two. The heap holds a memory load at input
		// end; the rows written before it fill runs up to one still open,
		// open rows into it, which would have reached full rows.
		first, runLen := max(int64(float64(load)*(math.E-1)), 1), 2*load
		open, full := rows-load, first
		disk := 0 // the runs on disk at input end, the open one included
		if open > first {
			k := (open - first) / runLen
			run(first, 1)
			run(runLen, int(k))
			open, full, disk = open-first-k*runLen, runLen, 1+int(k)
		}
		if open > 0 {
			disk++
		}
		if held = f.tailCut(load, disk, memoryBlocks, pageSize); held == 0 {
			// A drained heap's rows of the open run complete it and the rest
			// are one last run: a fraction t through a run, the snowplow has
			// the heap's load split (1−t) current, t next.
			next := int64(float64(load) * min(float64(open)/float64(full), 1))
			run(open+load-next, 1)
			if next > 0 {
				run(next, 1)
			}
		} else {
			if open > 0 {
				run(open, 1)
			}
			if held < load {
				run(load-held, 1) // the rows written to make room
			}
		}
	} else {
		// A bounded segment's batches: one memory load each, cut at keep,
		// and the last, at input end, is the tail.
		formed := func(n int64) {
			run(load, int(n/load))
			if tail := n % load; tail > 0 {
				run(tail, 1)
			}
		}
		before := (rows - 1) / load * load // the batches flushed before the last
		formed(before)
		tail := rows - before
		if held = f.tailCut(tail, int(before/load), memoryBlocks, pageSize); held == 0 {
			runs = runs[:0]
			formed(rows)
		} else if held < tail {
			run(tail-held, 1)
		}
	}
	var p SpillPlan
	for _, r := range runs {
		p.Runs += r.count
		p.Written += int64(r.count) * units(r.n)
	}

	// merge is one merge of in, and of held rows in memory, cut at keep rows:
	// the rows it emits and the units and rows it reads to emit them. Cut
	// short, it stops reading each input at a row that may fall anywhere on
	// its page: x rows cost x/perPage + ½ pages, at most the whole input.
	// Rows in memory cost no page.
	merge := func(in []span, held int64) (out, read, loaded int64) {
		total := held
		for _, r := range in {
			total += int64(r.count) * r.n
		}
		out = min(total, keep)
		for _, r := range in {
			c := int64(r.count)
			if out == total {
				read, loaded = read+c*units(r.n), loaded+c*r.n
				continue
			}
			x := min(r.n, int64(float64(out)*float64(r.n)/float64(total))+1)
			read += c * min(2*x+perPage, units(r.n))
			loaded += c * x
		}
		switch {
		case out == total:
			loaded += held
		case held > 0:
			loaded += min(held, int64(float64(out)*float64(held)/float64(total))+1)
		}
		return out, read, loaded
	}
	fanIn := mergeFanIn(memoryBlocks)
	var grp, spare []span // take's buffer, and the list a pass fills: the one before it
	for n := p.Runs; n > fanIn; {
		p.Passes++
		groups, first := passShape(n, fanIn)
		all, outs := runs, spare[:0]
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
			grp, runs = take(grp[:0], runs, w)
			out, read, loaded := merge(grp, 0)
			if alike > 1 {
				_, runs = take(grp[:0], runs, (alike-1)*w)
			}
			k := int64(alike)
			outs = push(outs, out, alike)
			p.RunsMerged += alike * w
			p.Written += k * units(out)
			p.Read += k * read
			p.MergedRows += k * loaded
			g, left, n = g+alike, left-alike*w, n-alike*(w-1)
		}
		for _, r := range runs {
			outs = push(outs, r.n, r.count)
		}
		runs, spare = outs, all[:0]
	}
	for _, r := range runs {
		p.FanIn += r.count
	}
	p.Held = held
	_, p.FinalRead, p.FinalRows = merge(runs, held)
	// Rounded half up, the final read as what it adds to the passes' reads:
	// every page read was written, so Read+FinalRead, rounded as one sum,
	// stays within Written.
	pages := func(u int64) int64 { return (u + perPage) / unit }
	p.Written, p.Read, p.FinalRead = pages(p.Written), pages(p.Read), pages(p.Read+p.FinalRead)-pages(p.Read)
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

// take splits the first w runs off list onto head, consuming its head span
// in place.
func take(head, list []span, w int) ([]span, []span) {
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

// tailCut is MRS.keepTail planned for a store holding tail rows of footprint
// f, packed as rowStore.add packs them, beside runs disk runs: the rows the
// final merge keeps in memory — all of them, or the most that fit in whole
// row blocks with their entries and one more read block, for the run the
// others become (on random keys no two rows across that cut tie) — or 0 when
// they are written.
func (f footprint) tailCut(tail int64, runs int, memoryBlocks, pageSize int) int64 {
	allowance := int64(memoryBlocks) - int64(runs)
	if f.blocks(tail, pageSize) <= allowance {
		return tail
	}
	// The most row blocks, short of all, whose rows fit with their entries:
	// a binary search, since both grow with the blocks kept.
	perRow := perBlock(f.slot(), pageSize)
	lo, hi := int64(0), packed(tail, f.slot(), pageSize)-1
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
func memoryLoad(f footprint, memoryBlocks, pageSize int) int64 {
	m := int64(max(memoryBlocks, 2))
	// One row always fits; m blocks of rows alone would leave none for entries.
	lo, hi := int64(1), m*max(int64(pageSize)/max(f.row, 1), 1)
	for lo < hi {
		if mid := (lo + hi + 1) / 2; f.blocks(mid, pageSize) <= m {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
