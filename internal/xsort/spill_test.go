package xsort

import (
	"fmt"
	"math"
	"testing"

	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// spillPage is the page the spill-plan tests sort on: 16 three-int rows to a
// run page, so a few thousand rows make deep reductions.
const spillPage = 512

// spillCase is one sort the spill-plan tests both plan and run: its Spec and
// the rows it sorts. A prefixed case is one segment (c1 is constant), since
// PlanSpill plans one sort.
type spillCase struct {
	name string
	spec Spec
	row  func(i int) types.Tuple
}

// spillCases are the two formations over a row shape: replacement selection
// (no prefix, unbounded) and MRS batches (a known prefix, or a bound).
func spillCases(schema *types.Schema, row func(int) types.Tuple) []spillCase {
	oneSegment := func(i int) types.Tuple {
		t := row(i)
		t[0] = types.NewInt(0)
		return t
	}
	return []spillCase{
		{"no-prefix", Spec{Schema: schema, Target: sortord.New("c2", "c1")}, row},
		{"prefix", Spec{Schema: schema, Target: sortord.New("c1", "c2"), Given: sortord.New("c1")}, oneSegment},
	}
}

// threeInts and segDeclared are residentShapes' row shapes with random keys: three ints
// (every row 28 bytes), and the benchmark's seg rows (a 16–32-byte string,
// declared 24 wide as the benchmark declares it). Replacement selection's
// runs depend on the key sequence, and residentShapes' Weyl sequence sets
// them to a regular pattern of its own.
var (
	threeInts = rowShape{residentShapes[1].schema, func(i int) types.Tuple {
		return types.NewTuple(types.NewInt(int64(i/400)), types.NewInt(int64(mix(i)>>40)), types.NewInt(int64(i)))
	}}
	segDeclared = rowShape{types.NewSchema(
		types.Column{Name: "c1", Kind: types.KindInt},
		types.Column{Name: "c2", Kind: types.KindInt},
		types.Column{Name: "c3", Kind: types.KindString, Width: 24},
	), func(i int) types.Tuple {
		h := mix(i)
		return types.NewTuple(types.NewInt(int64(i/400)), types.NewInt(int64(h>>40)),
			types.NewString("abcdefghijklmnopqrstuvwxyz0123456789"[:16+h%17]))
	}}
)

type rowShape struct {
	schema *types.Schema
	row    func(i int) types.Tuple
}

// mix is splitmix64's output function: a deterministic stand-in for a random
// 64-bit key.
func mix(i int) uint64 {
	z := uint64(i+1) * 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// sortActual runs the sort PlanSpill plans over n rows at parallelism 1 and
// returns its counters and the disk's I/O.
func sortActual(t *testing.T, c spillCase, n int, limit int64, blocks int) (SortStats, storage.IOStats) {
	t.Helper()
	d := storage.NewDisk(spillPage)
	cfg := Config{Disk: d, MemoryBlocks: blocks, Parallelism: 1, Limit: limit, BatchSize: 1024}
	in := &genIter{n: n, row: c.row}
	op, err := NewMRS(in, c.spec.Schema, c.spec.Target, c.spec.Given, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := iter.Drain(op, c.spec.Schema.Len()); err != nil {
		t.Fatal(err)
	}
	storage.AssertNoLeaks(t, d)
	return *op.Stats(), d.Stats()
}

// TestPricedInMemoryIffNoRunPages: PlanSpill says "in memory" exactly when the
// sorter writes no run page — over rows × M × prefix or not × bounded or not,
// on both sides of every memory load, on fixed-width rows. The grid holds
// sorts whose payload fits M while their sort memory does not (200 rows
// without a prefix at M = 16: 13 pages of rows, 13 row blocks and 10 entry
// blocks of store): the parent's "payload blocks ≤ M" rule priced those CPU
// only, and they spill.
func TestPricedInMemoryIffNoRunPages(t *testing.T) {
	payloadFitsYetSpills := 0
	for _, c := range spillCases(threeInts.schema, threeInts.row) {
		for _, blocks := range []int{1, 2, 4, 16} {
			for _, limit := range []int64{0, 10, 60, 400} {
				f := c.spec.footprint(limit, true)
				load := memoryLoad(f, blocks, spillPage)
				for _, n := range []int64{1, load - 1, load, load + 1, 200, 3 * load} {
					if n < 1 {
						continue
					}
					p := PlanSpill(c.spec, n, limit, blocks, spillPage)
					_, io := sortActual(t, c, int(n), limit, blocks)
					if p.InMemory != (io.RunPageWrites == 0) {
						t.Errorf("%s M=%d limit=%d rows=%d: planned in memory %v, the sort wrote %d run pages",
							c.name, blocks, limit, n, p.InMemory, io.RunPageWrites)
					}
					payload := (n + 15) / 16
					if payload <= int64(blocks) && int64(blocks) < f.blocks(n, spillPage) && io.RunPageWrites > 0 {
						payloadFitsYetSpills++
					}
				}
			}
		}
	}
	if payloadFitsYetSpills == 0 {
		t.Fatal("the grid holds no spilling sort whose payload fits M")
	}
}

// TestSpillPlanMatchesSorter holds PlanSpill to the sort it predicts, run at
// parallelism 1 on a storage.Disk: run pages written and read against
// IOStats — for replacement selection over a partial sort's segment (a known
// prefix) and over a full sort (none), unbounded and bounded by a limit at
// least a memory load, which spills. Every such sort forms its runs by
// replacement selection, which the plan prices at the snowplow's run
// lengths, each run's last page on average half full: on fixed-width rows
// every page count is within 5 %. Rows of varying width are priced at their
// average width: the worst point of the benchmark's seg shape is logged.
//
// Deep sorts (3 000 and 12 000 rows) need reduction passes and write every
// row. Sorts of 1.2, 1.9 and 2.6 memory loads need none — loads of the heap
// for an unbounded sort, of the batch store a bounded one fills first: they
// keep the rows they hold at input end for the final merge — all of them,
// all but a few row blocks' worth, or, where neither fits, none — and the
// grid, over both shapes, holds each of the three. (A heap keeps all its
// rows only where they leave a block to spare beside the runs' read
// blocks.) Those sorts move
// a few pages to a few dozen, where 5 % is less than a page and a cut
// merge's read is planned to half a page, so a page count may also be one
// page off; and one more per replacement-selection run the plan did not
// foresee, as a first run shorter than the plan's moves the cut by a block.
func TestSpillPlanMatchesSorter(t *testing.T) {
	tails := map[string]int{}
	for _, sh := range []struct {
		name   string
		schema *types.Schema
		row    func(int) types.Tuple
		fixed  bool
	}{
		{"three-int", threeInts.schema, threeInts.row, true},
		{"seg", segDeclared.schema, segDeclared.row, false},
	} {
		worst, worstAt := 0.0, ""
		check := func(c spillCase, n int, limit int64, blocks int, deep bool) {
			at := fmt.Sprintf("%s/%s M=%d rows=%d limit=%d", sh.name, c.name, blocks, n, limit)
			p := PlanSpill(c.spec, int64(n), limit, blocks, spillPage)
			st, io := sortActual(t, c, n, limit, blocks)
			if p.InMemory || st.RunsGenerated == 0 {
				t.Fatalf("%s: planned %+v, sorted %+v", at, p, st)
			}
			keep := int64(noLimit)
			if limit > 0 {
				keep = limit
			}
			batch := memoryLoad(c.spec.footprint(limit, false), blocks, spillPage)
			rs := replacementSelection(keep, batch)
			slack := int64(0)
			if !deep {
				slack = 1
				if rs {
					slack += int64(max(st.RunsGenerated-p.Runs, 0))
				}
			}
			for _, e := range []struct {
				what            string
				planned, actual int64
			}{
				{"written", p.Written, io.RunPageWrites},
				{"read", p.Read + p.FinalRead, io.RunPageReads},
			} {
				diff := e.planned - e.actual
				off := math.Abs(float64(diff)) / float64(e.actual)
				if off > worst {
					worst, worstAt = off, fmt.Sprintf("%s: %d run pages %s, planned %d", at, e.actual, e.what, e.planned)
				}
				if sh.fixed && off > 0.05 && max(diff, -diff) > slack {
					t.Errorf("%s: %d run pages %s, planned %d (%.1f %% off)", at, e.actual, e.what, e.planned, 100*off)
				}
			}
			if sh.fixed && !rs && (p.Runs != st.RunsGenerated || p.Passes != st.MergePasses || p.RunsMerged != st.RunsMerged) {
				t.Errorf("%s: planned %d runs, %d passes, %d merged; sorted %d, %d, %d", at,
					p.Runs, p.Passes, p.RunsMerged, st.RunsGenerated, st.MergePasses, st.RunsMerged)
			}
			// The tail: a memory load under replacement selection, the last
			// batch otherwise.
			tail := int64(n) - int64(n-1)/batch*batch
			if rs {
				tail = memoryLoad(c.spec.footprint(limit, true), blocks, spillPage)
			}
			switch {
			case p.Held == 0:
				tails["written"]++
			case p.Held == tail:
				tails["kept"]++
			default:
				tails["evicted"]++
			}
		}
		for _, c := range spillCases(sh.schema, sh.row) {
			for _, blocks := range []int{3, 4, 8, 16} {
				for _, n := range []int{3000, 12000} {
					for _, limit := range []int64{0, int64(n / 3)} {
						check(c, n, limit, blocks, true)
					}
				}
				for _, bounded := range []bool{false, true} {
					for _, loads := range []float64{1.2, 1.9, 2.6} {
						// Loads of the store the sort fills first: a
						// replacement-selection heap's unbounded, a batch
						// store's bounded.
						load := memoryLoad(c.spec.footprint(0, true), blocks, spillPage)
						if bounded {
							load = memoryLoad(c.spec.footprint(1, false), blocks, spillPage)
						}
						n := int(loads * float64(load))
						var limit int64
						if bounded {
							// Past a batch load, so the sort spills: in
							// batches short of two of them, by replacement
							// selection from there.
							limit = max(int64(n-n/10), load)
						}
						check(c, n, limit, blocks, false)
					}
				}
			}
		}
		t.Logf("%s: worst point %.1f %% off — %s; tails so far %v", sh.name, 100*worst, worstAt, tails)
	}
	if tails["kept"] == 0 || tails["evicted"] == 0 || tails["written"] == 0 {
		t.Errorf("the grid misses a tail regime: %v", tails)
	}
}

// FuzzSpillPlan checks PlanSpill's invariants wherever the fuzzer takes it:
// in memory exactly when nothing is formed or moved; the passes, merged runs
// and final fan-in those of a reductionPass loop run directly over the plan's
// runs, with a fan-in of at least two; a tail kept in memory only where no
// pass runs, and never more rows than a memory load; no more pages read than
// written; and a final merge that reads the rows it emits — all of them, or
// limit — plus at most one head per input, the kept tail included.
func FuzzSpillPlan(f *testing.F) {
	f.Add(uint32(5000), uint8(4), uint32(0), false, uint16(512))
	f.Add(uint32(60000), uint8(16), uint32(0), true, uint16(4096))
	f.Add(uint32(3000), uint8(1), uint32(700), false, uint16(512))
	f.Add(uint32(200), uint8(16), uint32(10), true, uint16(512))
	// Passes' and final reads whose remainders each round up a page, where
	// rounded apart they summed to a page more than was written.
	f.Add(uint32(211), uint8(1), uint32(0), false, uint16(512))
	f.Fuzz(func(t *testing.T, rows uint32, blocks uint8, limit uint32, prefix bool, page uint16) {
		if rows > 1<<17 || page < 64 {
			t.Skip()
		}
		c := spillCases(threeInts.schema, threeInts.row)[0]
		if prefix {
			c = spillCases(threeInts.schema, threeInts.row)[1]
		}
		n, keep := int64(rows), int64(limit)
		p := PlanSpill(c.spec, n, keep, int(blocks), int(page))
		if p.InMemory != (p.Runs == 0) || p.InMemory != (p.Pages() == 0) {
			t.Fatalf("in memory %v with %d runs and %d pages", p.InMemory, p.Runs, p.Pages())
		}
		if p.InMemory {
			return
		}
		fanIn := mergeFanIn(int(blocks))
		runs, passes, merged := p.Runs, 0, 0
		for runs > fanIn {
			groups := reductionPass(runs, fanIn)
			for _, g := range groups {
				merged += g.hi - g.lo
			}
			runs = len(groups) + runs - groups[len(groups)-1].hi
			passes++
		}
		if fanIn < 2 || passes != p.Passes || merged != p.RunsMerged || runs != p.FanIn {
			t.Fatalf("fan-in %d: the loop makes %d passes merging %d runs into %d; planned %+v", fanIn, passes, merged, runs, p)
		}
		bound := int64(noLimit)
		if keep > 0 {
			bound = keep
		}
		load := memoryLoad(c.spec.footprint(keep, false), int(blocks), int(page))
		if replacementSelection(bound, load) {
			load = memoryLoad(c.spec.footprint(keep, true), int(blocks), int(page))
		}
		if p.Held < 0 || p.Held > min(load, n) || (p.Held > 0 && p.Passes != 0) {
			t.Fatalf("a tail of %d rows (a load is %d) kept beside %d passes: %+v", p.Held, load, p.Passes, p)
		}
		if p.Read+p.FinalRead > p.Written || (p.Passes == 0 && (p.Read != 0 || p.MergedRows != 0)) {
			t.Fatalf("reads without writes: %+v", p)
		}
		emit := n
		if keep > 0 {
			emit = min(n, keep)
		}
		heads := int64(p.FanIn)
		if p.Held > 0 {
			heads++
		}
		if p.FinalRows < emit || p.FinalRows > emit+heads {
			t.Fatalf("final merge reads %d rows to emit %d from %d runs and a %d-row tail", p.FinalRows, emit, p.FanIn, p.Held)
		}
	})
}

// TestSpillPlanCostsPassesNotRuns: planning takes time and memory in the
// passes, not in the runs. 10¹² rows at M = 2 — a cross join's estimate at
// the smallest grant, some 10¹⁰ runs — plan with a few allocations a pass,
// and the plan still counts every run the sort would form.
func TestSpillPlanCostsPassesNotRuns(t *testing.T) {
	const rows int64 = 1e12
	for _, c := range spillCases(threeInts.schema, threeInts.row) {
		// The snowplow's runs: a first of (e−1) loads, then two loads each,
		// and the heap's last load drained into the open run and one more.
		load := memoryLoad(c.spec.footprint(0, true), 2, spillPage)
		first, runLen := int64(float64(load)*(math.E-1)), 2*load
		want := 1 + (rows-load-first)/runLen + 1
		if open := (rows - load - first) % runLen; load*open >= runLen {
			want++
		}
		var p SpillPlan
		allocs := testing.AllocsPerRun(3, func() { p = PlanSpill(c.spec, rows, 0, 2, spillPage) })
		if int64(p.Runs) != want || p.FanIn != 2 || p.Passes < 30 {
			t.Fatalf("%s: %+v, want %d runs reduced to two", c.name, p, want)
		}
		if allocs > float64(8*p.Passes) {
			t.Fatalf("%s: %.0f allocations to plan %d passes", c.name, allocs, p.Passes)
		}
	}
}

// TestSpillPlanPredictsGoldens plans the golden workload (golden_test.go),
// whose rows are fixed-width ("payload" is 7 bytes). Both sorts form their
// runs by replacement selection, which the plan prices at the snowplow's
// run lengths: SRS's structure comes out exactly as pinned, MRS's passes
// exactly and its runs and merged runs within one a segment — a segment's
// first run may end a few rows from the plan's and push its last into one
// more — and the pages of both within 1 %.
func TestSpillPlanPredictsGoldens(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "c1", Kind: types.KindInt},
		types.Column{Name: "c2", Kind: types.KindInt},
		types.Column{Name: "c3", Kind: types.KindString, Width: len("payload")},
	)
	near := func(planned, pinned, by int64) bool { return max(planned-pinned, pinned-planned) <= by }
	mrs := PlanSpill(Spec{Schema: schema, Target: sortord.New("c1", "c2"), Given: sortord.New("c1")}, 2000, 0, 8, 512)
	if 3*mrs.Passes != goldenMRSPasses || !near(3*int64(mrs.Runs), goldenMRSRuns, 3) ||
		!near(3*int64(mrs.RunsMerged), goldenMRSRunsMerged, 3) || !near(3*mrs.Pages(), goldenMRSIOTotal, goldenMRSIOTotal/100) {
		t.Errorf("MRS, one of three segments: %+v, %d pages against %d", mrs, mrs.Pages(), goldenMRSIOTotal)
	}
	srs := PlanSpill(Spec{Schema: schema, Target: sortord.New("c1", "c2")}, 6000, 0, 4, 512)
	if srs.Runs != goldenSRSRuns || srs.Passes != goldenSRSPasses || srs.RunsMerged != goldenSRSRunsMerged ||
		math.Abs(float64(srs.Pages()-goldenSRSIOTotal)) > 0.01*goldenSRSIOTotal {
		t.Errorf("SRS: %+v, %d pages against %d", srs, srs.Pages(), goldenSRSIOTotal)
	}
}
