package cost

import (
	"fmt"
	"math"
	"testing"

	"pyro/internal/sortord"
	"pyro/internal/types"
	"pyro/internal/xsort"
)

// threeInts encodes every row in 31 bytes, 132 rows to a 4 KiB run page.
var threeInts = types.NewSchema(
	types.Column{Name: "a", Kind: types.KindInt},
	types.Column{Name: "b", Kind: types.KindInt},
	types.Column{Name: "c", Kind: types.KindInt},
)

// fullSpec sorts threeInts from scratch (replacement selection); segSpec
// sorts it within segments of equal a (MRS batches), the sort a partial sort
// prices per segment.
var (
	fullSpec = xsort.Spec{Schema: threeInts, Target: sortord.New("b", "a")}
	segSpec  = xsort.Spec{Schema: threeInts, Target: sortord.New("a", "b"), Given: sortord.New("a")}
)

func TestFullSortInMemory(t *testing.T) {
	m := DefaultModel()
	// Fits in memory: CPU only, and fully blocking (Startup == Total).
	got := m.FullSort(fullSpec, 1000)
	want := m.SortCPU(1000)
	if got.Total != want {
		t.Fatalf("in-memory sort = %f, want cpu %f", got.Total, want)
	}
	if got.Startup != got.Total {
		t.Fatalf("in-memory sort must block on its whole CPU cost: startup %f, total %f",
			got.Startup, got.Total)
	}
	if m.FullSort(fullSpec, 0).Total != 0 || m.FullSort(fullSpec, 1).Total != 0 {
		t.Fatal("degenerate sorts are free")
	}
}

// paperModel zeroes the CPU weights, so a spilling sort's price is its run
// pages alone; the merge reads' key work is pinned separately in
// TestSpillLayoutPricing.
func paperModel() Model {
	m := DefaultModel()
	m.CmpWeight, m.KeyEncodeWeight = 0, 0
	return m
}

// TestFullSortExternalFormula is §3.2's external sort, B·(2p+1), checked on
// the spill plan. With runs of one memory load (MRS batches) and n = F^k of
// them, the sort writes its B run pages, rewrites all of them in each of k−1
// intermediate passes and reads them in the final merge: 2k·B run pages —
// the paper's B·(2⌈log_F n⌉+1) less the one read of the input that the scan
// below the sort already pays. At M = 3 and M = 5 a memory load of three-int
// rows is exactly 2 and 3 run pages (264 and 396 rows), so merged runs pack
// without slack and the identity holds to the page.
func TestFullSortExternalFormula(t *testing.T) {
	for _, c := range []struct{ mem, load, fanIn, maxK int64 }{{3, 264, 2, 5}, {5, 396, 4, 3}} {
		m := paperModel()
		m.MemoryBlocks = c.mem
		n := int64(1)
		for k := int64(1); k <= c.maxK; k++ {
			n *= c.fanIn
			rows, b := n*c.load, n*c.load/132
			at := fmt.Sprintf("M=%d, %d runs", c.mem, n)
			p := xsort.PlanSpill(segSpec, rows, 0, int(c.mem), m.PageSize)
			if p.InMemory || int64(p.Runs) != n || int64(p.Passes) != k-1 || int64(p.FanIn) != c.fanIn {
				t.Fatalf("%s: %+v, want %d runs, %d passes, fan-in %d", at, p, n, k-1, c.fanIn)
			}
			if p.Pages() != 2*k*b {
				t.Fatalf("%s: %d run pages, want 2k·B = %d", at, p.Pages(), 2*k*b)
			}
			// FullSort prices exactly those: run formation and the passes
			// block, the final merge read (B) streams.
			if got := m.FullSort(segSpec, rows); got.Total != float64(2*k*b) || got.Startup != float64((2*k-1)*b) {
				t.Fatalf("%s: FullSort = %+v, want total %d, startup %d", at, got, 2*k*b, (2*k-1)*b)
			}
		}
	}
	// PartialSort prices its oversized segments through FullSort: two
	// segments of 16 memory loads, the same plan apiece.
	m := paperModel()
	m.MemoryBlocks = 5
	seg := m.FullSort(segSpec, 16*396)
	if got := m.PartialSort(segSpec, 2*16*396, 2); seg.Total == 0 || got.Total != 2*seg.Total {
		t.Fatalf("spilling partial sort = %f, want 2 × %f", got.Total, seg.Total)
	}
}

// TestSpillPlanOrdering is the spill plan's ordering over rows × M × bounds:
//   - more memory never prices more run pages;
//   - more rows never price fewer;
//   - a bound never prices more than no bound, and a larger bound never
//     less;
//   - at the one- and two-block grants the governor can hand out, the merge
//     fan-in is two and the price finite (a merge base of M − 1 once priced
//     M = 1 at one pass and M = 2 at +Inf).
//
// "Never" holds to the page a run file rounds up to: the sorter writes every
// run as whole pages, so a change that moves the same rows through other
// files can move a page each way per file (1 000 rows sorted from scratch
// move 16 run pages at M = 4 and 18 at M = 5). Each comparison allows two
// pages per run file of the plan it holds to be the dearer, and no more.
//
// Every bounded sort is MRS, so bounds compare with each other on both specs.
// Against no bound, a full sort is held to bounds of at most a quarter of its
// rows: the unbounded full sort is replacement selection, whose runs are two
// memory loads, and from about k ≈ N/2 the bounded sort's memory-load runs
// need a pass more than they do — a real cost of that operator, which the
// plan prices.
func TestSpillPlanOrdering(t *testing.T) {
	const page = 4096
	slack := func(p xsort.SpillPlan) int64 { return int64(2 * (p.Runs + p.RunsMerged)) }
	for _, s := range []xsort.Spec{fullSpec, segSpec} {
		plan := func(rows, limit int64, mem int) xsort.SpillPlan { return xsort.PlanSpill(s, rows, limit, mem, page) }
		for _, rows := range []int64{1_000, 7_000, 40_000, 250_000} {
			for mem := 1; mem <= 48; mem++ {
				at := fmt.Sprintf("%v rows=%d M=%d", s.Target, rows, mem)
				p := plan(rows, 0, mem)
				if more := plan(rows, 0, mem+1); more.Pages() > p.Pages()+slack(more) {
					t.Errorf("%s: one more block prices %d run pages, %d before", at, more.Pages(), p.Pages())
				}
				if bigger := plan(2*rows, 0, mem); bigger.Pages()+slack(p) < p.Pages() {
					t.Errorf("%s: twice the rows price %d run pages, %d before", at, bigger.Pages(), p.Pages())
				}
				prev := xsort.SpillPlan{}
				for _, keep := range []int64{rows / 100, rows / 10, rows / 4, rows / 2} {
					b := plan(rows, keep, mem)
					if (!s.Given.IsEmpty() || keep <= rows/4) && b.Pages() > p.Pages()+slack(b) {
						t.Errorf("%s: keep %d prices %d run pages, no bound %d", at, keep, b.Pages(), p.Pages())
					}
					if b.Pages()+slack(prev) < prev.Pages() {
						t.Errorf("%s: keep %d prices %d run pages, a smaller bound %d", at, keep, b.Pages(), prev.Pages())
					}
					prev = b
				}
			}
		}
		for _, mem := range []int64{1, 2} {
			m := DefaultModel()
			m.MemoryBlocks = mem
			p := plan(100_000, 0, int(mem))
			c := m.FullSort(s, 100_000)
			if p.FanIn != 2 || math.IsInf(c.Total, 0) || math.IsNaN(c.Total) || c.Total <= 0 || c.Startup > c.Total {
				t.Errorf("%v M=%d: fan-in %d, cost %+v", s.Target, mem, p.FanIn, c)
			}
		}
	}
}

func TestPartialSort(t *testing.T) {
	m := DefaultModel()
	// 2M rows, 1000 segments: each segment 2000 rows, in memory. Cost =
	// 1000 * cpu(2000), and only the first segment's sort blocks the first
	// row.
	got := m.PartialSort(segSpec, 2_000_000, 1000)
	want := 1000 * m.SortCPU(2000)
	if math.Abs(got.Total-want) > 1e-9 {
		t.Fatalf("partial sort = %f, want %f", got.Total, want)
	}
	if math.Abs(got.Startup-m.SortCPU(2000)) > 1e-12 {
		t.Fatalf("partial sort startup = %f, want one segment sort %f", got.Startup, m.SortCPU(2000))
	}
	// Full-order-satisfied: zero.
	sorted := xsort.Spec{Schema: threeInts, Target: sortord.New("a"), Given: sortord.New("a")}
	if m.PartialSort(sorted, 2_000_000, 1000).Total != 0 {
		t.Fatal("satisfied order costs nothing")
	}
	// Partial sort must beat a full external sort here.
	if full := m.FullSort(fullSpec, 2_000_000); got.Total >= full.Total {
		t.Fatalf("partial (%f) should beat full (%f)", got.Total, full.Total)
	}
}

func TestPartialSortSegmentsExceedMemory(t *testing.T) {
	m := DefaultModel()
	// 2 segments of a million rows each: still external per segment.
	if xsort.PlanSpill(segSpec, 1_000_000, 0, int(m.MemoryBlocks), m.PageSize).InMemory {
		t.Fatal("a million-row segment should spill at the default M")
	}
	got := m.PartialSort(segSpec, 2_000_000, 2)
	perSeg := m.FullSort(segSpec, 1_000_000)
	if got.Total != 2*perSeg.Total {
		t.Fatalf("oversized segments = %f, want %f", got.Total, 2*perSeg.Total)
	}
	if got.Startup != perSeg.Total {
		t.Fatalf("oversized segments startup = %f, want one full segment %f", got.Startup, perSeg.Total)
	}
	// Degenerate inputs.
	if m.PartialSort(segSpec, 1, 0).Total != 0 {
		t.Fatal("single row free")
	}
	if got := m.PartialSort(segSpec, 100, 0); got.Total != m.FullSort(segSpec, 100).Total {
		t.Fatal("zero segments clamps to 1")
	}
}

func TestMonotonicity(t *testing.T) {
	m := DefaultModel()
	// More segments (finer partial order) never costs more — in total or
	// in time-to-first-row.
	prevTotal, prevStartup := math.Inf(1), math.Inf(1)
	for _, segs := range []int64{1, 10, 100, 1000, 10000} {
		c := m.PartialSort(segSpec, 10_000_000, segs)
		if c.Total > prevTotal {
			t.Fatalf("partial sort not monotone at %d segments: %f > %f", segs, c.Total, prevTotal)
		}
		if c.Startup > prevStartup {
			t.Fatalf("partial sort startup not monotone at %d segments: %f > %f", segs, c.Startup, prevStartup)
		}
		prevTotal, prevStartup = c.Total, c.Startup
	}
}

// TestPrefixInterpolation pins the two-phase contract: Prefix(0) = 0,
// Prefix(N) ≡ Total (so unlimited plan comparisons are unchanged), blocking
// costs charge full Startup from the first row, and the per-row phase
// interpolates linearly.
func TestPrefixInterpolation(t *testing.T) {
	c := Cost{Startup: 100, Total: 300, Rows: 1000}
	if got := c.Prefix(0); got != 0 {
		t.Fatalf("Prefix(0) = %f, want 0", got)
	}
	if got := c.Prefix(-5); got != 0 {
		t.Fatalf("Prefix(-5) = %f, want 0", got)
	}
	if got := c.Prefix(1000); got != c.Total {
		t.Fatalf("Prefix(Rows) = %f, want Total %f", got, c.Total)
	}
	if got := c.Prefix(2000); got != c.Total {
		t.Fatalf("Prefix(>Rows) = %f, want Total %f", got, c.Total)
	}
	if got := c.Prefix(500); math.Abs(got-200) > 1e-12 {
		t.Fatalf("Prefix(500) = %f, want midpoint 200", got)
	}
	// The first row already pays the whole blocking phase.
	if got := c.Prefix(1); got < c.Startup {
		t.Fatalf("Prefix(1) = %f fell below Startup %f", got, c.Startup)
	}
	// Monotone in k.
	prev := 0.0
	for k := int64(0); k <= 1100; k += 100 {
		if p := c.Prefix(k); p < prev {
			t.Fatalf("Prefix not monotone at k=%d: %f < %f", k, p, prev)
		} else {
			prev = p
		}
	}
	// Unknown cardinality degrades to Total (never underestimates).
	u := Cost{Startup: 10, Total: 50, Rows: 0}
	if got := u.Prefix(1); got != u.Total {
		t.Fatalf("Prefix with unknown Rows = %f, want Total", got)
	}
	// A fully blocking cost is flat: every k pays everything.
	b := Blocking(42)
	if b.Prefix(1) != 42 || b.Startup != 42 || b.Total != 42 {
		t.Fatalf("Blocking(42) = %+v", b)
	}
	// A streaming cost starts at ~zero.
	s := Streaming(100, 1000)
	if s.Startup != 0 || s.Prefix(1) >= s.Total {
		t.Fatalf("Streaming cost should pay per row: %+v, Prefix(1)=%f", s, s.Prefix(1))
	}
}

// TestPrefixTopKSortFlip is the model-level version of the tentpole's plan
// flip: at full drain the partial sort and full sort are comparable (or the
// full sort can even win once segments spill), but at small k the partial
// sort's prefix cost is orders of magnitude lower because only ⌈k·D/N⌉
// segment sorts are charged while the full sort blocks on everything.
func TestPrefixTopKSortFlip(t *testing.T) {
	m := DefaultModel()
	rows := int64(10_000_000)
	full := m.FullSort(fullSpec, rows)
	partial := m.PartialSort(segSpec, rows, 10_000)
	for _, k := range []int64{1, 100} {
		f, p := full.Prefix(k), partial.Prefix(k)
		if p*100 > f {
			t.Fatalf("k=%d: partial prefix %f not ≪ full prefix %f", k, p, f)
		}
	}
	// And at k = N both degrade to their totals.
	if full.Prefix(rows) != full.Total || partial.Prefix(rows) != partial.Total {
		t.Fatal("Prefix(N) must equal Total")
	}
}

func TestJoinAndAggCosts(t *testing.T) {
	m := DefaultModel()
	if m.MergeJoinCPU(100, 200) != 300*m.TupleWeight {
		t.Fatal("merge join cpu")
	}
	// In-memory hash join: CPU only; only the build side blocks.
	inMem := m.HashJoinCost(1000, 1000, 100, 100)
	if inMem.Total != 2000*m.HashWeight {
		t.Fatalf("in-memory hash join = %f", inMem.Total)
	}
	if inMem.Startup != 1000*m.HashWeight {
		t.Fatalf("hash join startup = %f, want the build side %f", inMem.Startup, 1000*m.HashWeight)
	}
	// Build exceeds memory: partition I/O added, all of it blocking.
	spill := m.HashJoinCost(1000, 1000, 20_000, 20_000)
	if spill.Total != 2000*m.HashWeight+2*40_000 {
		t.Fatalf("spilling hash join = %f", spill.Total)
	}
	if spill.Startup != 1000*m.HashWeight+2*40_000 {
		t.Fatalf("spilling hash join startup = %f", spill.Startup)
	}
	if m.GroupAggCPU(500) != 500*m.TupleWeight {
		t.Fatal("group agg cpu")
	}
	// Hash aggregation is fully blocking.
	if ha := m.HashAggCost(500, 10); ha.Total != 500*m.HashWeight || ha.Startup != ha.Total {
		t.Fatalf("hash agg in-memory = %+v", ha)
	}
	if ha := m.HashAggCost(500, 20_000); ha.Total != 500*m.HashWeight+2*20_000 || ha.Startup != ha.Total {
		t.Fatalf("hash agg spill = %+v", ha)
	}
	if m.ScanIO(42) != 42 {
		t.Fatal("scan io")
	}
	if m.FilterCPU(10) != 10*m.TupleWeight || m.ProjectCPU(10) != 10*m.TupleWeight {
		t.Fatal("per-tuple cpu")
	}
	if m.MergeUnionCPU(10) != 10*m.TupleWeight {
		t.Fatal("union cpu")
	}
}

func TestNLJoinCost(t *testing.T) {
	m := DefaultModel()
	// Outer fits in memory: inner spooled once + read once; the spool
	// write is the blocking half.
	if got := m.NLJoinCost(100, 500); got.Total != 1000 {
		t.Fatalf("one-block NL join = %f", got.Total)
	} else if got.Startup != 500 {
		t.Fatalf("NL join startup = %f, want the spool write 500", got.Startup)
	}
	// Outer = 3.5 memory units: 4 rescans + spool.
	if got := m.NLJoinCost(35_000, 500); got.Total != 500+4*500 {
		t.Fatalf("multi-block NL join = %f", got.Total)
	}
}

func TestSortCheaperWithPartialPrefixRealScenario(t *testing.T) {
	// The Query 3 decision (§6.2): sorting 6M lineitem index entries fully
	// on (partkey, suppkey) vs partially from (suppkey) to (suppkey,
	// partkey). D(suppkey) = 10000 segments.
	m := DefaultModel()
	rows := int64(6_000_000)
	full := m.FullSort(fullSpec, rows)
	partial := m.PartialSort(segSpec, rows, 10_000)
	if partial.Total >= full.Total/10 {
		t.Fatalf("partial (%f) should be at least 10x cheaper than full (%f)", partial.Total, full.Total)
	}
}

// TestSpillLayoutPricing pins what a spilled sort pays beyond its pages: runs
// hold rows and nothing else, so every row a merge reads back is keyed again
// (KeyEncodeWeight) — on the reduction pass, which blocks, and on the final
// merge read, which streams. With the weights zeroed the price is the run
// pages alone.
func TestSpillLayoutPricing(t *testing.T) {
	m := DefaultModel()
	m.CmpWeight, m.MemoryBlocks = 0, 5
	const rows = 16 * 396 // 16 memory loads, all merged once at fan-in 4
	p := xsort.PlanSpill(segSpec, rows, 0, 5, m.PageSize)
	if p.MergedRows != rows || p.FinalRows != rows {
		t.Fatalf("merges read %d and %d rows, want all %d twice", p.MergedRows, p.FinalRows, rows)
	}
	key := rows * m.KeyEncodeWeight
	got := m.FullSort(segSpec, rows)
	if want := float64(p.Written+p.Read) + key; got.Startup != want {
		t.Fatalf("external sort startup = %f, want %f", got.Startup, want)
	}
	if want := float64(p.Pages()) + 2*key; math.Abs(got.Total-want) > 1e-9 {
		t.Fatalf("external sort = %f, want %f", got.Total, want)
	}
	bare := paperModel()
	bare.MemoryBlocks = 5
	if bare.FullSort(segSpec, rows).Total != float64(p.Pages()) {
		t.Fatal("zeroed weights must leave the bare run pages")
	}
	// In-memory sorts never read a run.
	noKey := DefaultModel()
	noKey.KeyEncodeWeight = 0
	if DefaultModel().FullSort(fullSpec, 1000) != noKey.FullSort(fullSpec, 1000) {
		t.Fatal("merge-read key work must not reprice in-memory sorts")
	}
}

// TestBoundedSort pins the Top-K pricing: while the kept rows fit M a bounded
// sort pays no spill term, however large its input — n·log₂k selection CPU
// alone — and emits keep rows; when they do not fit it writes its whole input
// as runs once; keep ≤ 0 is no bound. How those prices order against each
// other is TestSpillPlanOrdering's.
func TestBoundedSort(t *testing.T) {
	m := DefaultModel()
	m.MemoryBlocks = 16
	const rows = 200_000 // ≈ 140 memory loads: the full sort is deep external

	fits := m.BoundedSort(fullSpec, rows, 100)
	if fits.Rows != 100 {
		t.Fatalf("a bounded sort emits keep rows, got %d", fits.Rows)
	}
	if want := float64(rows) * math.Log2(100) * m.CmpWeight; fits.Total != want || fits.Startup != want {
		t.Fatalf("k rows fit M: cost = %+v, want pure n·log₂k CPU %f", fits, want)
	}
	if fits.Total >= m.SortCPU(rows) {
		t.Fatalf("selecting 100 of %d rows must undercut sorting them: %f vs %f", rows, fits.Total, m.SortCPU(rows))
	}

	// 20 000 kept rows do not fit 16 blocks.
	spills := m.BoundedSort(fullSpec, rows, 20_000)
	p := xsort.PlanSpill(fullSpec, rows, 20_000, 16, m.PageSize)
	if p.InMemory || p.Written < rows/132 || spills.Startup < float64(p.Written) {
		t.Fatalf("a spilling bounded sort still writes its input once: %+v, startup %f", p, spills.Startup)
	}
	if spills.Startup > spills.Total || spills.Rows != 20_000 {
		t.Fatalf("spilling bounded sort = %+v", spills)
	}
	for _, keep := range []int64{0, -1} {
		if got := m.BoundedSort(fullSpec, rows, keep); got != m.FullSort(fullSpec, rows) {
			t.Fatalf("keep=%d is no bound: %+v", keep, got)
		}
	}
}
