package cost

import (
	"math"
	"testing"
)

func TestFullSortInMemory(t *testing.T) {
	m := DefaultModel()
	// Fits in memory: CPU only, and fully blocking (Startup == Total).
	got := m.FullSort(1000, 100)
	want := m.SortCPU(1000)
	if got.Total != want {
		t.Fatalf("in-memory sort = %f, want cpu %f", got.Total, want)
	}
	if got.Startup != got.Total {
		t.Fatalf("in-memory sort must block on its whole CPU cost: startup %f, total %f",
			got.Startup, got.Total)
	}
	if m.FullSort(0, 0).Total != 0 || m.FullSort(1, 1).Total != 0 {
		t.Fatal("degenerate sorts are free")
	}
}

// paperModel zeroes the merge reads' key work so FullSort reduces to the
// paper's bare B·(2p + 1); that term is pinned separately in
// TestSpillLayoutPricing.
func paperModel() Model {
	m := DefaultModel()
	m.KeyEncodeWeight = 0
	return m
}

func TestFullSortExternalFormula(t *testing.T) {
	m := paperModel()
	// B = 50000, M = 10000: one merge pass => B*(2*1+1) = 150000, of which
	// the final pipelined merge read (B) streams and the passes (2B) block.
	if got := m.FullSort(2_000_000, 50_000); got.Total != 150_000 {
		t.Fatalf("external sort = %f, want 150000", got.Total)
	} else if got.Startup != 100_000 {
		t.Fatalf("external sort startup = %f, want the 2pB pass term 100000", got.Startup)
	}
	// B = M+1: still one pass.
	if got := m.FullSort(1_000_000, 10_001); got.Total != 3*10_001 {
		t.Fatalf("barely external = %f", got.Total)
	}
	// Very large: log_{M-1}(B/M) grows. B = M * (M-1)^2 needs 2 passes.
	b := m.MemoryBlocks * (m.MemoryBlocks - 1) * (m.MemoryBlocks - 1)
	if got := m.FullSort(b*10, b); got.Total != float64(b)*5 {
		t.Fatalf("two-pass sort = %f, want %f", got.Total, float64(b)*5)
	}
	// In-memory sorts pay no spill term.
	if got := m.FullSort(1000, 100); got != DefaultModel().FullSort(1000, 100) || got.Total != m.SortCPU(1000) {
		t.Fatalf("in-memory sort = %+v, want cpu %f", got, m.SortCPU(1000))
	}
	// PartialSort prices its oversized segments through FullSort: two
	// segments of 25000 blocks, each one pass, B·3 apiece.
	if got := m.PartialSort(2_000_000, 50_000, 2, 1); got.Total != 2*75_000 || got.Total != 2*m.FullSort(1_000_000, 25_000).Total {
		t.Fatalf("spilling partial sort = %f, want 2 × 75000", got.Total)
	}
}

// TestFullSortFiniteAndMonotoneInMemory: more sort memory never prices a
// sort higher, and no budget prices it at infinity. The governor's
// ExpectedGrant reaches 1 and 2 blocks under contention, where a merge base
// of M−1 used to give one pass (M=1: 3 600 for this input, below M=3's
// 22 800) and +Inf (M=2).
func TestFullSortFiniteAndMonotoneInMemory(t *testing.T) {
	m := DefaultModel()
	prev := math.Inf(1)
	for mem := int64(1); mem <= 64; mem++ {
		m.MemoryBlocks = mem
		c := m.FullSort(100_000, 1_000)
		if math.IsInf(c.Total, 0) || math.IsNaN(c.Total) || c.Total <= 0 || c.Startup > c.Total {
			t.Fatalf("M=%d: cost %+v is not a finite positive two-phase cost", mem, c)
		}
		if c.Total > prev {
			t.Fatalf("M=%d costs %.0f, more than M=%d's %.0f", mem, c.Total, mem-1, prev)
		}
		prev = c.Total
	}
	// Budgets of 1..3 blocks all merge two runs at a time: ⌈log2(B/M)⌉ passes
	// of 2·1 000 transfers plus the final read, each read keying 100 000
	// rows (2 units).
	for mem, want := range map[int64]float64{1: 10*2002 + 1002, 2: 9*2002 + 1002, 3: 9*2002 + 1002} {
		m.MemoryBlocks = mem
		if got := m.FullSort(100_000, 1_000).Total; math.Abs(got-want) > 1e-6 {
			t.Errorf("M=%d: cost %.1f, want %.1f", mem, got, want)
		}
	}
}

func TestPartialSort(t *testing.T) {
	m := DefaultModel()
	// 2M rows, 50k blocks, 1000 segments: each segment 2000 rows, 50
	// blocks => in-memory per segment. Cost = 1000 * cpu(2000), and only
	// the first segment's sort blocks the first row.
	got := m.PartialSort(2_000_000, 50_000, 1000, 2)
	want := 1000 * m.SortCPU(2000)
	if math.Abs(got.Total-want) > 1e-9 {
		t.Fatalf("partial sort = %f, want %f", got.Total, want)
	}
	if math.Abs(got.Startup-m.SortCPU(2000)) > 1e-12 {
		t.Fatalf("partial sort startup = %f, want one segment sort %f", got.Startup, m.SortCPU(2000))
	}
	// Full-order-satisfied: zero.
	if m.PartialSort(2_000_000, 50_000, 1000, 0).Total != 0 {
		t.Fatal("satisfied order costs nothing")
	}
	// Partial sort must beat a full external sort here.
	if full := m.FullSort(2_000_000, 50_000); got.Total >= full.Total {
		t.Fatalf("partial (%f) should beat full (%f)", got.Total, full.Total)
	}
}

func TestPartialSortSegmentsExceedMemory(t *testing.T) {
	m := DefaultModel()
	// 2 segments of 25000 blocks each: still external per segment.
	got := m.PartialSort(2_000_000, 50_000, 2, 1)
	perSeg := m.FullSort(1_000_000, 25_000)
	if got.Total != 2*perSeg.Total {
		t.Fatalf("oversized segments = %f, want %f", got.Total, 2*perSeg.Total)
	}
	if got.Startup != perSeg.Total {
		t.Fatalf("oversized segments startup = %f, want one full segment %f", got.Startup, perSeg.Total)
	}
	// Degenerate inputs.
	if m.PartialSort(1, 1, 0, 1).Total != 0 {
		t.Fatal("single row free")
	}
	if got := m.PartialSort(100, 10, 0, 1); got.Total != m.FullSort(100, 10).Total {
		t.Fatal("zero segments clamps to 1")
	}
}

func TestMonotonicity(t *testing.T) {
	m := DefaultModel()
	// More segments (finer partial order) never costs more — in total or
	// in time-to-first-row.
	prevTotal, prevStartup := math.Inf(1), math.Inf(1)
	for _, segs := range []int64{1, 10, 100, 1000, 10000} {
		c := m.PartialSort(10_000_000, 300_000, segs, 3)
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
	rows, blocks := int64(10_000_000), int64(300_000)
	full := m.FullSort(rows, blocks)
	partial := m.PartialSort(rows, blocks, 10_000, 1)
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
	rows, blocks := int64(6_000_000), int64(30_000)
	full := m.FullSort(rows, blocks)
	partial := m.PartialSort(rows, blocks, 10_000, 1)
	if partial.Total >= full.Total/10 {
		t.Fatalf("partial (%f) should be at least 10x cheaper than full (%f)", partial.Total, full.Total)
	}
}

// TestSpillLayoutPricing pins what a spilled sort pays per transfer: the
// run's blocks — runs hold rows and nothing else — plus, on every merge read,
// one key encode per row; with that weight zeroed it is the paper's formula.
func TestSpillLayoutPricing(t *testing.T) {
	rows, blocks := int64(2_000_000), int64(50_000)
	m := DefaultModel()
	// One pass: bare I/O B·3 = 150000 plus the key work — rows ·
	// KeyEncodeWeight on the reduction pass and again on the final merge
	// read: 2·2M·2e-5 = 80.
	got := m.FullSort(rows, blocks)
	if got.Total != 150_080 {
		t.Fatalf("external sort = %f, want 150080", got.Total)
	}
	// The key work blocks with its pass and streams with the final merge,
	// exactly like the I/O it rides on.
	if got.Startup != 100_040 {
		t.Fatalf("external sort startup = %f, want 100040", got.Startup)
	}
	// In-memory sorts never read a run.
	if m.FullSort(1000, 100) != paperModel().FullSort(1000, 100) {
		t.Fatal("merge-read key work must not reprice in-memory sorts")
	}
	if paperModel().FullSort(rows, blocks).Total != 150_000 {
		t.Fatal("a zeroed KeyEncodeWeight must recover B·(2p+1)")
	}
}

// TestBoundedSort pins the Top-K pricing: no spill term when the kept rows
// fit M, however large the input; a truncated spill, cheaper than the full
// sort's, when they do not; and exactly FullSort when the bound is no bound.
func TestBoundedSort(t *testing.T) {
	m := DefaultModel()
	m.MemoryBlocks = 16
	const rows, blocks = 200_000, 1500 // ≈ 94 × M: FullSort is deep external

	full := m.FullSort(rows, blocks)
	fits := m.BoundedSort(rows, blocks, 100, 6)
	if fits.Rows != 100 {
		t.Fatalf("a bounded sort emits keep rows, got %d", fits.Rows)
	}
	if want := float64(rows) * math.Log2(100) * m.CmpWeight; fits.Total != want || fits.Startup != want {
		t.Fatalf("k rows fit M: cost = %+v, want pure n·log₂k CPU %f", fits, want)
	}
	if fits.Total >= m.SortCPU(rows) {
		t.Fatalf("selecting 100 of %d rows must undercut sorting them: %f vs %f", rows, fits.Total, m.SortCPU(rows))
	}

	// 20 000 kept rows, 600 blocks in memory: they do not fit 16 blocks.
	spills := m.BoundedSort(rows, blocks, 20_000, 600)
	written := float64(blocks)
	if spills.Startup < written {
		t.Fatalf("a spilling bounded sort still writes its input once: startup %f < %f", spills.Startup, written)
	}
	if spills.Total >= full.Total {
		t.Fatalf("truncated runs must cost less than the full external sort: %f vs %f", spills.Total, full.Total)
	}
	if spills.Startup > spills.Total {
		t.Fatalf("Startup %f exceeds Total %f", spills.Startup, spills.Total)
	}
	// More kept rows never cost less.
	if more := m.BoundedSort(rows, blocks, 40_000, 1200); more.Total < spills.Total {
		t.Fatalf("keeping more rows got cheaper: %f < %f", more.Total, spills.Total)
	}

	for _, keep := range []int64{0, rows, rows + 1} {
		if got := m.BoundedSort(rows, blocks, keep, 1); got != full {
			t.Fatalf("keep=%d is no bound: %+v, want FullSort %+v", keep, got, full)
		}
	}

	// The governor can hand out a 1- or 2-block grant; the price stays finite.
	for _, mem := range []int64{1, 2, 3} {
		m.MemoryBlocks = mem
		if c := m.BoundedSort(rows, blocks, 20_000, 600); math.IsInf(c.Total, 0) || math.IsNaN(c.Total) || c.Total <= 0 {
			t.Fatalf("M=%d: bounded sort priced at %f", mem, c.Total)
		}
	}
}
