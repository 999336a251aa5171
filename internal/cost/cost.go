// Package cost implements the optimizer's cost model in I/O units, following
// §3.2 of the paper:
//
//	coe(e, ε, o)  = cpu-cost(e, o)                    if B(e) ≤ M
//	              = B(e)·(2·⌈log_{M-1}(B(e)/M)⌉ + 1)  otherwise
//
//	coe(e, o1, o2) = D(e, attrs(o2 ∧ o1)) · coe(e', ε, o2 − (o2 ∧ o1))
//	                 where e' = one partial-sort segment of e
//	                 (N(e') = N/D, B(e') = B/D, uniformity assumed)
//
// Both are one enforcer, xsort.MRS over D segments (D = 1 for the full
// sort), and Model.Sort prices it — bounded at its first k rows too, as §7's
// Top-K bounds it — in one function.
//
// The external case's pages come from xsort.PlanSpill, the sorter's own
// spill plan, not from the logarithm: what fits M is what its row store
// holds; a segment larger than that forms its runs by replacement
// selection, about two memory loads each, and only a bound between one and
// two loads writes memory-load batches instead (xsort.replacementSelection);
// a pass rewrites only what the final merge cannot take. With n = F^k runs
// that is B·(2p+1) less the input read the scan below the sort already
// pays, to two pages per run file (TestFullSortExternalFormula). B·(2p+1)
// holds only when a reduction runs: a sort whose final merge needs no pass
// keeps the rows its store holds at input end for that merge, so only the
// rest — B less about a memory load — is written and read back.
//
// CPU work is translated into I/O units by per-operation weights, as the
// paper does ("CPU cost is appropriately translated into I/O cost units").
//
// Costs are two-phase: every operator formula is split into the blocking
// work that must happen before the first output row exists (Startup — an
// external sort's run formation and reduction passes, a hash join's build,
// a full sort's input consumption) and the full-drain total (Total). Cost.Prefix(k)
// interpolates the cost of producing only the first k rows, which is what a
// Top-K consumer pays under a pipelined plan: a partial sort's prefix cost
// grows one segment sort at a time (SortPrice.PrefixCost), while a blocking
// operator charges its full Startup before the first row no matter how
// small k is (§3.1 benefit 2, §7 Top-K).
package cost

import (
	"math"

	"pyro/internal/xsort"
)

// Cost is the two-phase cost of producing a tuple stream: Startup is the
// blocking work spent before the first output row, Total the full-drain
// work, and Rows the output cardinality Total corresponds to. The zero
// value is a free, empty stream. Invariant: 0 ≤ Startup ≤ Total.
//
// Plan costs compose Cost values: a streaming operator adds per-row work to
// Total only and inherits its child's Startup; a blocking operator folds
// its child's entire Total into Startup. Prefix interpolates between the
// two phases, so comparing plans by Prefix(k) is exactly the paper's
// full-drain comparison at k ≥ Rows and a time-to-first-row comparison at
// k = 1.
type Cost struct {
	Startup float64
	Total   float64
	Rows    int64
}

// Prefix returns the cost of producing the first k output rows: 0 for
// k ≤ 0 (a LIMIT 0 consumer needs nothing), Total for k ≥ Rows (so
// Prefix(N) ≡ Total and unlimited comparisons are unchanged), and the
// linear interpolation Startup + (Total−Startup)·k/Rows in between — the
// per-row phase is assumed uniform, which for a partial sort of D uniform
// segments makes Prefix(k) track the ⌈k·D/N⌉ segment sorts the paper's
// operator actually performs.
func (c Cost) Prefix(k int64) float64 {
	if k <= 0 {
		return 0
	}
	if c.Rows <= 0 || k >= c.Rows {
		return c.Total
	}
	return c.Startup + (c.Total-c.Startup)*float64(k)/float64(c.Rows)
}

// Streaming builds the cost of a fully pipelined operator phase: no
// blocking startup, work spread uniformly over rows output rows.
func Streaming(work float64, rows int64) Cost {
	return Cost{Startup: 0, Total: work, Rows: rows}
}

// Blocking builds the cost of a phase that completes entirely before the
// first output row (hash build, a full sort's input consumption).
func Blocking(work float64) Cost {
	return Cost{Startup: work, Total: work}
}

// Model carries the cost parameters. The zero value is not usable; use
// DefaultModel and override fields as needed.
type Model struct {
	// PageSize is the disk block size in bytes.
	PageSize int
	// MemoryBlocks is M: blocks of main memory available to sorts.
	MemoryBlocks int64
	// CmpWeight converts one key comparison into I/O units.
	CmpWeight float64
	// HashWeight converts one hash-table operation into I/O units.
	HashWeight float64
	// TupleWeight converts one per-tuple pipeline step into I/O units.
	TupleWeight float64
	// KeyEncodeWeight converts one sort-key normalization into I/O units.
	// A key is encoded once at input collection, and again every time its
	// row is read back from a run: runs hold rows only, so each merge read
	// carries one key encode per row on top of the transfer.
	KeyEncodeWeight float64
}

// DefaultModel mirrors the paper's environment: 4 KiB blocks and M = 10000
// blocks (40 MB) of sort memory.
func DefaultModel() Model {
	return Model{
		PageSize:        4096,
		MemoryBlocks:    10000,
		CmpWeight:       1e-5,
		HashWeight:      5e-5,
		TupleWeight:     1e-5,
		KeyEncodeWeight: 2e-5,
	}
}

// SortCPU is cpu-cost(e, o): the in-memory sort cost for rows tuples.
func (m Model) SortCPU(rows int64) float64 {
	if rows <= 1 {
		return 0
	}
	return float64(rows) * math.Log2(float64(rows)) * m.CmpWeight
}

// SegmentBudget returns how many of a partial sort's segments must be
// collected and sorted to deliver the first k of rows output rows:
// ⌈k·segments/rows⌉, clamped to [1, segments] (uniform segments, §3.2's
// N/D assumption). A consumer that reads only k rows pays for exactly this
// many segment sorts, not all D of them.
func SegmentBudget(k, rows, segments int64) int64 {
	if segments <= 1 || k <= 0 {
		return 1
	}
	if rows <= 0 || k >= rows {
		return segments
	}
	return min(max((k*segments+rows-1)/rows, 1), segments)
}

// SortPrice is one sort enforcer as the model prices it: xsort.MRS over N
// input rows in Segments segments of N/Segments rows (a full sort is one
// segment), bounded at its first Limit rows (0: unbounded). It holds
// the sort's own work; Cost and PrefixCost compose it over the input it
// reads. The zero value is no sort.
type SortPrice struct {
	Segments int64 // D, the segments it sorts its input in
	Limit    int64 // the most rows anyone reads of it; 0 is no bound

	rows, segRows int64 // N and N/D
	seg           Cost  // each segment sort before the last one a consumer reaches
	last          Cost  // the last segment sort a consumer of all it emits reaches
}

// Sort prices the enforcer xsort.MRS(s.Given, limit) over rows rows of s in
// segments segments: coe(e, o1, o2) = D · coe(e', ε, o2 − (o2 ∧ o1)) of
// §3.2, with the full sort coe(e, ε, o) as the case D = 1, bounded at its
// first limit rows as §7's Top-K bounds it (limit ≤ 0: no bound).
//
// One segment sort is priced from its spill plan, xsort.PlanSpill at
// M = MemoryBlocks: its comparisons, plus one unit per run page moved and
// KeyEncodeWeight per row a merge reads back (runs hold rows only, so a
// merge keys every row it reads). In memory it blocks on all of it — the
// buffer must be full and sorted before the smallest key is known; external,
// it blocks on run formation and the intermediate passes and streams its
// final merge read.
//
// An unbounded sort's segments are all alike, priced with no limit. A
// bounded one emits limit rows from the first SegmentBudget(limit, N, D)
// segments: those before the last are sorted by the bounded collector at
// rows they never reach, and the last at the rows still owed from it. Every
// row of a segment cut short costs log₂ of the rows kept, not log₂ of the
// segment, and nothing spills while those fit M. A limit of N or more
// still bounds: the limit decides whether a store numbers its rows and
// which run formation it uses.
func (m Model) Sort(s xsort.Spec, rows, segments, limit int64) SortPrice {
	p := SortPrice{Segments: max(segments, 1), Limit: max(limit, 0), rows: rows}
	p.segRows = max(rows/p.Segments, 1)
	if rows <= 1 || s.Given.Len() >= s.Target.Len() {
		return p
	}
	segment := func(keep int64) Cost {
		n := p.segRows
		cpu := m.SortCPU(n)
		if keep > 0 && keep < n {
			cpu = float64(n) * math.Log2(math.Max(float64(keep), 2)) * m.CmpWeight
		}
		sp := xsort.PlanSpill(s, n, keep, int(m.MemoryBlocks), m.PageSize)
		startup := cpu + float64(sp.Written+sp.Read) + float64(sp.MergedRows)*m.KeyEncodeWeight
		return Cost{Startup: startup, Total: startup + float64(sp.FinalRead) + float64(sp.FinalRows)*m.KeyEncodeWeight}
	}
	if p.Limit == 0 {
		p.seg = segment(0)
		p.last = p.seg
		return p
	}
	// A single covering segment is planned once.
	covering := SegmentBudget(p.Limit, rows, p.Segments)
	if covering > 1 {
		p.seg = segment(p.Limit)
	}
	p.last = segment(p.Limit - (covering-1)*p.segRows)
	return p
}

// Cost is the sort's cumulative cost over its input: in is the input's cost
// and prefix(k) what its first k rows cost (core.Plan.PrefixCost). The sort
// emits all its rows, or Limit of them, once it has read and sorted the
// segments that hold them (through). Its first row waits for one segment of
// input, priced by in.Prefix, and for that segment's blocking phase: the
// final merge of a spilled segment streams.
func (p SortPrice) Cost(in Cost, prefix func(int64) float64) Cost {
	rows := p.emits()
	total := p.through(rows, in, prefix)
	first := p.last.Startup
	if SegmentBudget(rows, p.rows, p.Segments) > 1 {
		first = p.seg.Startup
	}
	return Cost{Startup: min(in.Prefix(p.segRows)+first, total), Total: total, Rows: rows}
}

// PrefixCost is what the sort's first k rows cost over its input (see
// Cost): 0 for k ≤ 0 and the total from its last row on. A partial sort,
// bounded or not, steps one segment sort at a time (through) — the §3.1
// pipelining benefit the two-phase model exists to price — while a full
// sort streams its final merge: it interpolates its Cost.
func (p SortPrice) PrefixCost(k int64, in Cost, prefix func(int64) float64) float64 {
	if p.Segments > 1 && k > 0 && k < p.emits() {
		return p.through(k, in, prefix)
	}
	return p.Cost(in, prefix).Prefix(k)
}

// emits is how many rows the sort hands out: N, or its Limit below that.
func (p SortPrice) emits() int64 {
	if p.Limit > 0 {
		return min(p.rows, p.Limit)
	}
	return p.rows
}

// through is what the sort's first k rows cost as a consumer reaches them
// segment by segment: the input rows of the c = SegmentBudget(k, N, D)
// segments that hold them — the whole input, at its total, once k reaches
// N — the c−1 segment sorts before the one row k is in, and that one's
// blocking phase plus its share of the final merge it streams (none in
// memory) for the rows it has handed out by k. The segment row k is in is
// the last one a bounded sort reaches only when it is the last that covers
// its limit.
func (p SortPrice) through(k int64, in Cost, prefix func(int64) float64) float64 {
	c := SegmentBudget(k, p.rows, p.Segments)
	read := in.Total
	if k < p.rows {
		read = prefix(min(c*p.segRows, p.rows))
	}
	cur, n := p.seg, p.segRows
	if covering := SegmentBudget(p.emits(), p.rows, p.Segments); c == covering {
		cur, n = p.last, p.emits()-(covering-1)*p.segRows
	}
	done := cur.Total
	if out := k - (c-1)*p.segRows; out < n {
		done = cur.Startup + (cur.Total-cur.Startup)*float64(out)/float64(n)
	}
	return read + float64(c-1)*p.seg.Total + done
}

// ScanIO is the cost of a sequential scan over blocks pages (streaming:
// pages are read as the consumer pulls).
func (m Model) ScanIO(blocks int64) float64 { return float64(blocks) }

// MergeJoinCPU is CM: the per-tuple merging cost of a merge join
// (streaming: both inputs are consumed in step with output production).
func (m Model) MergeJoinCPU(leftRows, rightRows int64) float64 {
	return float64(leftRows+rightRows) * m.TupleWeight
}

// HashJoinCost covers build + probe CPU plus Grace-style partition I/O when
// the build side exceeds memory. The build phase (hashing every build row,
// and the full partition pass when spilling) blocks before the first output
// row; probing streams.
func (m Model) HashJoinCost(probeRows, buildRows, probeBlocks, buildBlocks int64) Cost {
	total := float64(probeRows+buildRows) * m.HashWeight
	startup := float64(buildRows) * m.HashWeight
	if buildBlocks > m.MemoryBlocks {
		// One partition pass: write and re-read both inputs — all of it
		// before the first match can be emitted.
		io := 2 * float64(probeBlocks+buildBlocks)
		total += io
		startup += io
	}
	return Cost{Startup: startup, Total: total, Rows: probeRows}
}

// GroupAggCPU is the streaming aggregate cost over sorted input.
func (m Model) GroupAggCPU(rows int64) float64 { return float64(rows) * m.TupleWeight }

// HashAggCost covers hashing every input row, plus spill I/O when the group
// state exceeds memory. Hash aggregation is fully blocking: no group is
// final until the last input row has been consumed.
func (m Model) HashAggCost(rows, groupBlocks int64) Cost {
	c := float64(rows) * m.HashWeight
	if groupBlocks > m.MemoryBlocks {
		c += 2 * float64(groupBlocks)
	}
	return Blocking(c)
}

// FilterCPU is the per-tuple predicate cost (streaming).
func (m Model) FilterCPU(rows int64) float64 { return float64(rows) * m.TupleWeight }

// ProjectCPU is the per-tuple projection cost (streaming).
func (m Model) ProjectCPU(rows int64) float64 { return float64(rows) * m.TupleWeight }

// MergeUnionCPU is the per-tuple merge cost of a sorted union (streaming).
func (m Model) MergeUnionCPU(rows int64) float64 { return float64(rows) * m.TupleWeight }

// FetchCost is the deferred-fetch cost (§7): one random heap page read plus
// one seek per fetched row, with the clustering index's inner nodes cached
// (streaming: one lookup per consumed row).
func (m Model) FetchCost(rows int64) float64 { return 2 * float64(rows) }

// NLJoinCost is block nested loops: spool the inner once, then rescan it
// per outer block group. The spool write blocks before the first row; the
// rescans stream with output production.
func (m Model) NLJoinCost(outerBlocks, innerBlocks int64) Cost {
	groups := outerBlocks / m.MemoryBlocks
	if outerBlocks%m.MemoryBlocks != 0 || groups == 0 {
		groups++
	}
	return Cost{
		Startup: float64(innerBlocks),
		Total:   float64(innerBlocks) + float64(groups)*float64(innerBlocks),
	}
}
