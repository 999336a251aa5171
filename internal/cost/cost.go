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
// The external case's pages come from xsort.PlanSpill, the sorter's own
// spill plan, not from the logarithm: what fits M is what its row store
// holds, runs are one memory load (MRS) or about two (replacement
// selection), and a pass rewrites only what the final merge cannot take.
// With memory-load runs and n = F^k of them that is B·(2p+1) less the input
// read the scan below the sort already pays (TestFullSortExternalFormula).
// B·(2p+1) holds only when a reduction runs: a sort whose final merge needs
// no pass keeps the rows its store holds at input end for that merge, so
// only the rest — B less about a memory load — is written and read back.
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
// grows one segment sort at a time, while a blocking operator charges its
// full Startup before the first row no matter how small k is (§3.1
// benefit 2, §7 Top-K).
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

// FullSort is coe(e, ε, o) for rows rows of s: a sort from scratch or, when s
// has a given prefix, one segment of a partial sort. See sortCost.
func (m Model) FullSort(s xsort.Spec, rows int64) Cost {
	return m.sortCost(s, rows, 0, m.SortCPU(rows))
}

// BoundedSort is the cost of a sort of rows rows of s whose consumer reads
// only the first keep of them — a LIMIT sitting on the sort
// (xsort.Config.Limit, §7 Top-K). The sort becomes a bounded selection:
// every input row costs log₂ keep comparisons instead of log₂ rows and, the
// point, it spills nothing while keep rows fit M, however large the input —
// rows past the cut-off are dropped, never buffered. When they do not fit,
// its runs and merges are cut at keep rows. keep ≥ rows cuts nothing, but the
// sort is still the bounded one; keep ≤ 0 is a FullSort. The result's Rows is
// at most keep: the bounded sort emits no more.
func (m Model) BoundedSort(s xsort.Spec, rows, keep int64) Cost {
	if keep <= 0 {
		return m.FullSort(s, rows)
	}
	cpu := m.SortCPU(rows)
	if keep < rows {
		cpu = float64(rows) * math.Log2(math.Max(float64(keep), 2)) * m.CmpWeight
	}
	c := m.sortCost(s, rows, keep, cpu)
	c.Rows = min(rows, keep)
	return c
}

// sortCost prices one sort bounded by limit (0: none) from its spill plan,
// xsort.PlanSpill at M = MemoryBlocks: cpu, plus one unit per run page moved
// and KeyEncodeWeight per row a merge reads back (runs hold rows only, so a
// merge keys every row it reads). An in-memory sort blocks on all of it: the
// buffer must be full and sorted before the smallest key is known. An external
// one blocks on run formation and the intermediate passes and streams its
// final merge read.
func (m Model) sortCost(s xsort.Spec, rows, limit int64, cpu float64) Cost {
	if rows <= 1 {
		return Cost{Rows: rows}
	}
	p := xsort.PlanSpill(s, rows, limit, int(m.MemoryBlocks), m.PageSize)
	startup := cpu + float64(p.Written+p.Read) + float64(p.MergedRows)*m.KeyEncodeWeight
	return Cost{
		Startup: startup,
		Total:   startup + float64(p.FinalRead) + float64(p.FinalRows)*m.KeyEncodeWeight,
		Rows:    rows,
	}
}

// PartialSort is coe(e, o1, o2) for rows rows of s expressed via the segment
// count: the caller computes D = D(e, attrs(o2 ∧ o1)) and passes it along
// with N(e). Each of the D segments is a FullSort of N/D rows; if s.Given
// covers s.Target (o2 ≤ o1) the cost is zero.
//
// The split: only the first segment must be collected and sorted before the
// first row exists (Startup = one segment's full sort), and each further
// block of N/D rows costs one more segment sort — the property that makes
// Prefix(k) charge ≈ ⌈k·D/N⌉ segment sorts and a Top-K plan comparison
// favor the pipelined enforcer.
func (m Model) PartialSort(s xsort.Spec, rows, segments int64) Cost {
	if s.Given.Len() >= s.Target.Len() || rows <= 1 {
		return Cost{Rows: rows}
	}
	segments = max(segments, 1)
	seg := m.FullSort(s, max(rows/segments, 1))
	return Cost{
		Startup: seg.Total,
		Total:   float64(segments) * seg.Total,
		Rows:    rows,
	}
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
