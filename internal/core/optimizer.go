package core

import (
	"fmt"
	"math"

	"pyro/internal/cost"
	"pyro/internal/exec"
	"pyro/internal/expr"
	"pyro/internal/ford"
	"pyro/internal/logical"
	"pyro/internal/ordersel"
	"pyro/internal/sortord"
	"pyro/internal/xsort"
)

// Heuristic selects the interesting-order strategy for operators with
// flexible order requirements (merge join, sort aggregate — DISTINCT
// included — and merge union). Names follow the paper's §6.2/§6.3 variants.
type Heuristic uint8

const (
	// HeuristicArbitrary is PYRO: one arbitrary permutation per operator,
	// no partial-sort exploitation — a baseline Volcano optimizer.
	HeuristicArbitrary Heuristic = iota
	// HeuristicFavorableExact is PYRO-O⁻: favorable orders drive the
	// choice but only exact matches count (no partial-sort enforcers).
	HeuristicFavorableExact
	// HeuristicPostgres is PYRO-P: for each of the n attributes, one order
	// beginning with that attribute (rest arbitrary); partial sort enabled.
	HeuristicPostgres
	// HeuristicFavorable is PYRO-O: the paper's proposal — interesting
	// orders from approximate minimal favorable orders, partial sort
	// enabled, phase-2 refinement.
	HeuristicFavorable
	// HeuristicExhaustive is PYRO-E: all n! permutations.
	HeuristicExhaustive
)

func (h Heuristic) String() string {
	switch h {
	case HeuristicArbitrary:
		return "PYRO"
	case HeuristicFavorableExact:
		return "PYRO-O-"
	case HeuristicPostgres:
		return "PYRO-P"
	case HeuristicFavorable:
		return "PYRO-O"
	case HeuristicExhaustive:
		return "PYRO-E"
	}
	return fmt.Sprintf("Heuristic(%d)", uint8(h))
}

// Options configures an optimization run.
type Options struct {
	Heuristic Heuristic
	Model     cost.Model
	// DisablePartialSort turns off partial-sort enforcers (set by default
	// for PYRO and PYRO-O⁻).
	DisablePartialSort bool
	// DisablePhase2 skips the §5.2.2 plan refinement.
	DisablePhase2 bool
	// DisableHashJoin / DisableMergeJoin / DisableHashAgg restrict the
	// physical algebra; used to force specific plan shapes when
	// reproducing the paper's comparison plans.
	DisableHashJoin  bool
	DisableMergeJoin bool
	DisableHashAgg   bool
	// RowTarget, when positive, optimizes for first-k consumption: plans
	// are compared by PrefixCost(RowTarget) — the cost of producing the
	// first RowTarget rows — instead of full-drain Total, and the row
	// budget is pushed down through order-preserving operators so deep
	// enforcer choices (partial sort vs full sort vs hash) see it too. A
	// Limit node in the query imposes its K the same way regardless of
	// this field. 0 (the default) prices full result production; since
	// PrefixCost(N) ≡ Cost.Total, unlimited plan choices are identical to
	// the scalar model's.
	RowTarget int64
}

// DefaultOptions returns the canonical configuration for a heuristic.
func DefaultOptions(h Heuristic) Options {
	o := Options{Heuristic: h, Model: cost.DefaultModel()}
	if h == HeuristicArbitrary || h == HeuristicFavorableExact {
		o.DisablePartialSort = true
	}
	if h != HeuristicFavorable {
		o.DisablePhase2 = true
	}
	return o
}

// Stats reports optimizer work for the scalability experiment (Fig 16).
type Stats struct {
	GoalsExplored   int
	PlansCosted     int
	OrdersTried     int
	Phase2Applied   bool
	Phase2Improved  bool
	Phase2FreeAttrs int
}

// Result is the outcome of an optimization run.
type Result struct {
	Plan  *Plan
	Stats Stats
}

// Optimizer carries the state of one optimization run.
type Optimizer struct {
	opts   Options
	fc     *ford.Computer
	memo   map[logical.Node]map[string]*Plan
	forced map[*logical.Join]sortord.Order
	stats  Stats
}

// Optimize plans the query rooted at root under the given options. A root
// OrderBy node becomes the required output order.
func Optimize(root logical.Node, opts Options) (*Result, error) {
	if opts.Model.PageSize == 0 {
		opts.Model = cost.DefaultModel()
	}
	opt := &Optimizer{
		opts:   opts,
		fc:     ford.NewComputer(root),
		memo:   make(map[logical.Node]map[string]*Plan),
		forced: make(map[*logical.Join]sortord.Order),
	}
	node, required := root, sortord.Empty
	if ob, ok := root.(*logical.OrderBy); ok {
		node, required = ob.Child, ob.Order
	}
	budget := opts.RowTarget
	if budget < 0 {
		budget = 0
	}
	plan, err := opt.bestPlan(node, required, budget)
	if err != nil {
		return nil, err
	}
	if !opts.DisablePhase2 {
		refined, err := opt.refine(node, required, plan, budget)
		if err != nil {
			return nil, err
		}
		opt.stats.Phase2Applied = true
		if refined != nil && opt.cheaper(refined, plan, budget) {
			opt.stats.Phase2Improved = true
			plan = refined
		}
	}
	return &Result{Plan: plan, Stats: opt.stats}, nil
}

// cheaper compares two plans under the active row budget: with a budget the
// first budget rows' cost decides (full-drain total breaks ties); without
// one the comparison is the scalar model's full-drain comparison, so
// unlimited plan choices are bit-identical to the pre-prefix optimizer.
func (opt *Optimizer) cheaper(a, b *Plan, budget int64) bool {
	if budget > 0 {
		pa, pb := a.PrefixCost(budget), b.PrefixCost(budget)
		if pa != pb {
			return pa < pb
		}
	}
	return a.Cost.Total < b.Cost.Total
}

// scaleBudget translates a row budget across an operator boundary: if the
// consumer stops after k of outRows output rows, the operator will have
// pulled about k·inRows/outRows of its child's inRows rows (uniformity, the
// same assumption Prefix interpolation makes). 0 propagates "no budget".
func scaleBudget(k, outRows, inRows int64) int64 {
	if k <= 0 {
		return 0
	}
	if outRows <= 0 || inRows <= 0 || k >= outRows {
		return inRows
	}
	scaled := (k*inRows + outRows - 1) / outRows
	if scaled < 1 {
		scaled = 1
	}
	if scaled > inRows {
		scaled = inRows
	}
	return scaled
}

// mergeSideBudget translates a row budget through one side of a merge join
// at key granularity instead of raw row ratio: a consumer that stops after
// k of the join's outRows rows has advanced past about k·D_out/outRows
// distinct join keys, and the side will have been pulled through that many
// of its own key groups — keys·sideRows/D_side rows. Under uniform per-key
// multiplicities this reduces to scaleBudget's row ratio; when the sides'
// multiplicities differ (one side near-unique, the other heavily
// duplicated — the correlated-key case) the row ratio over-budgets the
// duplicated side and starves the unique one, and the key-granularity
// split prices each side by what the merge actually consumes. Degenerate
// distinct or row estimates fall back to the row-ratio scaling.
func mergeSideBudget(k int64, props logical.Props, joinKey []string, side logical.Props, sideKey []string) int64 {
	if k <= 0 {
		return 0
	}
	dOut := props.DistinctOn(joinKey)
	dSide := side.DistinctOn(sideKey)
	if dOut <= 0 || dSide <= 0 || props.Rows <= 0 || side.Rows <= 0 {
		return scaleBudget(k, props.Rows, side.Rows)
	}
	if k >= props.Rows {
		return side.Rows
	}
	keys := (k*dOut + props.Rows - 1) / props.Rows
	if keys < 1 {
		keys = 1
	}
	rows := (keys*side.Rows + dSide - 1) / dSide
	if rows < 1 {
		rows = 1
	}
	if rows > side.Rows {
		rows = side.Rows
	}
	return rows
}

// blocksFor estimates B(e) for a plan node's actual schema width.
func (opt *Optimizer) blocksFor(rows int64, width int) int64 {
	if rows == 0 {
		return 0
	}
	if width <= 0 {
		width = 8
	}
	per := int64(opt.opts.Model.PageSize) / int64(width)
	if per <= 0 {
		per = 1
	}
	b := rows / per
	if rows%per != 0 || b == 0 {
		b++
	}
	return b
}

// bestPlan returns the cheapest plan for (n, required) under the row
// budget (0 = the consumer drains everything; k > 0 = the consumer stops
// after k rows, so candidates are compared by PrefixCost(k)); memoized on
// all three.
func (opt *Optimizer) bestPlan(n logical.Node, required sortord.Order, budget int64) (*Plan, error) {
	return opt.boundedPlan(n, required, budget, 0)
}

// boundedPlan is bestPlan for a node whose output a Limit reads directly: at
// most bound rows of it will ever be consumed (0 = no such promise). A budget
// is a hint — a plan optimized for a row target may still be drained — and
// only steers plan comparison; a bound is a guarantee, so a sort enforced on
// this node's output may discard everything past its first bound rows
// (Plan.SortLimit).
// The bound describes the first rows of this node's output *in the required
// order*, so it reaches a child only through nodes that preserve cardinality
// (Project, a nested OrderBy or Limit) and only where no re-sort will stand
// between the two: a node whose output must still be re-ordered hands on no
// bound, and the enforcer above it takes it instead. Every other operator
// plans its children unbounded.
func (opt *Optimizer) boundedPlan(n logical.Node, required sortord.Order, budget, bound int64) (*Plan, error) {
	key := required.Key()
	if budget > 0 {
		key = fmt.Sprintf("%s#%d", key, budget)
	}
	if bound > 0 {
		key = fmt.Sprintf("%s!%d", key, bound)
	}
	if m, ok := opt.memo[n]; ok {
		if p, hit := m[key]; hit {
			return p, nil
		}
	} else {
		opt.memo[n] = make(map[string]*Plan)
	}
	opt.stats.GoalsExplored++

	var candidates []*Plan
	var canon func(sortord.Order) sortord.Order
	var err error
	switch t := n.(type) {
	case *logical.Scan:
		candidates, err = opt.scanCandidates(t)
	case *logical.Select:
		candidates, err = opt.selectCandidates(t, required, budget)
	case *logical.Project:
		candidates, err = opt.projectCandidates(t, required, budget, bound)
	case *logical.Join:
		candidates, err = opt.joinCandidates(t, required, budget)
		canon = t.CanonicalizeOrder
	case *logical.GroupBy:
		candidates, err = opt.groupByCandidates(t, required, budget)
	case *logical.Union:
		candidates, err = opt.unionCandidates(t, required, budget)
	case *logical.Limit:
		candidates, err = opt.limitCandidates(t, required, budget, bound)
	case *logical.OrderBy:
		// Nested order-by: optimize the child for the combined order. The
		// bound counts rows in the required order: it is the child's too only
		// when the child's order already gives that one, so that the enforce
		// below adds no sort. Otherwise the child must produce every row and
		// the re-sort above it is the bounded one.
		childBound := bound
		if !required.IsEmpty() && !required.PrefixOf(t.Order) {
			childBound = 0
		}
		child, cerr := opt.boundedPlan(t.Child, t.Order, budget, childBound)
		if cerr != nil {
			return nil, cerr
		}
		candidates, err = []*Plan{child}, nil
	default:
		return nil, fmt.Errorf("core: unknown logical node %T", n)
	}
	if err != nil {
		return nil, err
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: no physical plan for %T", n)
	}

	var best *Plan
	props := n.Props()
	for _, cand := range candidates {
		opt.stats.PlansCosted++
		final := opt.enforce(cand, required, props, canon, bound)
		if best == nil || opt.cheaper(final, best, budget) {
			best = final
		}
	}
	opt.memo[n][key] = best
	return best, nil
}

// limitCandidates plans a LIMIT K node. Limit preserves order, so the
// requirement passes through; the child is planned under a row budget of K
// (tightened by any enclosing budget) and the node's full-drain cost is the
// child's K-prefix cost — execution stops pulling and closes the child at K
// (exec.Limit), so the child work beyond the first K rows is never
// performed. K = 0 has defined semantics: an empty result at zero cost,
// planned without a child so no degenerate sort is ever built (the executor
// compiles it to an empty Values leaf).
//
// Unlike a budget, K is a promise: nothing past the child's first K rows is
// ever read, so the child is planned under K as a bound (tightened by an
// enclosing Limit's) and a sort sitting directly below sorts only K rows.
//
// The requirement passes through only while it cannot change *which* K rows
// survive: below a Limit whose input has an order of its own (ordered), the
// first K rows in that order are the answer, so the child is planned for its
// own order and the requirement is enforced above the Limit, on K rows.
func (opt *Optimizer) limitCandidates(t *logical.Limit, required sortord.Order, budget, bound int64) ([]*Plan, error) {
	rows := t.Props().Rows
	if t.K == 0 {
		return []*Plan{{
			Kind:     OpLimit,
			LimitK:   0,
			Schema:   t.Schema(),
			OutOrder: required.Clone(),
			Rows:     0,
			Blocks:   0,
			Cost:     cost.Cost{},
			Logical:  t,
		}}, nil
	}
	childBudget := t.K
	if budget > 0 && budget < childBudget {
		childBudget = budget
	}
	childBound := t.K
	if !required.IsEmpty() && ordered(t.Child) {
		// All K rows feed the sort above; an enclosing bound is that sort's.
		required = sortord.Empty
	} else if bound > 0 && bound < childBound {
		childBound = bound
	}
	child, err := opt.boundedPlan(t.Child, required, childBudget, childBound)
	if err != nil {
		return nil, err
	}
	// The child's Startup field interpolates linearly while PrefixCost
	// steps partial sorts one segment at a time, so at tiny K the stepped
	// total can undercut the interpolated startup; clamp to preserve the
	// Startup ≤ Total invariant ancestors' Prefix interpolation relies on.
	total := child.PrefixCost(t.K)
	startup := child.Cost.Startup
	if startup > total {
		startup = total
	}
	return []*Plan{{
		Kind:     OpLimit,
		Children: []*Plan{child},
		LimitK:   t.K,
		Schema:   child.Schema,
		OutOrder: child.OutOrder,
		Rows:     rows,
		Blocks:   opt.blocksFor(rows, child.Schema.AvgTupleWidth()),
		Cost: cost.Cost{
			Startup: startup,
			Total:   total,
			Rows:    rows,
		},
		Logical: t,
	}}, nil
}

// ordered reports whether n's output has an order the query asked for: an
// OrderBy, seen through the nodes that keep row order (Project, Select, Limit).
func ordered(n logical.Node) bool {
	for {
		switch t := n.(type) {
		case *logical.OrderBy:
			return true
		case *logical.Project:
			n = t.Child
		case *logical.Select:
			n = t.Child
		case *logical.Limit:
			n = t.Child
		default:
			return false
		}
	}
}

// enforce adds a (partial) sort on top of plan if it does not already
// guarantee required. canon, when non-nil, maps equivalent column names
// (both sides of an equijoin) to a canonical spelling before comparison.
//
// Cost composition is where the two phases diverge: a full sort (SRS)
// blocks on its child's entire drain plus its own startup, while a partial
// sort (MRS) needs only the first segment's worth of input and one segment
// sort before emitting — the child's prefix cost for N/D rows. Totals
// compose exactly as the scalar model did.
//
// A positive bound (see boundedPlan) below the input's cardinality makes the
// enforcer a bounded sort, annotated and priced by boundSort.
func (opt *Optimizer) enforce(plan *Plan, required sortord.Order, props logical.Props, canon func(sortord.Order) sortord.Order, bound int64) *Plan {
	if required.IsEmpty() {
		return plan
	}
	reqC, provC := required, plan.OutOrder
	if canon != nil {
		reqC, provC = canon(required), canon(plan.OutOrder)
	}
	if reqC.PrefixOf(provC) {
		return plan
	}
	prefix := sortord.LCP(reqC, provC)
	if opt.opts.DisablePartialSort {
		prefix = sortord.Empty
	}
	segments := int64(1)
	if !prefix.IsEmpty() {
		segments = props.DistinctOn(prefix)
		if segments < 1 {
			segments = 1
		}
	}
	node := &Plan{
		Kind:       OpSort,
		Children:   []*Plan{plan},
		SortTarget: required.Clone(),
		SortGiven:  required[:prefix.Len()].Clone(),
		Schema:     plan.Schema,
		OutOrder:   required.Clone(),
		Rows:       plan.Rows,
		Blocks:     plan.Blocks,
	}
	if !prefix.IsEmpty() && segments > 1 {
		node.SortSegments = segments
	}
	if bound > 0 && bound < plan.Rows {
		opt.boundSort(node, segments, bound)
		return node
	}
	spec := xsort.Spec{Schema: plan.Schema, Target: node.SortTarget, Given: node.SortGiven}
	var sortCost cost.Cost
	var startup float64
	if node.SortSegments > 1 {
		// Partial sort: pipelined. First row after one segment of input and
		// one segment sort.
		sortCost = opt.opts.Model.PartialSort(spec, plan.Rows, segments)
		perSegRows := plan.Rows / segments
		if perSegRows < 1 {
			perSegRows = 1
		}
		startup = plan.Cost.Prefix(perSegRows) + sortCost.Startup
	} else {
		// Full sort (or a single-segment partial sort, which degenerates to
		// one full sort of everything): the whole input is consumed before
		// the first row, then the sort's own blocking phase runs (an
		// external sort still streams its final merge read).
		sortCost = opt.opts.Model.FullSort(spec, plan.Rows)
		startup = plan.Cost.Total + sortCost.Startup
	}
	node.Cost = cost.Cost{
		Startup: startup,
		Total:   plan.Cost.Total + sortCost.Total,
		Rows:    plan.Rows,
	}
	return node
}

// boundSort turns the enforcer node into the bounded sort a Limit reading at
// most bound rows of it allows (bound < the input's rows), and prices it as
// what the executor does with xsort.Config.Limit: the input prefix of the
// s = ⌈bound·D/N⌉ covering segments, s−1 ordinary segment sorts, and a
// bounded selection (cost.Model.BoundedSort) of the rows still owed in the
// last covering segment — no spill term when those rows fit M. The node
// emits bound rows, so its Total is already the cost of everything a
// consumer can ask of it.
func (opt *Optimizer) boundSort(node *Plan, segments, bound int64) {
	m, plan := opt.opts.Model, node.Children[0]
	spec := xsort.Spec{Schema: plan.Schema, Target: node.SortTarget, Given: node.SortGiven}
	segRows := plan.Rows
	if segments > 1 {
		segRows = max(plan.Rows/segments, 1)
	}
	covering := ordersel.SegmentBudget(bound, plan.Rows, segments)
	inRows := min(covering*segRows, plan.Rows)
	owed := bound - (covering-1)*segRows // of the last covering segment
	// Segments before the last are cut at rows they never reach, but are
	// sorted by the same bounded collector. A single covering segment has
	// none, and its sort is planned once.
	var full cost.Cost
	if covering > 1 {
		full = m.BoundedSort(spec, segRows, bound)
	}
	last := m.BoundedSort(spec, segRows, owed)

	total := plan.PrefixCost(inRows) + float64(covering-1)*full.Total + last.Total
	// First row: one segment of input and that segment's sort — the bounded
	// selection itself when a single segment covers the bound.
	startup := plan.Cost.Prefix(segRows) + full.Total
	if covering == 1 {
		startup = plan.Cost.Prefix(inRows) + last.Startup
	}
	node.SortLimit = bound
	node.Rows = bound
	node.Blocks = opt.blocksFor(bound, plan.Schema.AvgTupleWidth())
	node.Cost = cost.Cost{Startup: math.Min(startup, total), Total: total, Rows: bound}
}

func (opt *Optimizer) scanCandidates(s *logical.Scan) ([]*Plan, error) {
	t := s.Table
	plans := []*Plan{{
		Kind:     OpTableScan,
		Table:    t,
		Schema:   t.Schema,
		OutOrder: t.ClusterOrder.Clone(),
		Rows:     t.Stats.NumRows,
		Blocks:   t.NumBlocks(),
		Cost:     cost.Streaming(opt.opts.Model.ScanIO(t.NumBlocks()), t.Stats.NumRows),
		Logical:  s,
	}}
	need := opt.fc.NeededAttrs(t)
	for _, ix := range t.Indices {
		if !ix.Covers(need) {
			continue
		}
		plans = append(plans, &Plan{
			Kind:     OpIndexScan,
			Index:    ix,
			Schema:   ix.Schema(),
			OutOrder: ix.KeyOrder.Clone(),
			Rows:     t.Stats.NumRows,
			Blocks:   ix.NumBlocks(),
			Cost:     cost.Streaming(opt.opts.Model.ScanIO(ix.NumBlocks()), t.Stats.NumRows),
			Logical:  s,
		})
	}
	return plans, nil
}

func (opt *Optimizer) selectCandidates(s *logical.Select, required sortord.Order, budget int64) ([]*Plan, error) {
	props := s.Props()
	// A filter streams: the budget scales up by the inverse selectivity (k
	// output rows require ~k·in/out input rows).
	childBudget := scaleBudget(budget, props.Rows, s.Child.Props().Rows)
	mk := func(child *Plan) *Plan {
		return &Plan{
			Kind:     OpFilter,
			Children: []*Plan{child},
			Pred:     s.Pred,
			Schema:   child.Schema,
			OutOrder: child.OutOrder,
			Rows:     props.Rows,
			Blocks:   opt.blocksFor(props.Rows, child.Schema.AvgTupleWidth()),
			Cost: cost.Cost{
				Startup: child.Cost.Startup,
				Total:   child.Cost.Total + opt.opts.Model.FilterCPU(child.Rows),
				Rows:    props.Rows,
			},
			Logical: s,
		}
	}
	var plans []*Plan
	// Push the requirement below the filter (order-preserving)…
	if !required.IsEmpty() && s.Child.Schema().HasAll(required.Attrs()) {
		child, err := opt.bestPlan(s.Child, required, childBudget)
		if err != nil {
			return nil, err
		}
		plans = append(plans, mk(child))
	}
	// …or filter first and sort the (smaller) result above.
	child, err := opt.bestPlan(s.Child, sortord.Empty, childBudget)
	if err != nil {
		return nil, err
	}
	plans = append(plans, mk(child))

	// Deferred fetch (§7): filter cheap non-covering index entries first,
	// then fetch full heap rows only for survivors. Competitive when the
	// predicate is selective or when the index's key order is wanted.
	plans = append(plans, opt.deferredFetchCandidates(s, props)...)
	return plans, nil
}

// deferredFetchCandidates builds Fetch(Filter(IndexScan)) plans for every
// non-covering secondary index that stores the predicate columns and the
// table's clustering key.
func (opt *Optimizer) deferredFetchCandidates(s *logical.Select, props logical.Props) []*Plan {
	scan, ok := s.Child.(*logical.Scan)
	if !ok {
		return nil
	}
	t := scan.Table
	if t.ClusterOrder.IsEmpty() || !t.HasPageDirectory() {
		return nil
	}
	// The clustering key must be a verified unique key: otherwise a fetch
	// by key would pull back sibling heap rows the index-side filter never
	// approved.
	if len(t.Stats.KeyCols) != t.ClusterOrder.Len() {
		return nil
	}
	needed := opt.fc.NeededAttrs(t)
	predCols := expr.Columns(s.Pred)
	keyCols := t.ClusterOrder.Attrs()
	var plans []*Plan
	for _, ix := range t.Indices {
		stored := ix.StoredAttrs()
		if ix.Covers(needed) {
			continue // covering index: the plain index-scan path handles it
		}
		if !stored.ContainsAll(predCols) || !stored.ContainsAll(keyCols) {
			continue
		}
		iscan := &Plan{
			Kind:     OpIndexScan,
			Index:    ix,
			Schema:   ix.Schema(),
			OutOrder: ix.KeyOrder.Clone(),
			Rows:     t.Stats.NumRows,
			Blocks:   ix.NumBlocks(),
			Cost:     cost.Streaming(opt.opts.Model.ScanIO(ix.NumBlocks()), t.Stats.NumRows),
			Logical:  scan,
		}
		flt := &Plan{
			Kind:     OpFilter,
			Children: []*Plan{iscan},
			Pred:     s.Pred,
			Schema:   ix.Schema(),
			OutOrder: iscan.OutOrder,
			Rows:     props.Rows,
			Blocks:   opt.blocksFor(props.Rows, ix.Schema().AvgTupleWidth()),
			Cost: cost.Cost{
				Startup: iscan.Cost.Startup,
				Total:   iscan.Cost.Total + opt.opts.Model.FilterCPU(iscan.Rows),
				Rows:    props.Rows,
			},
			Logical: s,
		}
		// The fetch preserves the child's order only while the looked-up
		// rows come back in child order — they do, one lookup per tuple.
		plans = append(plans, &Plan{
			Kind:      OpFetch,
			Children:  []*Plan{flt},
			Table:     t,
			FetchKeys: append([]string(nil), t.ClusterOrder...),
			Schema:    t.Schema,
			OutOrder:  flt.OutOrder,
			Rows:      props.Rows,
			Blocks:    opt.blocksFor(props.Rows, t.Schema.AvgTupleWidth()),
			Cost: cost.Cost{
				Startup: flt.Cost.Startup,
				Total:   flt.Cost.Total + opt.opts.Model.FetchCost(props.Rows),
				Rows:    props.Rows,
			},
			Logical: s,
		})
	}
	return plans
}

func (opt *Optimizer) projectCandidates(p *logical.Project, required sortord.Order, budget, bound int64) ([]*Plan, error) {
	props := p.Props()
	// Output name -> source child column for plain references.
	toChild := make(map[string]string)
	fromChild := make(map[string]string)
	for _, c := range p.Cols {
		if ref, ok := c.Expr.(expr.ColRef); ok {
			toChild[c.Name] = ref.Name
			if _, taken := fromChild[ref.Name]; !taken {
				fromChild[ref.Name] = c.Name
			}
		}
	}
	mk := func(child *Plan) *Plan {
		// Output order: child order mapped through the projection until the
		// first dropped or computed column.
		var out sortord.Order
		for _, a := range child.OutOrder {
			name, ok := fromChild[a]
			if !ok {
				break
			}
			out = append(out, name)
		}
		// A bounded sort below emits fewer rows than the logical estimate.
		rows := min(props.Rows, child.Rows)
		return &Plan{
			Kind:     OpProject,
			Children: []*Plan{child},
			Cols:     p.Cols,
			Schema:   p.Schema(),
			OutOrder: out,
			Rows:     rows,
			Blocks:   opt.blocksFor(rows, p.Schema().AvgTupleWidth()),
			Cost: cost.Cost{
				Startup: child.Cost.Startup,
				Total:   child.Cost.Total + opt.opts.Model.ProjectCPU(child.Rows),
				Rows:    rows,
			},
			Logical: p,
		}
	}
	// Projection preserves cardinality and order: the budget, and a Limit's
	// bound with it, pass through intact.
	var plans []*Plan
	if !required.IsEmpty() {
		// Translate the requirement through the projection if possible.
		translated := make(sortord.Order, 0, len(required))
		ok := true
		for _, a := range required {
			src, found := toChild[a]
			if !found {
				ok = false
				break
			}
			translated = append(translated, src)
		}
		if ok && p.Child.Schema().HasAll(translated.Attrs()) {
			child, err := opt.boundedPlan(p.Child, translated, budget, bound)
			if err != nil {
				return nil, err
			}
			plans = append(plans, mk(child))
		}
	}
	// Planned for no order, the child keeps the bound only if no sort is to
	// come above the projection either.
	childBound := bound
	if !required.IsEmpty() {
		childBound = 0
	}
	child, err := opt.boundedPlan(p.Child, sortord.Empty, budget, childBound)
	if err != nil {
		return nil, err
	}
	plans = append(plans, mk(child))
	return plans, nil
}

// interestingOrders generates the candidate permutations of attrs for a
// flexible-order operator under the active heuristic.
func (opt *Optimizer) interestingOrders(attrs sortord.AttrSet, inputAFMs [][]sortord.Order, reqRestricted sortord.Order) []sortord.Order {
	var orders []sortord.Order
	switch opt.opts.Heuristic {
	case HeuristicArbitrary:
		orders = []sortord.Order{sortord.APermute(attrs)}
	case HeuristicPostgres:
		for _, a := range attrs.Sorted() {
			rest := attrs.Clone()
			delete(rest, a)
			orders = append(orders, sortord.Concat(sortord.New(a), sortord.APermute(rest)))
		}
	case HeuristicFavorable, HeuristicFavorableExact:
		orders = ford.InterestingOrders(inputAFMs, attrs, reqRestricted)
	case HeuristicExhaustive:
		orders = sortord.Permutations(attrs)
	}
	if len(orders) == 0 {
		orders = []sortord.Order{sortord.APermute(attrs)}
	}
	opt.stats.OrdersTried += len(orders)
	return orders
}

func (opt *Optimizer) joinCandidates(j *logical.Join, required sortord.Order, budget int64) ([]*Plan, error) {
	props := j.Props()
	var plans []*Plan

	if len(j.EquiPairs) == 0 {
		// Non-equijoin: block nested loops only. The inner is spooled and
		// rescanned regardless of how few rows the consumer takes, so no
		// budget reaches the children.
		lp, err := opt.bestPlan(j.Left, sortord.Empty, 0)
		if err != nil {
			return nil, err
		}
		rp, err := opt.bestPlan(j.Right, sortord.Empty, 0)
		if err != nil {
			return nil, err
		}
		nl := opt.opts.Model.NLJoinCost(lp.Blocks, rp.Blocks)
		return []*Plan{{
			Kind:     OpNLJoin,
			Children: []*Plan{lp, rp},
			Pred:     j.Pred,
			JoinType: j.Type,
			Schema:   lp.Schema.Concat(rp.Schema),
			// No order: the join is inner-major within each outer block.
			OutOrder: sortord.Empty,
			Rows:     props.Rows,
			Blocks:   opt.blocksFor(props.Rows, lp.Schema.AvgTupleWidth()+rp.Schema.AvgTupleWidth()),
			Cost: cost.Cost{
				Startup: lp.Cost.Startup + rp.Cost.Total + nl.Startup,
				Total:   lp.Cost.Total + rp.Cost.Total + nl.Total,
				Rows:    props.Rows,
			},
			Logical: j,
		}}, nil
	}

	sLeft := j.JoinAttrSetLeft()
	reqS := j.CanonicalizeOrder(required).LongestPrefixIn(sLeft)

	if !opt.opts.DisableMergeJoin {
		var perms []sortord.Order
		if forced, ok := opt.forced[j]; ok {
			perms = []sortord.Order{forced}
		} else {
			afms := [][]sortord.Order{opt.fc.AFM(j.Left), opt.canonAFM(j, opt.fc.AFM(j.Right))}
			perms = opt.interestingOrders(sLeft, afms, reqS)
		}
		for _, p := range perms {
			mj, err := opt.mergeJoinPlan(j, p, props, budget)
			if err != nil {
				return nil, err
			}
			plans = append(plans, mj)
		}
	}

	if !opt.opts.DisableHashJoin && j.Type != exec.FullOuterJoin {
		// The probe side streams (budget scales through); the build side is
		// drained during startup no matter what the consumer does.
		lp, err := opt.bestPlan(j.Left, sortord.Empty, scaleBudget(budget, props.Rows, j.Left.Props().Rows))
		if err != nil {
			return nil, err
		}
		rp, err := opt.bestPlan(j.Right, sortord.Empty, 0)
		if err != nil {
			return nil, err
		}
		leftKeys := make([]string, len(j.EquiPairs))
		rightKeys := make([]string, len(j.EquiPairs))
		for i, pr := range j.EquiPairs {
			leftKeys[i], rightKeys[i] = pr.Left, pr.Right
		}
		hc := opt.opts.Model.HashJoinCost(lp.Rows, rp.Rows, lp.Blocks, rp.Blocks)
		hj := &Plan{
			Kind:      OpHashJoin,
			Children:  []*Plan{lp, rp},
			LeftKeys:  leftKeys,
			RightKeys: rightKeys,
			JoinType:  j.Type,
			Schema:    lp.Schema.Concat(rp.Schema),
			OutOrder:  sortord.Empty,
			Rows:      props.Rows,
			Blocks:    opt.blocksFor(props.Rows, lp.Schema.AvgTupleWidth()+rp.Schema.AvgTupleWidth()),
			Cost: cost.Cost{
				Startup: lp.Cost.Startup + rp.Cost.Total + hc.Startup,
				Total:   lp.Cost.Total + rp.Cost.Total + hc.Total,
				Rows:    props.Rows,
			},
			Logical: j,
		}
		plans = append(plans, opt.wrapResidual(j, hj, props))
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("core: join %v has no admissible physical operator", j.Pred)
	}
	return plans, nil
}

// mergeJoinPlan builds one merge-join candidate for permutation p (left
// names), wrapping residual predicates in a Filter. A merge join streams
// both inputs, so the budget scales through to each side — split at join
// key granularity (mergeSideBudget), so sides with asymmetric per-key
// multiplicities are each budgeted by what the merge actually pulls.
func (opt *Optimizer) mergeJoinPlan(j *logical.Join, p sortord.Order, props logical.Props, budget int64) (*Plan, error) {
	rightKey := make(sortord.Order, len(p))
	for i, a := range p {
		r, ok := j.RightName(a)
		if !ok {
			return nil, fmt.Errorf("core: join permutation %v has non-join attribute %q", p, a)
		}
		rightKey[i] = r
	}
	lp, err := opt.bestPlan(j.Left, p, mergeSideBudget(budget, props, p, j.Left.Props(), p))
	if err != nil {
		return nil, err
	}
	rp, err := opt.bestPlan(j.Right, rightKey, mergeSideBudget(budget, props, p, j.Right.Props(), rightKey))
	if err != nil {
		return nil, err
	}
	mj := &Plan{
		Kind:     OpMergeJoin,
		Children: []*Plan{lp, rp},
		LeftKey:  p.Clone(),
		RightKey: rightKey,
		JoinType: j.Type,
		Schema:   lp.Schema.Concat(rp.Schema),
		OutOrder: p.Clone(),
		Rows:     props.Rows,
		Blocks:   opt.blocksFor(props.Rows, lp.Schema.AvgTupleWidth()+rp.Schema.AvgTupleWidth()),
		Cost: cost.Cost{
			Startup: lp.Cost.Startup + rp.Cost.Startup,
			Total:   lp.Cost.Total + rp.Cost.Total + opt.opts.Model.MergeJoinCPU(lp.Rows, rp.Rows),
			Rows:    props.Rows,
		},
		Logical: j,
	}
	return opt.wrapResidual(j, mj, props), nil
}

// wrapResidual applies non-equi conjuncts above a join.
func (opt *Optimizer) wrapResidual(j *logical.Join, plan *Plan, props logical.Props) *Plan {
	if len(j.Residual) == 0 {
		return plan
	}
	pred := expr.AndOf(j.Residual...)
	return &Plan{
		Kind:     OpFilter,
		Children: []*Plan{plan},
		Pred:     pred,
		Schema:   plan.Schema,
		OutOrder: plan.OutOrder,
		Rows:     props.Rows,
		Blocks:   plan.Blocks,
		Cost: cost.Cost{
			Startup: plan.Cost.Startup,
			Total:   plan.Cost.Total + opt.opts.Model.FilterCPU(plan.Rows),
			Rows:    props.Rows,
		},
		Logical: j,
	}
}

// canonAFM maps right-input favorable orders into left-side names through
// the join's equi pairs (non-join attributes pass through).
func (opt *Optimizer) canonAFM(j *logical.Join, orders []sortord.Order) []sortord.Order {
	out := make([]sortord.Order, len(orders))
	for i, o := range orders {
		out[i] = j.CanonicalizeOrder(o)
	}
	return out
}

// determiningSubset shrinks the grouping column set using the exact
// functional dependencies carried in the child's properties: a column is
// redundant if the remaining columns determine it (the paper's Query 3
// relies on {ps_partkey, ps_suppkey} → ps_availqty to aggregate on a
// (suppkey, partkey) stream). Only verified FDs participate — estimated
// distinct counts saturate at the row count and would fabricate false
// dependencies, splitting groups at execution time.
func (opt *Optimizer) determiningSubset(child logical.Node, groupCols []string) []string {
	props := child.Props()
	kept := append([]string(nil), groupCols...)
	for i := 0; i < len(kept); {
		trial := append(append([]string(nil), kept[:i]...), kept[i+1:]...)
		if len(trial) > 0 &&
			logical.Determines(sortord.NewAttrSet(trial...), sortord.NewAttrSet(kept[i]), props.FDs) {
			kept = trial
			continue
		}
		i++
	}
	return kept
}

func (opt *Optimizer) groupByCandidates(g *logical.GroupBy, required sortord.Order, budget int64) ([]*Plan, error) {
	props := g.Props()
	var plans []*Plan

	// A streaming aggregate over sorted input emits a group as soon as its
	// last input row passes: the budget scales through by the group size.
	// Hash aggregation drains its child before the first group exists.
	streamBudget := scaleBudget(budget, props.Rows, g.Child.Props().Rows)
	det := opt.determiningSubset(g.Child, g.GroupCols)
	attrs := sortord.NewAttrSet(det...)
	reqRestricted := required.LongestPrefixIn(attrs)
	afms := [][]sortord.Order{opt.fc.AFM(g.Child)}
	for _, p := range opt.interestingOrders(attrs, afms, reqRestricted) {
		child, err := opt.bestPlan(g.Child, p, streamBudget)
		if err != nil {
			return nil, err
		}
		// Output keeps the group columns, so the input order (over group
		// columns only) survives aggregation.
		plans = append(plans, &Plan{
			Kind:      OpGroupAgg,
			Children:  []*Plan{child},
			GroupCols: g.GroupCols,
			Aggs:      g.Aggs,
			Schema:    g.Schema(),
			OutOrder:  p.Clone(),
			Rows:      props.Rows,
			Blocks:    opt.blocksFor(props.Rows, g.Schema().AvgTupleWidth()),
			Cost: cost.Cost{
				Startup: child.Cost.Startup,
				Total:   child.Cost.Total + opt.opts.Model.GroupAggCPU(child.Rows),
				Rows:    props.Rows,
			},
			Logical: g,
		})
	}

	if !opt.opts.DisableHashAgg {
		child, err := opt.bestPlan(g.Child, sortord.Empty, 0)
		if err != nil {
			return nil, err
		}
		outBlocks := opt.blocksFor(props.Rows, g.Schema().AvgTupleWidth())
		ha := opt.opts.Model.HashAggCost(child.Rows, outBlocks)
		plans = append(plans, &Plan{
			Kind:      OpHashAgg,
			Children:  []*Plan{child},
			GroupCols: g.GroupCols,
			Aggs:      g.Aggs,
			Schema:    g.Schema(),
			OutOrder:  sortord.Empty,
			Rows:      props.Rows,
			Blocks:    outBlocks,
			Cost: cost.Cost{
				Startup: child.Cost.Total + ha.Total,
				Total:   child.Cost.Total + ha.Total,
				Rows:    props.Rows,
			},
			Logical: g,
		})
	}
	return plans, nil
}

func (opt *Optimizer) unionCandidates(u *logical.Union, required sortord.Order, budget int64) ([]*Plan, error) {
	props := u.Props()
	var plans []*Plan
	attrs := u.Left.Schema().AttrSet()

	// Merge union: both inputs sorted on the same permutation — the
	// coordinated choice SYS2 lacked in Experiment B2. It streams both
	// inputs, so the budget scales through by each side's share of the
	// output.
	if !required.IsEmpty() {
		lBudget := scaleBudget(budget, props.Rows, u.Left.Props().Rows)
		rBudget := scaleBudget(budget, props.Rows, u.Right.Props().Rows)
		reqRestricted := required.LongestPrefixIn(attrs)
		afms := [][]sortord.Order{opt.fc.AFM(u.Left), opt.translateRightUnion(u, opt.fc.AFM(u.Right))}
		for _, p := range opt.interestingOrders(attrs, afms, reqRestricted) {
			lp, err := opt.bestPlan(u.Left, p, lBudget)
			if err != nil {
				return nil, err
			}
			rightOrder := opt.rightUnionOrder(u, p)
			rp, err := opt.bestPlan(u.Right, rightOrder, rBudget)
			if err != nil {
				return nil, err
			}
			plans = append(plans, &Plan{
				Kind:       OpMergeUnion,
				Children:   []*Plan{lp, rp},
				UnionOrder: p.Clone(),
				Schema:     u.Schema(),
				OutOrder:   p.Clone(),
				Rows:       props.Rows,
				Blocks:     opt.blocksFor(props.Rows, u.Schema().AvgTupleWidth()),
				Cost: cost.Cost{
					Startup: lp.Cost.Startup + rp.Cost.Startup,
					Total:   lp.Cost.Total + rp.Cost.Total + opt.opts.Model.MergeUnionCPU(lp.Rows+rp.Rows),
					Rows:    props.Rows,
				},
				Logical: u,
			})
		}
	}
	// Concatenation emits the left stream to exhaustion before touching the
	// right, so the first budget rows come entirely from the left; the right
	// serves only whatever remains past the left's rows.
	allLeft := budget
	var allRight int64
	if budget > 0 {
		if lr := u.Left.Props().Rows; budget > lr {
			allRight = budget - lr
		}
	}
	lp, err := opt.bestPlan(u.Left, sortord.Empty, allLeft)
	if err != nil {
		return nil, err
	}
	rp, err := opt.bestPlan(u.Right, sortord.Empty, allRight)
	if err != nil {
		return nil, err
	}
	plans = append(plans, &Plan{
		Kind:     OpUnionAll,
		Children: []*Plan{lp, rp},
		Schema:   u.Schema(),
		OutOrder: sortord.Empty,
		Rows:     props.Rows,
		Blocks:   opt.blocksFor(props.Rows, u.Schema().AvgTupleWidth()),
		Cost: cost.Cost{
			// UNION ALL emits the left stream first: the right side's
			// startup is not on the first row's path.
			Startup: lp.Cost.Startup,
			Total:   lp.Cost.Total + rp.Cost.Total,
			Rows:    props.Rows,
		},
		Logical: u,
	})
	return plans, nil
}

// rightUnionOrder maps an output (left-named) order to the right input's
// column names positionally.
func (opt *Optimizer) rightUnionOrder(u *logical.Union, o sortord.Order) sortord.Order {
	ls, rs := u.Left.Schema(), u.Right.Schema()
	out := make(sortord.Order, len(o))
	for i, a := range o {
		out[i] = rs.Col(ls.MustOrdinal(a)).Name
	}
	return out
}

// translateRightUnion maps right-input orders to output names positionally.
func (opt *Optimizer) translateRightUnion(u *logical.Union, orders []sortord.Order) []sortord.Order {
	ls, rs := u.Left.Schema(), u.Right.Schema()
	var out []sortord.Order
	for _, o := range orders {
		mapped := make(sortord.Order, 0, len(o))
		ok := true
		for _, a := range o {
			i, found := rs.Ordinal(a)
			if !found {
				ok = false
				break
			}
			mapped = append(mapped, ls.Col(i).Name)
		}
		if ok {
			out = append(out, mapped)
		}
	}
	return out
}
