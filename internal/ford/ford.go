// Package ford computes approximate minimal favorable orders (afm) for
// logical expressions, per §5.1 of the paper. A favorable order of e is a
// sort order obtainable at less than full-sort cost — clustering orders,
// covering-index key orders, and orders propagated through selections,
// projections, joins and grouping. The afm approximates the minimal
// favorable-order set in one bottom-up pass of the query tree (§5.1.2):
//
//	afm(R)        = {o_R} ∪ {o(I) : I ∈ idx(R), I covers the query}
//	afm(σ(e))     = afm(e)
//	afm(Π_L(e))   = {o ∧ L : o ∈ afm(e)}
//	afm(e1 ⋈ e2)  = T ∪ {(o ∧ S) + ⟨S − attrs(o ∧ S)⟩ : o ∈ T ∪ {ε}},
//	                T = afm(e1) ∪ afm(e2), S = join attribute set
//	afm(G_L(e))   = {(o ∧ L) + ⟨L − attrs(o ∧ L)⟩ : o ∈ afm(e) ∪ {ε}}
//
// "Covers the query" is evaluated against the set of attributes the whole
// query needs from that table, computed in a pre-pass.
package ford

import (
	"pyro/internal/catalog"
	"pyro/internal/expr"
	"pyro/internal/logical"
	"pyro/internal/sortord"
)

// maxOrdersPerNode caps afm growth; the paper observes the number of
// favorable orders is very small in practice (m ≤ 2 per base relation).
const maxOrdersPerNode = 24

// Computer derives afm sets over one query tree. Create one per query with
// NewComputer (it performs the needed-attribute pre-pass), then call AFM on
// any node of that tree.
type Computer struct {
	needed map[*catalog.Table]sortord.AttrSet
	memo   map[logical.Node][]sortord.Order
}

// NewComputer analyses the query rooted at root.
func NewComputer(root logical.Node) *Computer {
	c := &Computer{
		needed: make(map[*catalog.Table]sortord.AttrSet),
		memo:   make(map[logical.Node][]sortord.Order),
	}
	used := sortord.NewAttrSet()
	collectUsedAttrs(root, used)
	// The root's output columns are needed as well.
	for _, n := range root.Schema().Names() {
		used.Add(n)
	}
	var scan func(n logical.Node)
	scan = func(n logical.Node) {
		if s, ok := n.(*logical.Scan); ok {
			need := s.Table.Schema.AttrSet().Intersect(used)
			c.needed[s.Table] = need
		}
		for _, ch := range n.Children() {
			scan(ch)
		}
	}
	scan(root)
	return c
}

// collectUsedAttrs gathers every attribute referenced by any expression in
// the tree (predicates, projections, aggregates, group and order columns).
func collectUsedAttrs(n logical.Node, into sortord.AttrSet) {
	switch t := n.(type) {
	case *logical.Select:
		t.Pred.CollectColumns(into)
	case *logical.Project:
		for _, c := range t.Cols {
			c.Expr.CollectColumns(into)
		}
	case *logical.Join:
		if t.Pred != nil {
			t.Pred.CollectColumns(into)
		}
	case *logical.GroupBy:
		for _, g := range t.GroupCols {
			into.Add(g)
		}
		for _, a := range t.Aggs {
			if a.Arg != nil {
				a.Arg.CollectColumns(into)
			}
		}
	case *logical.OrderBy:
		for _, a := range t.Order {
			into.Add(a)
		}
	case *logical.Union, *logical.Scan:
	}
	for _, ch := range n.Children() {
		collectUsedAttrs(ch, into)
	}
}

// NeededAttrs returns the attributes the query needs from a table (what a
// covering index must store).
func (c *Computer) NeededAttrs(t *catalog.Table) sortord.AttrSet {
	if s, ok := c.needed[t]; ok {
		return s
	}
	return t.Schema.AttrSet()
}

// AFM returns the approximate minimal favorable orders of node n (which
// must belong to the tree given to NewComputer).
func (c *Computer) AFM(n logical.Node) []sortord.Order {
	if orders, ok := c.memo[n]; ok {
		return orders
	}
	var orders []sortord.Order
	switch t := n.(type) {
	case *logical.Scan:
		orders = c.afmScan(t)
	case *logical.Select:
		orders = c.AFM(t.Child)
	case *logical.Project:
		orders = c.afmProject(t)
	case *logical.Join:
		orders = c.afmJoin(t)
	case *logical.GroupBy:
		orders = extendThrough(c.AFM(t.Child), sortord.NewAttrSet(t.GroupCols...))
	case *logical.Union:
		orders = extendThrough(
			append(append([]sortord.Order{}, c.AFM(t.Left)...), translateUnion(t, c.AFM(t.Right))...),
			t.Left.Schema().AttrSet())
	case *logical.OrderBy:
		orders = c.AFM(t.Child)
	}
	orders = dedupOrders(orders)
	if len(orders) > maxOrdersPerNode {
		orders = orders[:maxOrdersPerNode]
	}
	c.memo[n] = orders
	return orders
}

func (c *Computer) afmScan(s *logical.Scan) []sortord.Order {
	var orders []sortord.Order
	if !s.Table.ClusterOrder.IsEmpty() {
		orders = append(orders, s.Table.ClusterOrder.Clone())
	}
	need := c.NeededAttrs(s.Table)
	for _, ix := range s.Table.Indices {
		if ix.Covers(need) {
			orders = append(orders, ix.KeyOrder.Clone())
		}
	}
	return orders
}

func (c *Computer) afmProject(p *logical.Project) []sortord.Order {
	// Map child column names to output names for plain column projections.
	rename := make(map[string]string)
	for _, col := range p.Cols {
		if ref, ok := col.Expr.(expr.ColRef); ok {
			if _, taken := rename[ref.Name]; !taken {
				rename[ref.Name] = col.Name
			}
		}
	}
	var out []sortord.Order
	for _, o := range c.AFM(p.Child) {
		var mapped sortord.Order
		for _, a := range o {
			newName, ok := rename[a]
			if !ok {
				break // o ∧ L: stop at the first non-projected attribute
			}
			mapped = append(mapped, newName)
		}
		if len(mapped) > 0 {
			out = append(out, mapped)
		}
	}
	return out
}

func (c *Computer) afmJoin(j *logical.Join) []sortord.Order {
	leftAFM := c.AFM(j.Left)
	rightAFM := c.AFM(j.Right)
	// T: input favorable orders pass through (§5.1.2: a merge join
	// propagates its key order; the paper's nested-loops join the outer's,
	// though pyro's block NL join emits none).
	t := make([]sortord.Order, 0, len(leftAFM)+len(rightAFM))
	t = append(t, leftAFM...)
	t = append(t, rightAFM...)

	sLeft := j.JoinAttrSetLeft()
	sRight := j.JoinAttrSetRight()
	out := append([]sortord.Order{}, t...)
	// Extend each T order's join-attribute prefix to a full permutation of
	// S; also the bare ⟨S⟩ from ε.
	candidates := append(append([]sortord.Order{}, t...), sortord.Empty)
	for _, o := range candidates {
		prefix := o.LongestPrefixIn(sLeft)
		if prefix.Len() == 0 {
			prefix = j.CanonicalizeOrder(o.LongestPrefixIn(sRight))
		}
		ext := prefix.ExtendToSet(sLeft)
		if ext.Len() > 0 {
			out = append(out, ext)
		}
	}
	return out
}

// extendThrough applies the group-by rule: for each input order (and ε),
// keep the prefix within L and extend with the remaining L attributes in
// arbitrary order. DISTINCT is a group-by over every column, so it takes
// this rule through the GroupBy case; a union applies it over its columns.
func extendThrough(input []sortord.Order, l sortord.AttrSet) []sortord.Order {
	var out []sortord.Order
	for _, o := range append(append([]sortord.Order{}, input...), sortord.Empty) {
		ext := o.LongestPrefixIn(l).ExtendToSet(l)
		if ext.Len() > 0 {
			out = append(out, ext)
		}
	}
	return out
}

// translateUnion maps right-input orders to the union's output (left)
// column names positionally.
func translateUnion(u *logical.Union, orders []sortord.Order) []sortord.Order {
	rs, ls := u.Right.Schema(), u.Left.Schema()
	var out []sortord.Order
	for _, o := range orders {
		var mapped sortord.Order
		ok := true
		for _, a := range o {
			i, found := rs.Ordinal(a)
			if !found {
				ok = false
				break
			}
			mapped = append(mapped, ls.Col(i).Name)
		}
		if ok && len(mapped) > 0 {
			out = append(out, mapped)
		}
	}
	return out
}

func dedupOrders(orders []sortord.Order) []sortord.Order {
	seen := make(map[string]struct{}, len(orders))
	out := make([]sortord.Order, 0, len(orders))
	for _, o := range orders {
		if o.IsEmpty() {
			continue
		}
		k := o.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, o)
	}
	return sortord.SortOrders(out)
}

// RemoveRedundant drops any order that is a prefix of another in the set
// (step 2 of the I(e, o) computation in §5.2.1).
func RemoveRedundant(orders []sortord.Order) []sortord.Order {
	var out []sortord.Order
	for i, o := range orders {
		redundant := false
		for k, p := range orders {
			if i == k {
				continue
			}
			if o.PrefixOf(p) && (!p.PrefixOf(o) || i > k) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, o)
		}
	}
	return out
}

// InterestingOrders computes I(e, o) for a merge-style operator whose
// flexible requirement is "some permutation of attrs": collect the inputs'
// favorable orders restricted to attrs plus the required output order's
// restriction, drop redundant prefixes, and extend everything to full
// permutations of attrs (§5.2.1). requiredOut may be ε.
func InterestingOrders(inputAFMs [][]sortord.Order, attrs sortord.AttrSet, requiredOut sortord.Order) []sortord.Order {
	var t []sortord.Order
	for _, afm := range inputAFMs {
		for _, o := range afm {
			if p := o.LongestPrefixIn(attrs); p.Len() > 0 {
				t = append(t, p)
			}
		}
	}
	if p := requiredOut.LongestPrefixIn(attrs); p.Len() > 0 {
		t = append(t, p)
	}
	t = dedupOrders(t)
	t = RemoveRedundant(t)
	out := make([]sortord.Order, 0, len(t)+1)
	for _, o := range t {
		out = append(out, o.ExtendToSet(attrs))
	}
	if len(out) == 0 {
		out = append(out, sortord.APermute(attrs))
	}
	return dedupOrders(out)
}
