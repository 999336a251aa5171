package ordersel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pyro/internal/sortord"
)

func set(attrs ...string) sortord.AttrSet { return sortord.NewAttrSet(attrs...) }

func TestPathOrderTwoNodes(t *testing.T) {
	perms, benefit := PathOrder([]sortord.AttrSet{set("a", "b", "c"), set("b", "c", "d")})
	if benefit != 2 {
		t.Fatalf("benefit = %d, want 2 (|{b,c}|)", benefit)
	}
	if got := sortord.LCP(perms[0], perms[1]).Len(); got != 2 {
		t.Fatalf("realized lcp = %d, want 2 (perms %v)", got, perms)
	}
}

func TestPathOrderCompletePermutations(t *testing.T) {
	sets := []sortord.AttrSet{set("a", "x"), set("a", "b"), set("b", "y")}
	perms, _ := PathOrder(sets)
	for i, p := range perms {
		if !p.Attrs().Equal(sets[i]) || p.HasDuplicates() {
			t.Fatalf("perm %d = %v is not a permutation of %v", i, p, sets[i])
		}
	}
}

func TestPathOrderRealizesDPBenefit(t *testing.T) {
	// The permutations constructed by MakePermutation must achieve at least
	// the DP's claimed optimum (they can't exceed it if the DP is optimal).
	sets := []sortord.AttrSet{
		set("a", "b", "c", "d", "e"),
		set("a", "b", "c", "k"),
		set("c", "d"),
		set("c", "e", "i", "j"),
	}
	perms, benefit := PathOrder(sets)
	realized := 0
	for i := 0; i+1 < len(perms); i++ {
		realized += sortord.LCP(perms[i], perms[i+1]).Len()
	}
	if realized < benefit {
		t.Fatalf("realized %d < DP benefit %d (perms %v)", realized, benefit, perms)
	}
}

func TestPathOrderMatchesExactOnSmallPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(3) // 2..4 nodes
		sets := make([]sortord.AttrSet, n)
		for i := range sets {
			s := sortord.NewAttrSet()
			for _, a := range alphabet {
				if rng.Intn(2) == 0 {
					s.Add(a)
				}
			}
			if s.Len() == 0 {
				s.Add(alphabet[rng.Intn(len(alphabet))])
			}
			sets[i] = s
		}
		var edges [][2]int
		for i := 0; i+1 < n; i++ {
			edges = append(edges, [2]int{i, i + 1})
		}
		prob := Problem{Sets: sets, Edges: edges}
		_, exactVal := Exact(prob)
		perms, dpVal := PathOrder(sets)
		if dpVal != exactVal {
			t.Fatalf("trial %d: DP benefit %d != exact %d for sets %v", trial, dpVal, exactVal, sets)
		}
		if realized := prob.TotalBenefit(perms); realized != exactVal {
			t.Fatalf("trial %d: realized %d != exact %d (perms %v, sets %v)",
				trial, realized, exactVal, perms, sets)
		}
	}
}

func TestPathOrderDegenerate(t *testing.T) {
	if perms, b := PathOrder(nil); perms != nil || b != 0 {
		t.Fatal("empty path")
	}
	perms, b := PathOrder([]sortord.AttrSet{set("x", "y")})
	if b != 0 || len(perms) != 1 || perms[0].Len() != 2 {
		t.Fatalf("single node: %v %d", perms, b)
	}
	// Disjoint sets: zero benefit but valid permutations.
	perms, b = PathOrder([]sortord.AttrSet{set("a"), set("b"), set("c")})
	if b != 0 {
		t.Fatalf("disjoint benefit = %d", b)
	}
	for i, p := range perms {
		if p.Len() != 1 {
			t.Fatalf("perm %d = %v", i, p)
		}
	}
}

func TestPaperFigure3Example(t *testing.T) {
	// Figure 3 of the paper: 8 relations joined pairwise up a tree. The
	// nodes and sets (0-indexed, leaves then internals as drawn):
	//   n0 {a,b,c,d,e} root
	//   n1 {a,b,c,k}  n2 {c,d}
	//   n3 {c,e,i,j}  n4 {c,k,l,m}  n5 {c,d,h,n}  n6 {f,g,p,q}
	// Edges: 0-1, 0-2, 1-3, 1-4, 2-5, 2-6.
	// The paper's optimal solution achieves total benefit 8.
	prob := Problem{
		Sets: []sortord.AttrSet{
			set("a", "b", "c", "d", "e"),
			set("a", "b", "c", "k"),
			set("c", "d"),
			set("c", "e", "i", "j"),
			set("c", "k", "l", "m"),
			set("c", "d", "h", "n"),
			set("f", "g", "p", "q"),
		},
		Edges: [][2]int{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {2, 6}},
	}
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper-drawn assignment: verify its claimed benefit of 8 under our
	// benefit evaluator. (The drawn solution: n0=<c,d,a,b,e>, n1=<c,k,a,b>...
	// gives 1(0-1)+2(0-2)+... the figure's edge labels sum to 8; their
	// specific drawn labels: 0-1:1? The figure shows benefit 8 total.)
	drawn := []sortord.Order{
		sortord.New("c", "d", "a", "b", "e"),
		sortord.New("c", "k", "a", "b"),
		sortord.New("c", "d"),
		sortord.New("c", "e", "i", "j"),
		sortord.New("c", "k", "l", "m"),
		sortord.New("c", "d", "h", "n"),
		sortord.New("f", "g", "p", "q"),
	}
	if got := prob.TotalBenefit(drawn); got != 8 {
		t.Fatalf("paper's drawn solution scores %d, want 8", got)
	}
	// TwoApprox must achieve at least half of 8 (and Exact at least the
	// drawn value; on this instance exact = 8).
	approx := TwoApprox(prob)
	if got := prob.TotalBenefit(approx); got < 4 {
		t.Fatalf("2-approx benefit %d < 4", got)
	}
	for i, p := range approx {
		if !p.Attrs().Equal(prob.Sets[i]) {
			t.Fatalf("approx perm %d = %v not a permutation of %v", i, p, prob.Sets[i])
		}
	}
}

func TestTwoApproxGuaranteeOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "b", "c"}
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(4) // 2..5 vertices
		sets := make([]sortord.AttrSet, n)
		for i := range sets {
			s := sortord.NewAttrSet()
			for _, a := range alphabet {
				if rng.Intn(2) == 0 {
					s.Add(a)
				}
			}
			if s.Len() == 0 {
				s.Add(alphabet[rng.Intn(len(alphabet))])
			}
			sets[i] = s
		}
		// Random binary tree: attach each vertex i>0 to a random earlier
		// vertex with < 2 children.
		children := make([]int, n)
		var edges [][2]int
		for i := 1; i < n; i++ {
			for {
				p := rng.Intn(i)
				if children[p] < 2 {
					children[p]++
					edges = append(edges, [2]int{p, i})
					break
				}
			}
		}
		prob := Problem{Sets: sets, Edges: edges}
		_, exactVal := Exact(prob)
		approx := TwoApprox(prob)
		got := prob.TotalBenefit(approx)
		// The guarantee is ≥ ceil(half): 2·got ≥ exact.
		if 2*got < exactVal {
			t.Fatalf("trial %d: approx %d < half of exact %d (sets %v edges %v)",
				trial, got, exactVal, sets, edges)
		}
		for i, p := range approx {
			if !p.Attrs().Equal(sets[i]) {
				t.Fatalf("approx perm %d not a permutation", i)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	ok := Problem{Sets: []sortord.AttrSet{set("a"), set("a")}, Edges: [][2]int{{0, 1}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Problem{Sets: []sortord.AttrSet{set("a")}, Edges: [][2]int{{0, 3}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range edge should fail")
	}
	cyc := Problem{
		Sets:  []sortord.AttrSet{set("a"), set("a"), set("a")},
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 0}},
	}
	if err := cyc.Validate(); err == nil {
		t.Fatal("cycle should fail")
	}
}

func TestLevelsAndPathDecomposition(t *testing.T) {
	// Perfect binary tree of 7 nodes: root 0; children 1,2; leaves 3..6.
	prob := Problem{
		Sets:  make([]sortord.AttrSet, 7),
		Edges: [][2]int{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {2, 6}},
	}
	for i := range prob.Sets {
		prob.Sets[i] = set("a")
	}
	depth := prob.levels()
	want := []int{0, 1, 1, 2, 2, 2, 2}
	if !reflect.DeepEqual(depth, want) {
		t.Fatalf("levels = %v, want %v", depth, want)
	}
	// Odd-level edges: 0-1, 0-2 => one path 1-0-2.
	odd := prob.pathsOf(1)
	if len(odd) != 1 || len(odd[0]) != 3 {
		t.Fatalf("odd paths = %v", odd)
	}
	// Even-level edges: the four leaf edges => two paths 3-1-4 and 5-2-6.
	even := prob.pathsOf(0)
	if len(even) != 2 || len(even[0]) != 3 || len(even[1]) != 3 {
		t.Fatalf("even paths = %v", even)
	}
}

func TestSumCutReduction(t *testing.T) {
	// Triangle graph on 3 vertices.
	g := Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}}
	prob, err := SumCutReduction(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(prob.Sets) != 6 {
		t.Fatalf("reduction should build 2m vertices, got %d", len(prob.Sets))
	}
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	// Spine vertices carry V(G) ∪ L (3 + 5 attributes).
	for i := 0; i < 3; i++ {
		if prob.Sets[i].Len() != 8 {
			t.Fatalf("spine set %d = %v", i, prob.Sets[i])
		}
	}
	// Leaf i carries the neighbourhood of ui: in a triangle every vertex
	// has 2 neighbours.
	for i := 3; i < 6; i++ {
		if prob.Sets[i].Len() != 2 {
			t.Fatalf("leaf set %d = %v", i, prob.Sets[i])
		}
	}
	// Edge count: m-1 spine + m leaf edges.
	if len(prob.Edges) != 5 {
		t.Fatalf("edges = %d, want 5", len(prob.Edges))
	}
	if _, err := SumCutReduction(Graph{N: 0}, 1); err == nil {
		t.Fatal("empty graph should error")
	}
	if _, err := SumCutReduction(Graph{N: 2, Edges: [][2]int{{0, 5}}}, 1); err == nil {
		t.Fatal("bad edge should error")
	}
}

func TestQuickPathOrderNeverBelowGreedy(t *testing.T) {
	// Property: the DP optimum is at least the benefit of the naive
	// assignment that orders every set identically (sorted), a simple lower
	// bound witness.
	cfg := &quick.Config{
		MaxCount: 80,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := 2 + r.Intn(5)
			sets := make([]sortord.AttrSet, n)
			for i := range sets {
				s := sortord.NewAttrSet()
				for _, a := range []string{"a", "b", "c", "d", "e"} {
					if r.Intn(2) == 0 {
						s.Add(a)
					}
				}
				if s.Len() == 0 {
					s.Add("a")
				}
				sets[i] = s
			}
			vals[0] = reflect.ValueOf(sets)
		},
	}
	prop := func(sets []sortord.AttrSet) bool {
		var edges [][2]int
		for i := 0; i+1 < len(sets); i++ {
			edges = append(edges, [2]int{i, i + 1})
		}
		prob := Problem{Sets: sets, Edges: edges}
		naive := make([]sortord.Order, len(sets))
		for i, s := range sets {
			naive[i] = sortord.APermute(s)
		}
		perms, dp := PathOrder(sets)
		if dp < prob.TotalBenefit(naive) {
			return false
		}
		return prob.TotalBenefit(perms) >= dp
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPathOrderLargePathPerformance(t *testing.T) {
	// §6.3: plan refinement on 31 nodes, 10 attributes per node, finished
	// in < 6ms on 2006 hardware; it must be near-instant here.
	sets := make([]sortord.AttrSet, 31)
	for i := range sets {
		s := sortord.NewAttrSet()
		for k := 0; k < 10; k++ {
			s.Add(fmt.Sprintf("x%d", (i+k)%15))
		}
		sets[i] = s
	}
	perms, benefit := PathOrder(sets)
	if len(perms) != 31 || benefit <= 0 {
		t.Fatalf("31-node path: perms=%d benefit=%d", len(perms), benefit)
	}
}
