// Package ordersel implements the combinatorial core of Section 4 of the
// paper: choosing sort orders (attribute permutations) for the nodes of a
// join tree so that adjacent nodes share the longest possible common
// prefixes.
//
// Problem 1 (NP-hard, by reduction from SUM-CUT): given a binary tree whose
// vertices carry attribute sets, pick a permutation per vertex maximising
//
//	F = Σ over edges (vi,vj) of |pi ∧ pj|
//
// Provided here:
//
//   - PathOrder — the exact O(n³) dynamic program of Figure 4 for paths
//     (left-deep and right-deep join plans are paths);
//   - TwoApprox — the 2-approximation of §4.2 for arbitrary binary trees,
//     splitting edges into odd- and even-level path sets, solving each with
//     PathOrder and keeping the better;
//   - Exact — brute force over all permutation combinations, exponential,
//     for tests and tiny trees;
//   - SumCutReduction — the Theorem 4.1 construction mapping a SUM-CUT
//     instance to Problem 1, exercised by tests as executable documentation
//     of the hardness proof.
package ordersel

import (
	"fmt"

	"pyro/internal/sortord"
)

// Problem is an instance of Problem 1: a tree with an attribute set per
// vertex. Edges must form a forest over vertices 0..len(Sets)-1 (the
// algorithms accept forests; a tree is the common case).
type Problem struct {
	Sets  []sortord.AttrSet
	Edges [][2]int
}

// Validate checks vertex indices and that the edge set is acyclic.
func (p Problem) Validate() error {
	n := len(p.Sets)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range p.Edges {
		a, b := e[0], e[1]
		if a < 0 || a >= n || b < 0 || b >= n {
			return fmt.Errorf("ordersel: edge (%d,%d) out of range [0,%d)", a, b, n)
		}
		ra, rb := find(a), find(b)
		if ra == rb {
			return fmt.Errorf("ordersel: edges contain a cycle through (%d,%d)", a, b)
		}
		parent[ra] = rb
	}
	return nil
}

// TotalBenefit evaluates F for a given assignment of permutations.
func (p Problem) TotalBenefit(perms []sortord.Order) int {
	total := 0
	for _, e := range p.Edges {
		total += sortord.LCP(perms[e[0]], perms[e[1]]).Len()
	}
	return total
}

// PathOrder solves Problem 1 exactly on a path using the dynamic program of
// Figure 4. sets[i] is the attribute set of the i-th path vertex; the
// returned permutations are complete (every attribute of sets[i] appears in
// perms[i]) and the returned benefit is the optimum Σ|pi ∧ pi+1|.
func PathOrder(sets []sortord.AttrSet) ([]sortord.Order, int) {
	n := len(sets)
	if n == 0 {
		return nil, 0
	}
	if n == 1 {
		return []sortord.Order{sortord.APermute(sets[0])}, 0
	}

	benefit := make([][]int, n)
	split := make([][]int, n)
	commons := make([][]sortord.AttrSet, n)
	for i := 0; i < n; i++ {
		benefit[i] = make([]int, n)
		split[i] = make([]int, n)
		commons[i] = make([]sortord.AttrSet, n)
		commons[i][i] = sets[i].Clone()
		split[i][i] = -1
	}

	// Segments by increasing length, exactly as in the paper's Figure 4.
	for j := 1; j < n; j++ {
		for i := 0; i+j < n; i++ {
			hi := i + j
			bestK, bestVal := i, -1
			for k := i; k < hi; k++ {
				if v := benefit[i][k] + benefit[k+1][hi]; v > bestVal {
					bestVal = v
					bestK = k
				}
			}
			commons[i][hi] = commons[i][bestK].Intersect(commons[bestK+1][hi])
			benefit[i][hi] = bestVal + commons[i][hi].Len()
			split[i][hi] = bestK
		}
	}
	opt := benefit[0][n-1]

	// MakePermutation: walk the split tree top-down, appending each
	// segment's common attributes to every permutation in the segment.
	//
	// Note a deliberate deviation from the paper's Figure 4 pseudocode,
	// which subtracts commons[i][j] from *every* other memo entry. Applied
	// literally that also strips sibling segments — segments disjoint from
	// (i,j) whose permutations never received commons[i][j] as a prefix —
	// and the constructed permutations then realize less than the DP
	// optimum (e.g. sets {a,d},{a,b,d,e},{a},{a,b,c,d},{a,d,e},{b,d} lose
	// benefit 6 → 3). The subtraction is sound only for *nested*
	// subsegments of (i,j), which is what the recursion below visits, so we
	// restrict it there; with that reading the construction provably
	// realizes the DP value (verified exhaustively in tests).
	perms := make([]sortord.Order, n)
	var makePerm func(i, j int)
	makePerm = func(i, j int) {
		if i == j {
			perms[i] = sortord.Concat(perms[i], sortord.APermute(commons[i][i]))
			return
		}
		seg := sortord.APermute(commons[i][j])
		for k := i; k <= j; k++ {
			perms[k] = sortord.Concat(perms[k], seg)
		}
		if commons[i][j].Len() > 0 {
			for a := i; a <= j; a++ {
				for b := a; b <= j; b++ {
					if a == i && b == j {
						continue
					}
					commons[a][b] = commons[a][b].Difference(commons[i][j])
				}
			}
		}
		m := split[i][j]
		makePerm(i, m)
		makePerm(m+1, j)
	}
	makePerm(0, n-1)

	// Completion: global subtraction may have removed attributes from leaf
	// commons that belong to a vertex's set but were never appended (they
	// carry no DP benefit); append them so each perm is a full permutation.
	for i := range perms {
		missing := sets[i].Difference(perms[i].Attrs())
		perms[i] = sortord.Concat(perms[i], sortord.APermute(missing))
	}
	return perms, opt
}

// adjacency builds an adjacency list for the problem's tree.
func (p Problem) adjacency() [][]int {
	adj := make([][]int, len(p.Sets))
	for _, e := range p.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	return adj
}

// levels assigns BFS depths from vertex 0 of each component; the level of
// an edge is the depth of its deeper endpoint.
func (p Problem) levels() []int {
	n := len(p.Sets)
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	adj := p.adjacency()
	for root := 0; root < n; root++ {
		if depth[root] != -1 {
			continue
		}
		depth[root] = 0
		queue := []int{root}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if depth[w] == -1 {
					depth[w] = depth[v] + 1
					queue = append(queue, w)
				}
			}
		}
	}
	return depth
}

// pathsOf decomposes the subgraph keeping edges whose parity matches into
// vertex-disjoint paths, returned as vertex index sequences. In a binary
// tree every component of a single parity class is a path (§4.2, Fig 5).
func (p Problem) pathsOf(parity int) [][]int {
	n := len(p.Sets)
	depth := p.levels()
	sub := make([][]int, n)
	for _, e := range p.Edges {
		d := depth[e[0]]
		if depth[e[1]] > d {
			d = depth[e[1]]
		}
		if d%2 == parity {
			sub[e[0]] = append(sub[e[0]], e[1])
			sub[e[1]] = append(sub[e[1]], e[0])
		}
	}
	seen := make([]bool, n)
	var paths [][]int
	for v := 0; v < n; v++ {
		if seen[v] || len(sub[v]) == 0 || len(sub[v]) > 1 {
			continue
		}
		// v is a path endpoint: walk to the other end.
		path := []int{v}
		seen[v] = true
		prev, cur := -1, v
		for {
			next := -1
			for _, w := range sub[cur] {
				if w != prev {
					next = w
					break
				}
			}
			if next == -1 {
				break
			}
			path = append(path, next)
			seen[next] = true
			prev, cur = cur, next
		}
		paths = append(paths, path)
	}
	return paths
}

// TwoApprox returns permutations whose total benefit is at least half the
// optimum (§4.2): solve the odd-level and even-level path decompositions
// exactly with PathOrder and keep the better assignment. Vertices not on
// any chosen path get arbitrary permutations.
func TwoApprox(p Problem) []sortord.Order {
	best := make([]sortord.Order, len(p.Sets))
	bestVal := -1
	for parity := 0; parity < 2; parity++ {
		perms := make([]sortord.Order, len(p.Sets))
		for i, s := range p.Sets {
			perms[i] = sortord.APermute(s) // default for uncovered vertices
		}
		for _, path := range p.pathsOf(parity) {
			sets := make([]sortord.AttrSet, len(path))
			for i, v := range path {
				sets[i] = p.Sets[v]
			}
			pathPerms, _ := PathOrder(sets)
			for i, v := range path {
				perms[v] = pathPerms[i]
			}
		}
		if val := p.TotalBenefit(perms); val > bestVal {
			bestVal = val
			best = perms
		}
	}
	return best
}

// Exact solves Problem 1 by brute force over every combination of
// permutations. Cost is Π |si|!, so callers must keep instances tiny; it
// exists to validate PathOrder and TwoApprox in tests.
func Exact(p Problem) ([]sortord.Order, int) {
	n := len(p.Sets)
	options := make([][]sortord.Order, n)
	for i, s := range p.Sets {
		options[i] = sortord.Permutations(s)
	}
	assign := make([]sortord.Order, n)
	best := make([]sortord.Order, n)
	bestVal := -1
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if v := p.TotalBenefit(assign); v > bestVal {
				bestVal = v
				copy(best, assign)
			}
			return
		}
		for _, perm := range options[i] {
			assign[i] = perm
			rec(i + 1)
		}
	}
	rec(0)
	return best, bestVal
}
