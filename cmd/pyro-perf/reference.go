package main

// The independent result check. Everything in this file is deliberately
// naive — plain Go maps, loops and sort.SliceStable over the generated
// [][]any rows — and imports nothing from the engine, so agreement with it
// is evidence and not self-agreement.

import (
	"fmt"
	"hash/maphash"
	"math"
	"sort"
	"strconv"
	"strings"
)

// refSorted returns rows stably sorted on the given int64 columns.
func refSorted(rows [][]any, keys ...int) [][]any {
	out := append([][]any(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		for _, k := range keys {
			a, b := out[i][k].(int64), out[j][k].(int64)
			if a != b {
				return a < b
			}
		}
		return false
	})
	return out
}

// refProject keeps the given columns of every row.
func refProject(rows [][]any, cols ...int) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		p := make([]any, len(cols))
		for j, c := range cols {
			p[j] = r[c]
		}
		out[i] = p
	}
	return out
}

// refFilterEq keeps the rows whose column col equals v.
func refFilterEq(rows [][]any, col int, v any) [][]any {
	var out [][]any
	for _, r := range rows {
		if r[col] == v {
			out = append(out, r)
		}
	}
	return out
}

// refQ3 evaluates the paper's Query 3 over partsupp(ps_partkey, ps_suppkey,
// ps_availqty) and lineitem(l_orderkey, l_partkey, l_suppkey, l_quantity,
// l_linestatus): open-order quantity per (availqty, part, supplier) group,
// keeping groups whose total exceeds the stock, ordered by part.
func refQ3(partsupp, lineitem [][]any) [][]any {
	type pair struct{ part, supp int64 }
	open := make(map[pair][]int64) // open lineitem quantities per (part, supp)
	for _, l := range lineitem {
		if l[4] == "O" {
			k := pair{l[1].(int64), l[2].(int64)}
			open[k] = append(open[k], l[3].(int64))
		}
	}
	type group struct{ avail, part, supp int64 }
	sums := make(map[group]int64)
	var order []group // first-seen order keeps the output deterministic
	for _, ps := range partsupp {
		g := group{ps[2].(int64), ps[0].(int64), ps[1].(int64)}
		for _, q := range open[pair{g.part, g.supp}] {
			if _, seen := sums[g]; !seen {
				order = append(order, g)
			}
			sums[g] += q
		}
	}
	var out [][]any
	for _, g := range order {
		if sums[g] > g.avail {
			out = append(out, []any{g.avail, g.part, g.supp, sums[g]})
		}
	}
	return refSorted(out, 1)
}

// refFullOuterJoin joins left and right on positional key pairs with the
// engine's documented FULL JOIN ... USING semantics: unmatched rows of
// either side are kept, padded with NULLs, and the padded side's key
// columns carry the surviving side's key values. A NULL key never matches.
func refFullOuterJoin(left, right [][]any, lkeys, rkeys []int, lwidth, rwidth int) [][]any {
	keyOf := func(row []any, cols []int) (string, bool) {
		var b strings.Builder
		for _, c := range cols {
			v, ok := row[c].(int64)
			if !ok {
				return "", false
			}
			b.WriteString(strconv.FormatInt(v, 10))
			b.WriteByte('|')
		}
		return b.String(), true
	}
	byKey := make(map[string][]int)
	for i, r := range right {
		if k, ok := keyOf(r, rkeys); ok {
			byKey[k] = append(byKey[k], i)
		}
	}
	matched := make([]bool, len(right))
	var out [][]any
	for _, l := range left {
		k, ok := keyOf(l, lkeys)
		hits := byKey[k]
		if !ok || len(hits) == 0 {
			row := append(append([]any(nil), l...), make([]any, rwidth)...)
			for i := range lkeys {
				row[lwidth+rkeys[i]] = l[lkeys[i]]
			}
			out = append(out, row)
			continue
		}
		for _, j := range hits {
			matched[j] = true
			out = append(out, append(append([]any(nil), l...), right[j]...))
		}
	}
	for j, r := range right {
		if matched[j] {
			continue
		}
		row := append(make([]any, lwidth), r...)
		for i := range rkeys {
			row[lkeys[i]] = r[rkeys[i]]
		}
		out = append(out, row)
	}
	return out
}

// refQ4 is Experiment B2: R1 ⟗ R2 on (c5, c4, c3), the result ⟗ R3 on
// R3.(c1, c4, c5) = R1.(c1, c4, c5). Columns are c1..c5 of each table.
func refQ4(r1, r2, r3 [][]any) [][]any {
	j1 := refFullOuterJoin(r1, r2, []int{4, 3, 2}, []int{4, 3, 2}, 5, 5)
	return refFullOuterJoin(j1, r3, []int{0, 3, 4}, []int{0, 3, 4}, 10, 5)
}

// colKind says how one result column is scanned and hashed.
type colKind uint8

const (
	colInt colKind = iota // never NULL, scanned into an int64
	colStr                // never NULL, scanned into a string
	colAny                // may be NULL, scanned into an any
)

// slots is a reusable typed landing area for one result row: Cursor.Scan
// writes through dest without allocating, and the checker reads the typed
// fields back.
type slots struct {
	kinds []colKind
	ints  []int64
	strs  []string
	anys  []any
	dest  []any
}

func newSlots(kinds []colKind) *slots {
	s := &slots{
		kinds: kinds,
		ints:  make([]int64, len(kinds)),
		strs:  make([]string, len(kinds)),
		anys:  make([]any, len(kinds)),
		dest:  make([]any, len(kinds)),
	}
	for i, k := range kinds {
		switch k {
		case colInt:
			s.dest[i] = &s.ints[i]
		case colStr:
			s.dest[i] = &s.strs[i]
		default:
			s.dest[i] = &s.anys[i]
		}
	}
	return s
}

// load fills the slots from a materialised row (reference rows at set-up,
// rows under test in the smoke test).
func (s *slots) load(row []any) error {
	if len(row) != len(s.kinds) {
		return fmt.Errorf("row has %d columns, want %d", len(row), len(s.kinds))
	}
	for i, k := range s.kinds {
		switch k {
		case colInt:
			v, ok := row[i].(int64)
			if !ok {
				return fmt.Errorf("column %d holds %T, want int64", i, row[i])
			}
			s.ints[i] = v
		case colStr:
			v, ok := row[i].(string)
			if !ok {
				return fmt.Errorf("column %d holds %T, want string", i, row[i])
			}
			s.strs[i] = v
		default:
			s.anys[i] = row[i]
		}
	}
	return nil
}

var hashSeed = maphash.MakeSeed()

func mixInt(h uint64, v int64) uint64 {
	h = (h ^ uint64(v)) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

func mixAny(h uint64, v any) uint64 {
	switch x := v.(type) {
	case nil:
		return mixInt(h, -0x6e756c6c) // a NULL is not any particular value
	case int64:
		return mixInt(h, x)
	case string:
		return mixInt(h, int64(maphash.String(hashSeed, x)))
	case float64:
		return mixInt(h, int64(math.Float64bits(x)))
	case bool:
		if x {
			return mixInt(h, 1)
		}
		return mixInt(h, 0)
	}
	return mixInt(h, -1)
}

// rowCheck is the per-op check every query pays: row count, non-decreasing
// ORDER BY keys, and an order-insensitive checksum over the compared
// columns.
type rowCheck struct {
	compared []int // columns folded into the checksum
	order    []int // ORDER BY key columns (all colInt)
	n        int
	sum      uint64
	prev     [4]int64
	disorder int // index of the first row that sorts before its predecessor, -1 if none
}

func newRowCheck(compared, order []int) *rowCheck {
	return &rowCheck{compared: compared, order: order, disorder: -1}
}

func (c *rowCheck) reset() {
	c.n, c.sum, c.disorder = 0, 0, -1
}

// add folds the row currently in s into the check.
func (c *rowCheck) add(s *slots) {
	h := uint64(0x243F6A8885A308D3)
	for _, j := range c.compared {
		switch s.kinds[j] {
		case colInt:
			h = mixInt(h, s.ints[j])
		case colStr:
			h = mixInt(h, int64(maphash.String(hashSeed, s.strs[j])))
		default:
			h = mixAny(h, s.anys[j])
		}
	}
	c.sum += h
	if c.n > 0 && c.disorder < 0 {
		for i, j := range c.order {
			if v := s.ints[j]; v != c.prev[i] {
				if v < c.prev[i] {
					c.disorder = c.n
				}
				break
			}
		}
	}
	for i, j := range c.order {
		c.prev[i] = s.ints[j]
	}
	c.n++
}

// expectation is a query shape's reference answer in the form the per-op
// check compares against; rows is kept only until the first op of the
// shape has been compared row by row.
type expectation struct {
	rows [][]any
	n    int
	sum  uint64
}

// expect digests reference rows through the same slots and hash the per-op
// check uses.
func expect(rows [][]any, kinds []colKind, compared, order []int) (expectation, error) {
	s := newSlots(kinds)
	c := newRowCheck(compared, order)
	for i, r := range rows {
		if err := s.load(r); err != nil {
			return expectation{}, fmt.Errorf("reference row %d: %w", i, err)
		}
		c.add(s)
	}
	if c.disorder >= 0 {
		return expectation{}, fmt.Errorf("reference rows out of order at row %d", c.disorder)
	}
	return expectation{rows: rows, n: c.n, sum: c.sum}, nil
}

// verify compares a finished per-op check with the reference.
func (c *rowCheck) verify(want expectation) error {
	switch {
	case c.disorder >= 0:
		return fmt.Errorf("row %d sorts before its predecessor on the ORDER BY keys", c.disorder)
	case c.n != want.n:
		return fmt.Errorf("%d rows, reference has %d", c.n, want.n)
	case c.sum != want.sum:
		return fmt.Errorf("row checksum %#x, reference has %#x", c.sum, want.sum)
	}
	return nil
}

// rowKey renders the compared columns of a row as a multiset key.
func rowKey(row []any, compared []int) string {
	var b strings.Builder
	for _, j := range compared {
		switch x := row[j].(type) {
		case nil:
			b.WriteString("~")
		case int64:
			b.WriteString(strconv.FormatInt(x, 10))
		case string:
			b.WriteString(strconv.Quote(x))
		default:
			fmt.Fprintf(&b, "%T:%v", x, x)
		}
		b.WriteByte('|')
	}
	return b.String()
}

// compareRows is the full check run on the first op of every shape: equal
// row counts, the ORDER BY key sequence equal position by position, and
// the multisets of compared columns equal.
func compareRows(got, want [][]any, compared, order []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, reference has %d", len(got), len(want))
	}
	for i := range got {
		for _, j := range order {
			if got[i][j] != want[i][j] {
				return fmt.Errorf("row %d: ORDER BY key column %d is %v, reference has %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	counts := make(map[string]int, len(want))
	for _, r := range want {
		counts[rowKey(r, compared)]++
	}
	for i, r := range got {
		k := rowKey(r, compared)
		if counts[k] == 0 {
			return fmt.Errorf("row %d (%s) is not in the reference result, or appears too often", i, k)
		}
		counts[k]--
	}
	return nil
}
