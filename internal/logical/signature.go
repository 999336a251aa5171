package logical

import (
	"fmt"
	"strings"
)

// Signature renders a canonical, collision-safe encoding of the logical
// tree, suitable as a cache key: two trees share a signature exactly when
// they are the same query. Unlike Format — a human-oriented rendering
// whose Project and GroupBy lines print only output column names — the
// signature includes every semantically relevant detail: projection
// expressions, aggregate functions and arguments, join types and
// predicates and limit counts.
func Signature(n Node) string {
	var b strings.Builder
	writeSignature(&b, n)
	return b.String()
}

func writeSignature(b *strings.Builder, n Node) {
	switch x := n.(type) {
	case *Scan:
		fmt.Fprintf(b, "scan(%s)", x.Table.Name)
		return
	case *Select:
		fmt.Fprintf(b, "select[%s]", x.Pred)
	case *Project:
		b.WriteString("project[")
		for i, c := range x.Cols {
			if i > 0 {
				b.WriteByte(';')
			}
			fmt.Fprintf(b, "%s=%s", c.Name, c.Expr)
		}
		b.WriteByte(']')
	case *Join:
		fmt.Fprintf(b, "join[%s][%s]", x.Type, x.Pred)
	case *GroupBy:
		fmt.Fprintf(b, "group[%s][", strings.Join(x.GroupCols, ";"))
		for i, a := range x.Aggs {
			if i > 0 {
				b.WriteByte(';')
			}
			fmt.Fprintf(b, "%s=%d(", a.Name, a.Func)
			if a.Arg != nil {
				b.WriteString(a.Arg.String())
			}
			b.WriteByte(')')
		}
		b.WriteByte(']')
	case *Union:
		b.WriteString("unionall")
	case *Limit:
		fmt.Fprintf(b, "limit[%d]", x.K)
	case *OrderBy:
		fmt.Fprintf(b, "order[%s]", x.Order)
	default:
		// Unknown node kinds must never alias each other or a known kind;
		// %#v includes the concrete type and its exported state.
		fmt.Fprintf(b, "%#v", n)
		return
	}
	b.WriteByte('(')
	for i, c := range n.Children() {
		if i > 0 {
			b.WriteByte(',')
		}
		writeSignature(b, c)
	}
	b.WriteByte(')')
}
