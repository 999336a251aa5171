package types

import (
	"fmt"
	"strings"

	"pyro/internal/sortord"
)

// Column describes one attribute of a relation: a name, a type, and a fixed
// average width in bytes used for block-count estimation. Width models the
// paper's "average tuple size" arithmetic; actual string datums may differ.
type Column struct {
	Name  string
	Kind  Kind
	Width int // average width in bytes for size estimation; 0 => default by kind
}

// DefaultWidth returns the estimation width for the column.
func (c Column) DefaultWidth() int {
	if c.Width > 0 {
		return c.Width
	}
	switch c.Kind {
	case KindInt, KindFloat:
		return 8
	case KindBool:
		return 1
	case KindString:
		return 16
	default:
		return 8
	}
}

// Schema is an ordered list of columns. Column names within a schema are
// unique; joins of relations with overlapping names must qualify columns
// (the workload generators use qualified names like "l_suppkey").
type Schema struct {
	cols  []Column
	index map[string]int
}

// NewSchema builds a schema from columns. It panics on duplicate names:
// schemas are constructed by code, not user input, so a duplicate is a bug.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{cols: append([]Column(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := s.index[c.Name]; dup {
			panic(fmt.Sprintf("types: duplicate column %q in schema", c.Name))
		}
		s.index[c.Name] = i
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Col returns the i-th column.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Names returns the column names in schema order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.cols))
	for i, c := range s.cols {
		out[i] = c.Name
	}
	return out
}

// Ordinal returns the position of the named column and whether it exists.
func (s *Schema) Ordinal(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// MustOrdinal is Ordinal that panics on a missing column (programming error).
func (s *Schema) MustOrdinal(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("types: column %q not in schema %v", name, s.Names()))
	}
	return i
}

// Has reports whether the named column exists.
func (s *Schema) Has(name string) bool {
	_, ok := s.index[name]
	return ok
}

// HasAll reports whether every attribute in the set exists in the schema.
func (s *Schema) HasAll(attrs sortord.AttrSet) bool {
	for a := range attrs {
		if !s.Has(a) {
			return false
		}
	}
	return true
}

// AttrSet returns the set of column names.
func (s *Schema) AttrSet() sortord.AttrSet {
	return sortord.NewAttrSet(s.Names()...)
}

// Project returns a new schema with just the named columns, in the given
// order. Missing names are a programming error and panic.
func (s *Schema) Project(names []string) *Schema {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = s.cols[s.MustOrdinal(n)]
	}
	return NewSchema(cols...)
}

// Concat returns the schema of a join output: s's columns followed by t's.
func (s *Schema) Concat(t *Schema) *Schema {
	cols := make([]Column, 0, len(s.cols)+len(t.cols))
	cols = append(cols, s.cols...)
	cols = append(cols, t.cols...)
	return NewSchema(cols...)
}

// AvgTupleWidth returns the total estimation width of one tuple in bytes.
func (s *Schema) AvgTupleWidth() int {
	w := 0
	for _, c := range s.cols {
		w += c.DefaultWidth()
	}
	if w == 0 {
		w = 1
	}
	return w
}

// AvgEncodedWidth estimates the length of Tuple.Encode for one tuple of this
// schema: the 4-byte arity, a kind byte per column, and the payload (a
// string's 4-byte length plus its declared average width). This is what a
// row occupies on a page and — the sort enforcers buffer rows in their page
// format — in sort memory.
func (s *Schema) AvgEncodedWidth() int {
	w := 4
	for _, c := range s.cols {
		switch c.Kind {
		case KindInt, KindFloat:
			w += 1 + 8
		case KindBool:
			w += 1 + 1
		case KindString:
			w += 1 + 4 + c.DefaultWidth()
		default:
			w++
		}
	}
	return w
}

// String renders the schema for debug output.
func (s *Schema) String() string {
	parts := make([]string, len(s.cols))
	for i, c := range s.cols {
		parts[i] = c.Name + " " + c.Kind.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// KeySpec is a precomputed comparator for a sort order over a schema: the
// column ordinals to compare, most significant first, with their declared
// kinds (used by the keys package to build normalized-key codecs without
// re-resolving the schema).
type KeySpec struct {
	Ordinals []int
	Kinds    []Kind
	Order    sortord.Order
}

// MakeKeySpec resolves a sort order against a schema. It returns an error if
// any attribute is missing.
func MakeKeySpec(s *Schema, o sortord.Order) (KeySpec, error) {
	ks := KeySpec{Ordinals: make([]int, len(o)), Kinds: make([]Kind, len(o)), Order: o.Clone()}
	for i, a := range o {
		ord, ok := s.Ordinal(a)
		if !ok {
			return KeySpec{}, fmt.Errorf("types: sort attribute %q not in schema %v", a, s.Names())
		}
		ks.Ordinals[i] = ord
		ks.Kinds[i] = s.Col(ord).Kind
	}
	return ks, nil
}

// MustKeySpec is MakeKeySpec that panics on error.
func MustKeySpec(s *Schema, o sortord.Order) KeySpec {
	ks, err := MakeKeySpec(s, o)
	if err != nil {
		panic(err)
	}
	return ks
}

// Compare compares two tuples under the key spec. Comparisons counts are the
// caller's concern (the sort operators count calls).
func (ks KeySpec) Compare(a, b Tuple) int {
	for _, ord := range ks.Ordinals {
		if c := a[ord].Compare(b[ord]); c != 0 {
			return c
		}
	}
	return 0
}

// CompareSuffix compares only the key attributes from position k on — the
// order within a partial-sort segment, where the first k attributes are equal
// by construction. It is the reference keys.Codec.Suffix is tested against.
func (ks KeySpec) CompareSuffix(a, b Tuple, k int) int {
	for _, ord := range ks.Ordinals[k:] {
		if c := a[ord].Compare(b[ord]); c != 0 {
			return c
		}
	}
	return 0
}
