// Package types defines the value, schema and tuple model shared by the
// storage engine, execution engine and optimizer. Values ("datums") are a
// small closed set of SQL-ish types sufficient for the paper's workloads:
// 64-bit integers, 64-bit floats, strings, booleans and NULL.
//
// Tuples are flat datum slices positionally aligned with a Schema. Encoding
// is a simple length-prefixed binary format used when spilling sort runs to
// the simulated disk.
package types

import (
	"fmt"
	"strconv"
)

// Kind enumerates datum types.
type Kind uint8

const (
	// KindNull is the type of the NULL datum.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE-754 float.
	KindFloat
	// KindString is a UTF-8 string.
	KindString
	// KindBool is a boolean.
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Datum is a single value. The zero value is NULL.
type Datum struct {
	kind Kind
	i    int64   // KindInt, KindBool (0/1)
	f    float64 // KindFloat
	s    string  // KindString
}

// Null is the NULL datum.
var Null = Datum{kind: KindNull}

// NewInt returns an integer datum.
func NewInt(v int64) Datum { return Datum{kind: KindInt, i: v} }

// NewFloat returns a float datum.
func NewFloat(v float64) Datum { return Datum{kind: KindFloat, f: v} }

// NewString returns a string datum.
func NewString(v string) Datum { return Datum{kind: KindString, s: v} }

// NewBool returns a boolean datum.
func NewBool(v bool) Datum {
	var i int64
	if v {
		i = 1
	}
	return Datum{kind: KindBool, i: i}
}

// Kind returns the datum's type.
func (d Datum) Kind() Kind { return d.kind }

// IsNull reports whether d is NULL.
func (d Datum) IsNull() bool { return d.kind == KindNull }

// Int returns the integer value; callers must check Kind first.
func (d Datum) Int() int64 { return d.i }

// Float returns the float value; for KindInt it converts.
func (d Datum) Float() float64 {
	if d.kind == KindInt {
		return float64(d.i)
	}
	return d.f
}

// Str returns the string value; callers must check Kind first.
func (d Datum) Str() string { return d.s }

// Bool returns the boolean value; callers must check Kind first.
func (d Datum) Bool() bool { return d.i != 0 }

// Compare defines a total order over datums: NULL sorts first, then values
// by kind (Int and Float compare numerically with each other), then strings
// byte-wise, then booleans false < true. Comparing numerics against
// non-numerics orders by Kind; the engine's type checking prevents such
// comparisons in well-formed plans, but the total order keeps sorting safe.
func (d Datum) Compare(o Datum) int {
	dn, on := d.IsNull(), o.IsNull()
	switch {
	case dn && on:
		return 0
	case dn:
		return -1
	case on:
		return 1
	}
	dNum := d.kind == KindInt || d.kind == KindFloat
	oNum := o.kind == KindInt || o.kind == KindFloat
	if dNum && oNum {
		if d.kind == KindInt && o.kind == KindInt {
			switch {
			case d.i < o.i:
				return -1
			case d.i > o.i:
				return 1
			}
			return 0
		}
		df, of := d.Float(), o.Float()
		switch {
		case df < of:
			return -1
		case df > of:
			return 1
		}
		return 0
	}
	if d.kind != o.kind {
		if d.kind < o.kind {
			return -1
		}
		return 1
	}
	switch d.kind {
	case KindString:
		switch {
		case d.s < o.s:
			return -1
		case d.s > o.s:
			return 1
		}
		return 0
	case KindBool:
		switch {
		case d.i < o.i:
			return -1
		case d.i > o.i:
			return 1
		}
		return 0
	}
	return 0
}

// Equal reports d == o under Compare semantics (NULL equals NULL here; SQL
// three-valued logic is applied at the expression layer, not in sorting).
func (d Datum) Equal(o Datum) bool { return d.Compare(o) == 0 }

// String renders the datum for plan/debug output.
func (d Datum) String() string {
	switch d.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(d.i, 10)
	case KindFloat:
		return strconv.FormatFloat(d.f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(d.s)
	case KindBool:
		if d.i != 0 {
			return "true"
		}
		return "false"
	}
	return "?"
}

// EncodedSize returns the number of bytes Encode will append for d.
func (d Datum) EncodedSize() int {
	switch d.kind {
	case KindNull:
		return 1
	case KindInt, KindFloat:
		return 1 + 8
	case KindBool:
		return 1 + 1
	case KindString:
		return 1 + uvarintLen(len(d.s)) + len(d.s)
	}
	return 1
}

// MemSize returns an approximate in-memory footprint in bytes, used by the
// nested-loops join to account its spool against the memory budget. (The
// sort operators buffer rows encoded and count the blocks they fill.)
func (d Datum) MemSize() int {
	return datumMemOverhead + len(d.s)
}

// datumMemOverhead approximates the Datum struct itself (kind+pad, i, f,
// string header).
const datumMemOverhead = 32
