// Package keys implements normalized ("memcmp-able") sort keys: each
// tuple's sort key is encoded once into a byte string whose bytewise
// order equals the tuple order under the sort specification, so every
// subsequent key comparison is a single bytes.Compare instead of a
// field-by-field walk through typed datums. This is the standard trick
// of production sorters (DuckDB, MonetDB-style normalized keys): run
// formation and multiway merging become branch-light byte comparisons.
//
// Keys are decode-free by design: a key never needs to be turned back
// into datums. Sorters carry the originating tuple (or its index)
// alongside the key and emit the tuple, never the key.
//
// Encoding, per key column:
//
//   - a marker byte places NULLs: 0x00 (nulls first) or 0xFF (nulls
//     last) for NULL, 0x01 for any non-null value; a column declared
//     KindNull (a projected NULL literal) only ever holds NULL, so the
//     marker is its whole encoding;
//   - Int64 is encoded big-endian with the sign bit flipped;
//   - Float64 is encoded with the usual IEEE-754 total-order flip
//     (negative values bit-inverted, positives get the sign bit set);
//     -0.0 is normalized to +0.0 so it compares equal, matching
//     types.Datum.Compare;
//   - Bool is one byte, 0 or 1;
//   - String escapes 0x00 as {0x00, 0xFF} and terminates with
//     {0x00, 0x01}, keeping the encoding prefix-free so a short string
//     sorts before its extensions and later columns cannot bleed in;
//   - descending columns invert the payload bytes (the marker is left
//     alone: NULL placement is independent of direction).
//
// The guarantee, verified by the property tests in this package:
//
//	bytes.Compare(c.Append(nil, a), c.Append(nil, b))
//	  == the comparator order of a, b under the same spec
//
// for all tuples whose key columns hold NULL or a datum of the
// column's declared kind. NaN floats are excluded from the guarantee
// (types.Datum.Compare itself has no coherent NaN order).
package keys

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"pyro/internal/sortord"
	"pyro/internal/types"
)

// Col describes one column of a sort key.
type Col struct {
	// Ordinal is the column's position in the tuple.
	Ordinal int
	// Kind is the column's declared type. Every non-null datum at
	// Ordinal must have this kind; NULLs are always allowed.
	Kind types.Kind
	// Desc inverts the column's order (descending).
	Desc bool
	// NullsLast places NULLs after all values instead of before.
	NullsLast bool
}

// Codec encodes tuple sort keys for a fixed column specification.
// A Codec is immutable and safe for concurrent use.
type Codec struct {
	cols []Col
}

// Marker bytes. markerValue must sort strictly between the two null
// markers so NULL placement works for both settings.
const (
	markerNullFirst = 0x00
	markerValue     = 0x01
	markerNullLast  = 0xFF
)

// String escape/terminator bytes (after the leading 0x00).
const (
	strEscape     = 0xFF // 0x00 inside a string -> {0x00, 0xFF}
	strTerminator = 0x01 // end of string        -> {0x00, 0x01}
)

// New builds a codec from an explicit column spec.
func New(cols []Col) (*Codec, error) {
	for _, c := range cols {
		switch c.Kind {
		case types.KindNull, types.KindInt, types.KindFloat, types.KindString, types.KindBool:
		default:
			return nil, fmt.Errorf("keys: unsupported key column kind %v", c.Kind)
		}
		if c.Ordinal < 0 {
			return nil, fmt.Errorf("keys: negative column ordinal %d", c.Ordinal)
		}
	}
	return &Codec{cols: append([]Col(nil), cols...)}, nil
}

// NewCodec resolves a sort order against a schema with the comparator
// defaults of this engine: ascending, NULLs first — the order produced
// by types.KeySpec.Compare. Resolution is delegated to types.MakeKeySpec
// so the codec and the comparator can never disagree about ordinals.
func NewCodec(schema *types.Schema, o sortord.Order) (*Codec, error) {
	ks, err := types.MakeKeySpec(schema, o)
	if err != nil {
		return nil, err
	}
	return FromKeySpec(ks)
}

// FromKeySpec builds a codec from a resolved KeySpec (which carries the
// column kinds), with comparator defaults (ascending, NULLs first).
func FromKeySpec(ks types.KeySpec) (*Codec, error) {
	if len(ks.Kinds) != len(ks.Ordinals) {
		return nil, fmt.Errorf("keys: KeySpec has no kinds (built before MakeKeySpec recorded them?)")
	}
	cols := make([]Col, len(ks.Ordinals))
	for i, ord := range ks.Ordinals {
		cols[i] = Col{Ordinal: ord, Kind: ks.Kinds[i]}
	}
	return New(cols)
}

// Len returns the number of key columns.
func (c *Codec) Len() int { return len(c.cols) }

// Suffix returns a codec over the key columns from position k on — the
// suffix order of a full-key codec. Sorters that keep full-key encodings
// and need suffix-only comparisons should prefer PrefixLen: slicing the
// full key past the shared prefix compares the same bytes this codec
// would produce, without a second encode.
func (c *Codec) Suffix(k int) *Codec {
	if k < 0 || k > len(c.cols) {
		panic(fmt.Sprintf("keys: suffix %d out of range [0,%d]", k, len(c.cols)))
	}
	return &Codec{cols: c.cols[k:]}
}

// KeyPrefixLen is PrefixLen read off an encoded key instead of the tuple: the
// number of leading bytes of key — a full encoding this codec produced —
// that the first k columns occupy. Every column's encoding ends itself (fixed
// widths, terminated strings), so the walk needs only the column kinds. A
// sorter that has a row's key but not its datums (the row is still encoded)
// finds its shared-prefix skip this way.
func (c *Codec) KeyPrefixLen(key []byte, k int) int {
	if k < 0 || k > len(c.cols) {
		panic(fmt.Sprintf("keys: prefix %d out of range [0,%d]", k, len(c.cols)))
	}
	n := 0
	for _, col := range c.cols[:k] {
		n++ // marker byte
		if key[n-1] != markerValue {
			continue // NULL: the marker is the whole column
		}
		switch col.Kind {
		case types.KindInt, types.KindFloat:
			n += 8
		case types.KindBool:
			n++
		case types.KindString:
			// Content runs to the {0x00, terminator} pair; a 0x00 inside it
			// is followed by the escape byte instead. Descending columns
			// carry all of it inverted.
			zero, term := byte(0x00), byte(strTerminator)
			if col.Desc {
				zero, term = ^zero, ^term
			}
			for {
				n += bytes.IndexByte(key[n:], zero) + 2
				if key[n-1] == term {
					break
				}
			}
		}
	}
	return n
}

// PrefixLen returns the number of bytes Append writes for the first k key
// columns of t — the byte offset in t's full key at which the remaining
// columns' encoding starts. Inside one MRS partial-sort segment every
// tuple agrees on the first k (= |given|) column values, so every segment
// key shares its first PrefixLen bytes: suffix comparisons may slice past
// them and radix partitioning may seed at that depth. The length is
// computed arithmetically, without encoding.
func (c *Codec) PrefixLen(t types.Tuple, k int) int {
	if k < 0 || k > len(c.cols) {
		panic(fmt.Sprintf("keys: prefix %d out of range [0,%d]", k, len(c.cols)))
	}
	n := 0
	for _, col := range c.cols[:k] {
		d := t[col.Ordinal]
		n++ // marker byte, NULL or value
		if d.IsNull() {
			continue
		}
		switch col.Kind {
		case types.KindInt, types.KindFloat:
			n += 8
		case types.KindBool:
			n++
		case types.KindString:
			s := d.Str()
			// Each NUL escapes to two bytes; the terminator adds two.
			n += len(s) + strings.Count(s, "\x00") + 2
		}
	}
	return n
}

// Append encodes t's sort key and appends it to dst, returning the
// extended slice. It panics if a non-null key datum's kind differs from
// the column's declared kind: schemas are engine-constructed, so a
// mismatch is a bug, and encoding it anyway would silently mis-sort.
func (c *Codec) Append(dst []byte, t types.Tuple) []byte {
	for _, col := range c.cols {
		d := t[col.Ordinal]
		if d.IsNull() {
			if col.NullsLast {
				dst = append(dst, markerNullLast)
			} else {
				dst = append(dst, markerNullFirst)
			}
			continue
		}
		if d.Kind() != col.Kind {
			panic(fmt.Sprintf("keys: datum kind %v at ordinal %d, column declared %v",
				d.Kind(), col.Ordinal, col.Kind))
		}
		dst = append(dst, markerValue)
		start := len(dst)
		switch col.Kind {
		case types.KindInt:
			dst = appendUint64(dst, uint64(d.Int())^(1<<63))
		case types.KindFloat:
			dst = appendFloat(dst, d.Float())
		case types.KindBool:
			b := byte(0)
			if d.Bool() {
				b = 1
			}
			dst = append(dst, b)
		case types.KindString:
			dst = appendEscaped(dst, d.Str())
		}
		if col.Desc {
			for i := start; i < len(dst); i++ {
				dst[i] = ^dst[i]
			}
		}
	}
	return dst
}

// AppendEncoded is Append for a row still in its Tuple.Encode form: it
// appends the sort key of the encoded tuple enc without materializing a
// datum — how a sorter keys the rows of a chunk it received as encoded spans
// and will buffer as such, never decoding them. The bytes appended are
// exactly Append's for the decoded tuple; enc must be a well formed encoding
// whose key columns hold NULL or the declared kind (Append's contract),
// anything else is an error.
func (c *Codec) AppendEncoded(dst, enc []byte) ([]byte, error) {
	for _, col := range c.cols {
		d, err := types.EncodedDatum(enc, col.Ordinal)
		if err != nil {
			return dst, err
		}
		kind := types.Kind(d[0])
		if kind == types.KindNull {
			if col.NullsLast {
				dst = append(dst, markerNullLast)
			} else {
				dst = append(dst, markerNullFirst)
			}
			continue
		}
		if kind != col.Kind {
			return dst, fmt.Errorf("keys: encoded datum kind %v at ordinal %d, column declared %v", kind, col.Ordinal, col.Kind)
		}
		dst = append(dst, markerValue)
		start := len(dst)
		payload := d[1:]
		switch kind {
		case types.KindInt:
			dst = append(dst, payload...)
			dst[start] ^= 0x80
		case types.KindFloat:
			f := math.Float64frombits(binary.BigEndian.Uint64(payload))
			dst = appendFloat(dst, f)
		case types.KindBool:
			b := byte(0)
			if payload[0] != 0 {
				b = 1
			}
			dst = append(dst, b)
		case types.KindString:
			dst = appendEscaped(dst, payload[4:])
		}
		if col.Desc {
			for i := start; i < len(dst); i++ {
				dst[i] = ^dst[i]
			}
		}
	}
	return dst, nil
}

// AppendFixed encodes a fixed-width prefix of t's sort key: exactly width
// bytes are appended — the first width bytes of the full Append encoding,
// zero-padded when the full key is shorter — and the returned flag reports
// whether the key was truncated (the full encoding is longer than width).
//
// The fixed prefix is the comparison half of a fixed-width sort entry
// (DuckDB's SortLayout shape): two entries whose prefixes differ are
// ordered by a plain bytes.Compare of those width bytes, and a tie needs
// the full key — the overflow "blob" — if and only if BOTH entries report
// truncated. The mixed case cannot tie: full key encodings are prefix-free
// (every column terminates itself — see the package comment), so a
// complete zero-padded key and a longer key can never agree on all width
// bytes. The fuzz and property tests in this package pin that
// prefix-compare-then-blob equals bytes.Compare of the full encodings.
func (c *Codec) AppendFixed(dst []byte, t types.Tuple, width int) ([]byte, bool) {
	start := len(dst)
	dst = c.Append(dst, t)
	n := len(dst) - start
	if n > width {
		return dst[:start+width], true
	}
	for ; n < width; n++ {
		dst = append(dst, 0)
	}
	return dst, false
}

// FixedWidthHint recommends a fixed-prefix width for the key columns from
// position k on (k is the shared-prefix column count a sorter will skip;
// pass 0 for the whole key). Fixed-size columns contribute their exact
// encoded size, so keys over ints, floats and bools are never truncated;
// strings contribute marker + 8 content bytes — enough to separate
// realistic key strings while keeping entries compact — and the total is
// capped at fixedWidthCap so one long VARCHAR does not inflate every
// entry of the sort.
func (c *Codec) FixedWidthHint(k int) int {
	if k < 0 || k > len(c.cols) {
		panic(fmt.Sprintf("keys: prefix %d out of range [0,%d]", k, len(c.cols)))
	}
	w := 0
	for _, col := range c.cols[k:] {
		w += prefixWidth(col.Kind)
	}
	return min(max(w, 1), fixedWidthCap)
}

// FixedWidth is FixedWidthHint read off bare column kinds — the key columns
// a sorter's entries will discriminate on — for callers that size entries
// without building a codec (the planner's sort-footprint estimate).
func FixedWidth(kinds ...types.Kind) int {
	w := 0
	for _, k := range kinds {
		w += prefixWidth(k)
	}
	return min(max(w, 1), fixedWidthCap)
}

// prefixWidth is what one key column of kind k contributes to a fixed prefix.
func prefixWidth(k types.Kind) int {
	switch k {
	case types.KindNull:
		return 1 // the marker is the whole column
	case types.KindInt, types.KindFloat:
		return 9 // marker + 8 payload bytes
	case types.KindBool:
		return 2 // marker + payload byte
	case types.KindString:
		return 9 // marker + 8 content bytes (terminator spills to the blob)
	}
	return 0
}

// fixedWidthCap bounds FixedWidthHint: past this many prefix bytes, wider
// entries cost more in sort memory and cache footprint than the rare
// blob tie-break they would avoid.
const fixedWidthCap = 24

// EncodeBatch appends the sort keys of rows back-to-back to dst and
// appends each key's end offset — relative to the start of this batch —
// to ends, returning both extended slices. Key i of the batch occupies
// [ends[i-1], ends[i]) (with ends[-1] = 0) of the appended bytes. One
// EncodeBatch call amortizes dst's growth checks over a whole chunk of
// tuples.
func (c *Codec) EncodeBatch(dst []byte, rows []types.Tuple, ends []int) ([]byte, []int) {
	base := len(dst)
	for _, t := range rows {
		dst = c.Append(dst, t)
		ends = append(ends, len(dst)-base)
	}
	return dst, ends
}

// appendFloat appends the IEEE-754 total-order encoding of f.
func appendFloat(dst []byte, f float64) []byte {
	if f == 0 {
		f = 0 // normalize -0.0 to +0.0: Datum.Compare treats them as equal
	}
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return appendUint64(dst, bits)
}

// appendEscaped appends the prefix-free string encoding of s — a datum's
// string or string content still in an encoded row: 0x00 escaped, terminator
// appended.
func appendEscaped[S string | []byte](dst []byte, s S) []byte {
	// Fast path: no NUL bytes (the overwhelmingly common case) — one bulk
	// append instead of a byte-at-a-time escape loop.
	for {
		i := indexNUL(s)
		if i < 0 {
			dst = append(dst, s...)
			break
		}
		dst = append(dst, s[:i]...)
		dst = append(dst, 0x00, strEscape)
		s = s[i+1:]
	}
	return append(dst, 0x00, strTerminator)
}

func indexNUL[S string | []byte](s S) int {
	switch s := any(s).(type) {
	case string:
		return strings.IndexByte(s, 0x00)
	case []byte:
		return bytes.IndexByte(s, 0x00)
	}
	panic("unreachable")
}

func appendUint64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
