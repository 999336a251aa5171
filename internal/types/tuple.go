package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Tuple is a row: one datum per schema column, positionally aligned.
type Tuple []Datum

// NewTuple builds a tuple from datums.
func NewTuple(ds ...Datum) Tuple { return Tuple(ds) }

// Clone returns a deep-enough copy (datums are values; strings share bytes,
// which is safe because datums are immutable).
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Concat returns the concatenation of two tuples (join output).
func (t Tuple) Concat(u Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(u))
	out = append(out, t...)
	out = append(out, u...)
	return out
}

// tupleMemOverhead is the slice header every tuple carries in memory.
const tupleMemOverhead = 24

// MemSize approximates the in-memory footprint in bytes.
func (t Tuple) MemSize() int {
	n := tupleMemOverhead
	for _, d := range t {
		n += d.MemSize()
	}
	return n
}

// EncodedSize returns the exact byte length of Encode's output.
func (t Tuple) EncodedSize() int {
	n := uvarintLen(len(t)) // column count
	for _, d := range t {
		n += d.EncodedSize()
	}
	return n
}

// Encode appends a binary encoding of the tuple to buf and returns the
// extended slice. Layout: the column count as a uvarint, then per datum a
// kind byte and the payload (i64/f64 big-endian, bool byte, or a string's
// length as a uvarint followed by its bytes). A uvarint is one byte below
// 128, so a row of fewer than 128 columns spends one byte on its count and
// a string shorter than 128 bytes one byte on its length.
func (t Tuple) Encode(buf []byte) []byte {
	buf = appendUvarint(buf, len(t))
	for _, d := range t {
		buf = append(buf, byte(d.kind))
		switch d.kind {
		case KindNull:
		case KindInt:
			buf = binary.BigEndian.AppendUint64(buf, uint64(d.i))
		case KindFloat:
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(d.f))
		case KindBool:
			b := byte(0)
			if d.i != 0 {
				b = 1
			}
			buf = append(buf, b)
		case KindString:
			buf = appendUvarint(buf, len(d.s))
			buf = append(buf, d.s...)
		}
	}
	return buf
}

// appendUvarint appends x as a uvarint: one byte below 128.
func appendUvarint(buf []byte, x int) []byte {
	if x < 0x80 {
		return append(buf, byte(x))
	}
	return binary.AppendUvarint(buf, uint64(x))
}

// uvarintLen returns the byte length of x's uvarint encoding.
func uvarintLen(x int) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// uvarint reads the uvarint at the start of buf: its value and the bytes it
// took, or n = 0 when buf does not start with one that fits an int. It
// accepts only the shortest encoding of a value, so a count's or a length's
// byte width follows from its value (Chunk.decodeRow skips the column count
// by it). The readers on the decode path take the one-byte case — every
// count and length below 128 — inline and call this only past it, since
// this function is too large to inline and they run once per datum. The test
// is repeated at each reader because a helper holding it and the call past it
// is too large to inline as well (Go 1.24: cost 96 for the count, 89 for a
// string's length, against a budget of 80), and called, it costs the decode
// loops 15–30 %.
func uvarint(buf []byte) (int, int) {
	x, n := binary.Uvarint(buf)
	if n <= 0 || x > math.MaxInt || (n > 1 && buf[n-1] == 0) {
		return 0, 0 // truncated, longer than 64 bits, above MaxInt or padded
	}
	return int(x), n
}

// decodeDatum parses one encoded datum (kind byte + payload) from buf into
// *d, returning the number of bytes consumed. Both the row path (DecodeTuple)
// and the batch path (Chunk) decode through here, so the two cannot drift
// apart. Writing through the pointer keeps the 40-byte Datum out of the
// return registers on what is the hot loop of every scan and every sort
// emission.
func decodeDatum(d *Datum, buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("types: empty datum")
	}
	switch kind := Kind(buf[0]); kind {
	case KindNull:
		*d = Null
		return 1, nil
	case KindInt:
		if len(buf) < 9 {
			return 0, fmt.Errorf("types: truncated int datum")
		}
		*d = Datum{kind: KindInt, i: int64(binary.BigEndian.Uint64(buf[1:9]))}
		return 9, nil
	case KindFloat:
		if len(buf) < 9 {
			return 0, fmt.Errorf("types: truncated float datum")
		}
		*d = Datum{kind: KindFloat, f: math.Float64frombits(binary.BigEndian.Uint64(buf[1:9]))}
		return 9, nil
	case KindBool:
		if len(buf) < 2 {
			return 0, fmt.Errorf("types: truncated bool datum")
		}
		*d = NewBool(buf[1] != 0)
		return 2, nil
	case KindString:
		l, h := 0, 1
		if len(buf) > 1 && buf[1] < 0x80 {
			l = int(buf[1])
		} else if l, h = uvarint(buf[1:]); h == 0 {
			return 0, fmt.Errorf("types: bad string length")
		}
		h++ // the kind byte
		if l > len(buf)-h {
			return 0, fmt.Errorf("types: truncated string payload")
		}
		*d = Datum{kind: KindString, s: string(buf[h : h+l])}
		return h + l, nil
	default:
		return 0, fmt.Errorf("types: unknown datum kind %d", kind)
	}
}

// DecodeTuple parses one tuple from buf, returning the tuple and the number
// of bytes consumed.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	return DecodeTupleInto(nil, buf)
}

// arity reads the column count at the start of an encoded tuple: the count
// and the bytes it took. Every datum takes at least its kind byte, so a
// valid arity is bounded by the remaining bytes — corrupt headers are
// rejected before anything is allocated. Its callers read a valid one-byte
// count — a row of under 128 columns — inline and call it for anything
// else, since it does not inline.
func arity(buf []byte) (int, int, error) {
	n, h := uvarint(buf)
	if h == 0 {
		return 0, 0, fmt.Errorf("types: bad tuple header (%d bytes)", len(buf))
	}
	if n > len(buf)-h {
		return 0, 0, fmt.Errorf("types: tuple arity %d exceeds %d remaining bytes", n, len(buf)-h)
	}
	return n, h, nil
}

// DecodeTupleInto is DecodeTuple into caller-supplied datum storage: the
// tuple is built in dst when its capacity covers the encoded arity (a fresh
// tuple is allocated otherwise), so a caller emitting many rows can carve
// them from one slab instead of paying an allocation per row.
func DecodeTupleInto(dst Tuple, buf []byte) (Tuple, int, error) {
	n, pos, err := 0, 1, error(nil)
	if len(buf) > 0 && int(buf[0]) < min(len(buf), 0x80) {
		n = int(buf[0])
	} else if n, pos, err = arity(buf); err != nil {
		return nil, 0, err
	}
	t := dst[:0]
	if cap(t) < n {
		t = make(Tuple, n)
	}
	t = t[:n]
	for i := 0; i < n; i++ {
		if pos >= len(buf) {
			return nil, 0, fmt.Errorf("types: truncated tuple at datum %d", i)
		}
		sz, err := decodeDatum(&t[i], buf[pos:])
		if err != nil {
			return nil, 0, err
		}
		pos += sz
	}
	return t, pos, nil
}

// EncodedTupleLen returns the byte length of the encoded tuple at the start
// of buf without materialising its datums — what a byte-level copy of the
// tuple has to move. It walks the datum framing under the same bounds checks
// as DecodeTuple, so it fails exactly where DecodeTuple would
// (FuzzEncodedTupleLen holds the two to one verdict).
func EncodedTupleLen(buf []byte) (int, error) {
	_, pos, err := frame(buf)
	return pos, err
}

// frame is EncodedTupleLen that also returns the tuple's arity.
func frame(buf []byte) (int, int, error) {
	n, pos, err := 0, 1, error(nil)
	if len(buf) > 0 && int(buf[0]) < min(len(buf), 0x80) {
		n = int(buf[0])
	} else if n, pos, err = arity(buf); err != nil {
		return 0, 0, err
	}
	for i := 0; i < n; i++ {
		if pos >= len(buf) {
			return 0, 0, fmt.Errorf("types: truncated tuple at datum %d", i)
		}
		sz, err := encodedDatumLen(buf[pos:])
		if err != nil {
			return 0, 0, fmt.Errorf("types: datum %d: %w", i, err)
		}
		pos += sz
	}
	return n, pos, nil
}

// EncodedDatum returns the encoding — kind byte plus payload — of column col
// of the encoded tuple at the start of buf, without decoding anything: what
// a reader that needs one or two columns of a buffered row (a sort key, say)
// walks instead of materializing the tuple. Framing errors are DecodeTuple's.
func EncodedDatum(buf []byte, col int) ([]byte, error) {
	n, pos, err := 0, 1, error(nil)
	if len(buf) > 0 && int(buf[0]) < min(len(buf), 0x80) {
		n = int(buf[0])
	} else if n, pos, err = arity(buf); err != nil {
		return nil, err
	}
	if col < 0 || col >= n {
		return nil, fmt.Errorf("types: column %d of an encoded tuple of arity %d", col, n)
	}
	for i := 0; ; i++ {
		sz, err := encodedDatumLen(buf[pos:])
		if err != nil {
			return nil, fmt.Errorf("types: datum %d: %w", i, err)
		}
		if i == col {
			return buf[pos : pos+sz : pos+sz], nil
		}
		pos += sz
	}
}

// StringBytes returns the string of d, an encoded string datum as
// EncodedDatum returns it: the bytes past its kind byte and its length.
func StringBytes(d []byte) []byte {
	i := 1
	for d[i] >= 0x80 { // the length's continuation bytes
		i++
	}
	return d[i+1:]
}

// encodedDatumLen returns the byte length (kind byte included) of the
// encoded datum at the start of buf.
func encodedDatumLen(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("types: empty datum")
	}
	sz := 0
	switch kind := Kind(buf[0]); kind {
	case KindNull:
	case KindInt, KindFloat:
		sz = 8
	case KindBool:
		sz = 1
	case KindString:
		l, h := 0, 1
		if len(buf) > 1 && buf[1] < 0x80 {
			l = int(buf[1])
		} else if l, h = uvarint(buf[1:]); h == 0 {
			return 0, fmt.Errorf("types: bad string length")
		}
		if l > len(buf)-1-h {
			return 0, fmt.Errorf("types: truncated datum")
		}
		return 1 + h + l, nil
	default:
		return 0, fmt.Errorf("types: unknown datum kind %d", kind)
	}
	if sz > len(buf)-1 {
		return 0, fmt.Errorf("types: truncated datum")
	}
	return 1 + sz, nil
}

// String renders the tuple for debug output.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, d := range t {
		parts[i] = d.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}
