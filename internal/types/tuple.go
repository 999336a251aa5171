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
	n := 4 // column count
	for _, d := range t {
		n += d.EncodedSize()
	}
	return n
}

// Encode appends a binary encoding of the tuple to buf and returns the
// extended slice. Layout: u32 column count, then per datum a kind byte and
// the payload (i64/f64 big-endian, bool byte, or u32-length-prefixed string).
func (t Tuple) Encode(buf []byte) []byte {
	var scratch [8]byte
	binary.BigEndian.PutUint32(scratch[:4], uint32(len(t)))
	buf = append(buf, scratch[:4]...)
	for _, d := range t {
		buf = append(buf, byte(d.kind))
		switch d.kind {
		case KindNull:
		case KindInt:
			binary.BigEndian.PutUint64(scratch[:], uint64(d.i))
			buf = append(buf, scratch[:]...)
		case KindFloat:
			binary.BigEndian.PutUint64(scratch[:], math.Float64bits(d.f))
			buf = append(buf, scratch[:]...)
		case KindBool:
			b := byte(0)
			if d.i != 0 {
				b = 1
			}
			buf = append(buf, b)
		case KindString:
			binary.BigEndian.PutUint32(scratch[:4], uint32(len(d.s)))
			buf = append(buf, scratch[:4]...)
			buf = append(buf, d.s...)
		}
	}
	return buf
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
		if len(buf) < 5 {
			return 0, fmt.Errorf("types: truncated string length")
		}
		l := int(binary.BigEndian.Uint32(buf[1:5]))
		if l < 0 || l > len(buf)-5 {
			return 0, fmt.Errorf("types: truncated string payload")
		}
		*d = Datum{kind: KindString, s: string(buf[5 : 5+l])}
		return 5 + l, nil
	default:
		return 0, fmt.Errorf("types: unknown datum kind %d", kind)
	}
}

// DecodeTuple parses one tuple from buf, returning the tuple and the number
// of bytes consumed.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	return DecodeTupleInto(nil, buf)
}

// DecodeTupleInto is DecodeTuple into caller-supplied datum storage: the
// tuple is built in dst when its capacity covers the encoded arity (a fresh
// tuple is allocated otherwise), so a caller emitting many rows can carve
// them from one slab instead of paying an allocation per row.
func DecodeTupleInto(dst Tuple, buf []byte) (Tuple, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("types: short tuple header (%d bytes)", len(buf))
	}
	n := int(binary.BigEndian.Uint32(buf[:4]))
	// Every datum takes at least its kind byte, so a valid arity is bounded
	// by the remaining bytes — reject corrupt headers before allocating.
	if n < 0 || n > len(buf)-4 {
		return nil, 0, fmt.Errorf("types: tuple arity %d exceeds %d remaining bytes", uint32(n), len(buf)-4)
	}
	pos := 4
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
	if len(buf) < 4 {
		return 0, fmt.Errorf("types: short tuple header (%d bytes)", len(buf))
	}
	n := int(binary.BigEndian.Uint32(buf[:4]))
	if n < 0 || n > len(buf)-4 {
		return 0, fmt.Errorf("types: tuple arity %d exceeds %d remaining bytes", uint32(n), len(buf)-4)
	}
	pos := 4
	for i := 0; i < n; i++ {
		if pos >= len(buf) {
			return 0, fmt.Errorf("types: truncated tuple at datum %d", i)
		}
		sz, err := encodedDatumLen(buf[pos:])
		if err != nil {
			return 0, fmt.Errorf("types: datum %d: %w", i, err)
		}
		pos += sz
	}
	return pos, nil
}

// EncodedDatum returns the encoding — kind byte plus payload — of column col
// of the encoded tuple at the start of buf, without decoding anything: what
// a reader that needs one or two columns of a buffered row (a sort key, say)
// walks instead of materializing the tuple. Framing errors are DecodeTuple's.
func EncodedDatum(buf []byte, col int) ([]byte, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("types: short tuple header (%d bytes)", len(buf))
	}
	if n := int(binary.BigEndian.Uint32(buf[:4])); col < 0 || col >= n {
		return nil, fmt.Errorf("types: column %d of an encoded tuple of arity %d", col, uint32(n))
	}
	pos := 4
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
		if len(buf) < 5 {
			return 0, fmt.Errorf("types: truncated string length")
		}
		sz = 4 + int(binary.BigEndian.Uint32(buf[1:5]))
	default:
		return 0, fmt.Errorf("types: unknown datum kind %d", kind)
	}
	if sz < 0 || sz > len(buf)-1 {
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
