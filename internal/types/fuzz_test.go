package types

import (
	"testing"
)

// addTupleCorpus seeds a fuzzer with valid encodings and the corrupt shapes
// the decoder must reject: lying arity, truncated payloads, unknown kinds,
// and uvarints that are overlong, above MaxInt or not the shortest.
func addTupleCorpus(f *testing.F) {
	f.Add(NewTuple(NewInt(42), NewString("abc"), NewFloat(1.5), NewBool(true), Null).Encode(nil))
	f.Add(NewTuple().Encode(nil))
	f.Add([]byte{1, 3, 3, 'a', 'b', 'c'})       // one string column, "abc"
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f, 1, 2}) // arity 2³²−1 over six bytes
	f.Add([]byte{2, 1, 0})                      // an int cut after one payload byte
	for _, corrupt := range corruptUvarints {
		f.Add(corrupt)
	}
}

// corruptUvarints are rows whose column count or string length is a uvarint
// no reader may accept; each must be an error, never a panic.
var corruptUvarints = [][]byte{
	{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},       // an 11-byte arity
	{1, 3, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, // an 11-byte string length
	{1, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 'a'},  // a string length of 2⁶⁴−1, above MaxInt
	{0x80, 0x01, 0, 0, 0},   // arity 128 beyond a 3-byte rest
	{0x81, 0x00, 0},         // arity 1 padded to two bytes
	{1, 3, 0x81, 0x00, 'a'}, // length 1 padded to two bytes
	{1, 3, 0x80},            // a string length cut off
	{0x80},                  // an arity cut off
}

// FuzzDecodeTuple drives the tuple decoder with arbitrary bytes: corrupted
// headers and payloads must come back as errors — never a panic, an
// over-read past the buffer, or an absurd allocation from a corrupt arity.
func FuzzDecodeTuple(f *testing.F) {
	addTupleCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tup, n, err := DecodeTuple(data)
		if err != nil {
			return
		}
		if n < 1 || n > len(data) {
			t.Fatalf("decoder consumed %d of %d bytes", n, len(data))
		}
		// Whatever decoded must survive a re-encode/re-decode round trip
		// (encodings are not byte-canonical — any nonzero bool byte decodes
		// to true — so compare datums, not bytes).
		re := tup.Encode(nil)
		tup2, n2, err := DecodeTuple(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if n2 != len(re) || len(tup2) != len(tup) {
			t.Fatalf("re-decode consumed %d of %d bytes, arity %d want %d", n2, len(re), len(tup2), len(tup))
		}
		for i := range tup {
			if tup[i].Kind() != tup2[i].Kind() || tup[i].Compare(tup2[i]) != 0 {
				t.Fatalf("datum %d changed across round trip: %v != %v", i, tup[i], tup2[i])
			}
		}
	})
}

// FuzzEncodedTupleLen holds the framing-only length walk to DecodeTuple's
// verdict on arbitrary bytes: the same consumed length wherever the decoder
// succeeds and an error wherever it fails, so a byte-level tuple copy can
// never move a span the decoder would have rejected.
func FuzzEncodedTupleLen(f *testing.F) {
	addTupleCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, want, derr := DecodeTuple(data)
		got, lerr := EncodedTupleLen(data)
		if (derr == nil) != (lerr == nil) {
			t.Fatalf("DecodeTuple err = %v, EncodedTupleLen err = %v", derr, lerr)
		}
		if derr == nil && got != want {
			t.Fatalf("EncodedTupleLen = %d, DecodeTuple consumed %d", got, want)
		}
	})
}
