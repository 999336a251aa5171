package types

import (
	"testing"
)

// addTupleCorpus seeds a fuzzer with valid encodings and the corrupt shapes
// the decoder must reject: lying arity, truncated payloads, unknown kinds.
func addTupleCorpus(f *testing.F) {
	f.Add(NewTuple(NewInt(42), NewString("abc"), NewFloat(1.5), NewBool(true), Null).Encode(nil))
	f.Add(NewTuple().Encode(nil))
	f.Add([]byte{0, 0, 0, 1, 4, 0, 0, 0, 3, 'a', 'b', 'c'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 2, 1, 0})
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
		if n < 4 || n > len(data) {
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
