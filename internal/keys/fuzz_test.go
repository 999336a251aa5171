package keys

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"pyro/internal/types"
)

// fuzzTuple decodes one tuple for the fuzz schema from the byte stream:
// each column consumes a control byte (null / kind-specific value shape)
// and, for values, payload bytes. The decoder is total — any input yields
// a valid tuple — so the fuzzer explores the full encoding space.
func fuzzTuple(data []byte, cols []Col) (types.Tuple, []byte) {
	tup := make(types.Tuple, len(cols))
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	take := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		out := data[:n]
		data = data[n:]
		return out
	}
	for i, col := range cols {
		if next()%5 == 0 {
			tup[i] = types.Null
			continue
		}
		switch col.Kind {
		case types.KindInt:
			var raw [8]byte
			copy(raw[:], take(8))
			tup[i] = types.NewInt(int64(binary.BigEndian.Uint64(raw[:])))
		case types.KindFloat:
			var raw [8]byte
			copy(raw[:], take(8))
			f := math.Float64frombits(binary.BigEndian.Uint64(raw[:]))
			if math.IsNaN(f) {
				// Datum.Compare has no coherent NaN order; the codec's
				// guarantee explicitly excludes it.
				f = 0
			}
			tup[i] = types.NewFloat(f)
		case types.KindBool:
			tup[i] = types.NewBool(next()%2 == 0)
		case types.KindString:
			tup[i] = types.NewString(string(take(int(next()) % 9)))
		}
	}
	return tup, data
}

// fuzzKind reads a column's kind off its control byte: one of the four value
// kinds by the low bits, or — bit 6 set and bit 7 clear, which no seed from
// before NULL-typed columns could be keys has — KindNull.
func fuzzKind(b byte) types.Kind {
	if b&0xC0 == 0x40 {
		return types.KindNull
	}
	return allKinds[int(b)%4]
}

// FuzzFixedPrefixAgreesWithFullCompare pins the fixed-width entry
// contract under fuzzing: for any column spec, any pair of tuples and any
// prefix width, comparing the AppendFixed prefixes and falling back to the
// full keys only when BOTH are truncated yields exactly bytes.Compare of
// the full encodings. The seeds steer the fuzzer at the adversarial
// shapes: strings sharing long prefixes, keys whose full encoding lands
// exactly on the cutoff width, NULL markers, and descending (inverted)
// payloads.
func FuzzFixedPrefixAgreesWithFullCompare(f *testing.F) {
	f.Add(7, []byte{})
	// Shared-prefix strings that diverge past the cutoff.
	f.Add(5, append([]byte{0x03, 0x01, 0x08}, []byte("aaaaaaaa\x01\x08aaaaaaab")...))
	// Exact-cutoff lengths: a one-int key is 9 encoded bytes.
	f.Add(9, []byte{0x00, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Add(8, []byte{0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01})
	// NULLs (control byte 0 => NULL) and desc columns (0x10 bit).
	f.Add(3, []byte{0x01, 0x13, 0x00, 0x00, 0x05})
	f.Add(1, bytes.Repeat([]byte{0x00}, 32))
	// A NULL-typed column (0x40) ahead of a string cut at the width.
	f.Add(4, append([]byte{0x01, 0x40, 0x02, 0x01, 0x01, 0x05}, []byte("aaaab\x01\x01\x05aaaac")...))

	f.Fuzz(func(t *testing.T, width int, data []byte) {
		if width < 1 {
			width = 1
		}
		if width > 64 {
			width = 64
		}
		ctl := byte(0)
		if len(data) > 0 {
			ctl, data = data[0], data[1:]
		}
		ncols := 1 + int(ctl&0x03)
		cols := make([]Col, ncols)
		for i := range cols {
			var b byte
			if len(data) > 0 {
				b, data = data[0], data[1:]
			}
			cols[i] = Col{
				Ordinal:   i,
				Kind:      fuzzKind(b),
				Desc:      b&0x10 != 0,
				NullsLast: b&0x20 != 0,
			}
		}
		c, err := New(cols)
		if err != nil {
			t.Fatal(err)
		}
		var a, b types.Tuple
		a, data = fuzzTuple(data, cols)
		b, data = fuzzTuple(data, cols)
		// Tie leading columns so the interesting divergence sits near (and
		// past) the cutoff.
		for i := range cols {
			if len(data) > 0 && data[0]%3 != 0 {
				b[i] = a[i]
			}
			if len(data) > 0 {
				data = data[1:]
			}
		}

		ka := c.Append(nil, a)
		kb := c.Append(nil, b)
		fa, ta := c.AppendFixed(nil, a, width)
		fb, tb := c.AppendFixed(nil, b, width)
		if len(fa) != width || len(fb) != width {
			t.Fatalf("AppendFixed width %d produced %d/%d bytes", width, len(fa), len(fb))
		}
		if ta != (len(ka) > width) || tb != (len(kb) > width) {
			t.Fatalf("truncation flags %v/%v disagree with key lengths %d/%d at width %d",
				ta, tb, len(ka), len(kb), width)
		}
		got := bytes.Compare(fa, fb)
		if got == 0 {
			if ta != tb {
				// Prefix-freeness of the full encoding makes a complete
				// (zero-padded) key and a truncated key impossible to tie.
				t.Fatalf("mixed-truncation prefix tie at width %d:\n a=%v key=%x\n b=%v key=%x",
					width, a, ka, b, kb)
			}
			if ta && tb {
				got = sign(bytes.Compare(ka, kb)) // the blob tie-break
			}
		} else {
			got = sign(got)
		}
		if want := sign(bytes.Compare(ka, kb)); got != want {
			t.Fatalf("width %d spec %+v:\n a=%v key=%x fixed=%x trunc=%v\n b=%v key=%x fixed=%x trunc=%v\n prefix+blob=%d, full=%d",
				width, cols, a, ka, fa, ta, b, kb, fb, tb, got, want)
		}
	})
}

// FuzzCodecAgreesWithComparator is the package guarantee under fuzzing:
// for any pair of tuples and any column spec drawn from the input bytes,
// bytes.Compare over the encoded keys equals the reference comparator
// (NULL placement, typed compare, direction) — and PrefixLen splits the
// full key exactly where the suffix codec's encoding begins.
func FuzzCodecAgreesWithComparator(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0xFF, 0x00, 0x42, 0x03, 'a', 0x00, 'b'})
	f.Add(bytes.Repeat([]byte{0x00}, 64))
	f.Add(bytes.Repeat([]byte{0xFF, 0x80, 0x00}, 24))
	// A NULL-typed column (0x40) first, in the middle and last of an int/string key.
	f.Add([]byte{0x02, 0x40, 0x00, 0x12, 0x01, 0x01, 0, 0, 0, 0, 0, 0, 0, 7, 0x01, 0x02, 'a', 'b'})
	f.Add([]byte{0x02, 0x00, 0x60, 0x02, 0x01, 0, 0, 0, 0, 0, 0, 0, 7, 0x01, 0x01, 0x01, 'a'})
	f.Add([]byte{0x02, 0x02, 0x10, 0x40, 0x01, 0x01, 'a', 0x01, 0, 0, 0, 0, 0, 0, 0, 7, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		ctl := byte(0)
		if len(data) > 0 {
			ctl, data = data[0], data[1:]
		}
		ncols := 1 + int(ctl&0x03)
		cols := make([]Col, ncols)
		for i := range cols {
			var b byte
			if len(data) > 0 {
				b, data = data[0], data[1:]
			}
			cols[i] = Col{
				Ordinal:   i,
				Kind:      fuzzKind(b),
				Desc:      b&0x10 != 0,
				NullsLast: b&0x20 != 0,
			}
		}
		c, err := New(cols)
		if err != nil {
			t.Fatal(err)
		}
		var a, b types.Tuple
		a, data = fuzzTuple(data, cols)
		b, data = fuzzTuple(data, cols)
		// Force column-level ties on a prefix so deeper columns decide.
		for i := range cols {
			if len(data) > 0 && data[0]%3 == 0 {
				b[i] = a[i]
			}
			if len(data) > 0 {
				data = data[1:]
			}
		}

		ka := c.Append(nil, a)
		kb := c.Append(nil, b)
		got := sign(bytes.Compare(ka, kb))
		want := sign(refCompare(cols, a, b))
		if got != want {
			t.Fatalf("spec %+v:\n a=%v key=%x\n b=%v key=%x\n bytes.Compare=%d, comparator=%d",
				cols, a, ka, b, kb, got, want)
		}
		for k := 0; k <= ncols; k++ {
			n := c.PrefixLen(a, k)
			suffix := c.Suffix(k).Append(nil, a)
			if n+len(suffix) != len(ka) || !bytes.Equal(ka[n:], suffix) {
				t.Fatalf("PrefixLen(%d) = %d does not split key %x before suffix %x", k, n, ka, suffix)
			}
		}
	})
}

// FuzzAppendEncoded holds the encoded-row key path to the datum path on
// arbitrary tuples of the fuzz schema, in both directions and NULL
// placements.
func FuzzAppendEncoded(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 42, 1, 3, 'a', 0, 'b', 1, 1}, uint8(0))
	f.Add([]byte{0, 0, 0, 0}, uint8(0xff))
	f.Fuzz(func(t *testing.T, data []byte, flags uint8) {
		cols := []Col{
			{Ordinal: 0, Kind: types.KindInt, Desc: flags&1 != 0, NullsLast: flags&2 != 0},
			{Ordinal: 1, Kind: types.KindString, Desc: flags&4 != 0, NullsLast: flags&8 != 0},
			{Ordinal: 2, Kind: types.KindFloat, Desc: flags&16 != 0, NullsLast: flags&32 != 0},
			{Ordinal: 3, Kind: types.KindBool, Desc: flags&64 != 0, NullsLast: flags&128 != 0},
			{Ordinal: 4, Kind: types.KindNull, NullsLast: flags&1 != 0},
		}
		c, err := New(cols)
		if err != nil {
			t.Fatal(err)
		}
		tup, _ := fuzzTuple(data, cols)
		want := c.Append(nil, tup)
		got, err := c.AppendEncoded(nil, tup.Encode(nil))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v: key from encoded row % x (%v), from datums % x", tup, got, err, want)
		}
		for k := 0; k <= len(cols); k++ {
			if got, want := c.KeyPrefixLen(want, k), c.PrefixLen(tup, k); got != want {
				t.Fatalf("%v: KeyPrefixLen(%d) = %d, PrefixLen = %d", tup, k, got, want)
			}
		}
	})
}
