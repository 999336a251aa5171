package keys

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"pyro/internal/sortord"
	"pyro/internal/types"
)

// refCompare is the comparator-semantics reference the encoding must agree
// with: per column, NULL placement by flag, then types.Datum.Compare,
// inverted for descending columns.
func refCompare(cols []Col, a, b types.Tuple) int {
	for _, col := range cols {
		da, db := a[col.Ordinal], b[col.Ordinal]
		an, bn := da.IsNull(), db.IsNull()
		if an || bn {
			switch {
			case an && bn:
				continue
			case an:
				if col.NullsLast {
					return 1
				}
				return -1
			default:
				if col.NullsLast {
					return -1
				}
				return 1
			}
		}
		c := da.Compare(db)
		if col.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// randDatum returns a random datum of kind k, NULL with probability ~1/5.
// Values are drawn from small domains so collisions (the equality case)
// actually occur.
func randDatum(r *rand.Rand, k types.Kind) types.Datum {
	if r.Intn(5) == 0 {
		return types.Null
	}
	switch k {
	case types.KindInt:
		switch r.Intn(4) {
		case 0:
			return types.NewInt(int64(r.Intn(5)) - 2)
		case 1:
			return types.NewInt(math.MaxInt64 - int64(r.Intn(3)))
		case 2:
			return types.NewInt(math.MinInt64 + int64(r.Intn(3)))
		default:
			return types.NewInt(r.Int63() - r.Int63())
		}
	case types.KindFloat:
		switch r.Intn(5) {
		case 0:
			return types.NewFloat(0)
		case 1:
			return types.NewFloat(math.Copysign(0, -1)) // -0.0: must equal +0.0
		case 2:
			return types.NewFloat(math.Inf(1 - 2*r.Intn(2)))
		case 3:
			return types.NewFloat(float64(r.Intn(7)-3) / 2)
		default:
			return types.NewFloat(r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20)))
		}
	case types.KindBool:
		return types.NewBool(r.Intn(2) == 0)
	case types.KindString:
		// Adversarial alphabet: NULs (escaping), 0xFF (escape byte),
		// shared prefixes (terminator ordering).
		alphabet := []byte{0x00, 0x01, 'a', 'b', 0xFE, 0xFF}
		n := r.Intn(6)
		s := make([]byte, n)
		for i := range s {
			s[i] = alphabet[r.Intn(len(alphabet))]
		}
		return types.NewString(string(s))
	}
	return types.Null
}

// allKinds are the kinds a key column can declare. KindNull (a projected NULL
// literal) is last: the fuzzers index the first four by a control byte.
var allKinds = []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool, types.KindNull}

// TestEncodingAgreesWithComparator is the core property: for randomized
// multi-column specs across all supported types, directions and null
// placements, bytes.Compare over encoded keys equals the reference
// comparator.
func TestEncodingAgreesWithComparator(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		ncols := 1 + r.Intn(4)
		cols := make([]Col, ncols)
		for i := range cols {
			cols[i] = Col{
				Ordinal:   i,
				Kind:      allKinds[r.Intn(len(allKinds))],
				Desc:      r.Intn(2) == 0,
				NullsLast: r.Intn(2) == 0,
			}
		}
		c, err := New(cols)
		if err != nil {
			t.Fatal(err)
		}
		a := make(types.Tuple, ncols)
		b := make(types.Tuple, ncols)
		for i, col := range cols {
			a[i] = randDatum(r, col.Kind)
			b[i] = randDatum(r, col.Kind)
			if r.Intn(3) == 0 {
				b[i] = a[i] // force ties on a prefix of the key
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
	}
}

// TestDefaultCodecMatchesKeySpec checks the engine wiring: a codec built
// from a schema+order (or from the resolved KeySpec) reproduces
// types.KeySpec.Compare exactly — that is the contract the sort operators
// rely on when swapping comparator calls for byte compares.
func TestDefaultCodecMatchesKeySpec(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "i", Kind: types.KindInt},
		types.Column{Name: "f", Kind: types.KindFloat},
		types.Column{Name: "s", Kind: types.KindString},
		types.Column{Name: "b", Kind: types.KindBool},
	)
	order := sortord.New("s", "i", "b", "f")
	ks := types.MustKeySpec(schema, order)

	fromOrder, err := NewCodec(schema, order)
	if err != nil {
		t.Fatal(err)
	}
	fromSpec, err := FromKeySpec(ks)
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(7))
	gen := func() types.Tuple {
		return types.NewTuple(
			randDatum(r, types.KindInt),
			randDatum(r, types.KindFloat),
			randDatum(r, types.KindString),
			randDatum(r, types.KindBool),
		)
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := gen(), gen()
		want := sign(ks.Compare(a, b))
		for _, c := range []*Codec{fromOrder, fromSpec} {
			got := sign(bytes.Compare(c.Append(nil, a), c.Append(nil, b)))
			if got != want {
				t.Fatalf("a=%v b=%v: key compare %d, KeySpec.Compare %d", a, b, got, want)
			}
		}
	}
}

// TestSuffixCodec checks that Suffix(k) encodes exactly the trailing
// columns: the key of the suffix codec equals the tail of the full key
// region-wise (by comparing order, not layout).
func TestSuffixCodec(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindString},
		types.Column{Name: "c", Kind: types.KindFloat},
	)
	full, err := NewCodec(schema, sortord.New("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	suffix := full.Suffix(1)
	if suffix.Len() != 2 {
		t.Fatalf("suffix len = %d, want 2", suffix.Len())
	}
	ks := types.MustKeySpec(schema, sortord.New("a", "b", "c"))
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		a := types.NewTuple(types.NewInt(1), randDatum(r, types.KindString), randDatum(r, types.KindFloat))
		b := types.NewTuple(types.NewInt(1), randDatum(r, types.KindString), randDatum(r, types.KindFloat))
		got := sign(bytes.Compare(suffix.Append(nil, a), suffix.Append(nil, b)))
		want := sign(ks.CompareSuffix(a, b, 1))
		if got != want {
			t.Fatalf("a=%v b=%v: suffix key compare %d, CompareSuffix %d", a, b, got, want)
		}
	}
}

// TestPrefixLen: the arithmetic prefix length must equal the bytes Append
// actually writes for the prefix columns — i.e. the full key is exactly
// the k-column prefix encoding followed by the Suffix(k) encoding, and
// PrefixLen is the split point. This is the contract MRS relies on when it
// slices full keys past a segment's shared `given` prefix.
func TestPrefixLen(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 1000; trial++ {
		ncols := 1 + r.Intn(4)
		cols := make([]Col, ncols)
		for i := range cols {
			cols[i] = Col{
				Ordinal:   i,
				Kind:      allKinds[r.Intn(len(allKinds))],
				Desc:      r.Intn(2) == 0,
				NullsLast: r.Intn(2) == 0,
			}
		}
		c, err := New(cols)
		if err != nil {
			t.Fatal(err)
		}
		tup := make(types.Tuple, ncols)
		for i, col := range cols {
			tup[i] = randDatum(r, col.Kind)
		}
		full := c.Append(nil, tup)
		for k := 0; k <= ncols; k++ {
			n := c.PrefixLen(tup, k)
			suffix := c.Suffix(k).Append(nil, tup)
			if n+len(suffix) != len(full) || !bytes.Equal(full[n:], suffix) {
				t.Fatalf("spec %+v tuple %v: PrefixLen(%d) = %d, but full key %x splits into suffix %x",
					cols, tup, k, n, full, suffix)
			}
		}
	}
	c, _ := New([]Col{{Ordinal: 0, Kind: types.KindInt}})
	for _, bad := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PrefixLen(%d) out of range should panic", bad)
				}
			}()
			c.PrefixLen(types.NewTuple(types.NewInt(1)), bad)
		}()
	}
}

// TestPrefixFreedom: a key is never a strict prefix of another key under
// the same codec when the keys differ — otherwise sort order would depend
// on what follows the key in a longer buffer.
func TestPrefixFreedom(t *testing.T) {
	cols := []Col{{Ordinal: 0, Kind: types.KindString}}
	c, err := New(cols)
	if err != nil {
		t.Fatal(err)
	}
	vals := []string{"", "a", "ab", "a\x00", "a\x00b", "a\xff", "\x00", "\xff"}
	for _, va := range vals {
		for _, vb := range vals {
			ka := c.Append(nil, types.NewTuple(types.NewString(va)))
			kb := c.Append(nil, types.NewTuple(types.NewString(vb)))
			if va != vb && (bytes.HasPrefix(ka, kb) || bytes.HasPrefix(kb, ka)) {
				t.Fatalf("keys of %q and %q are prefix-related: %x / %x", va, vb, ka, kb)
			}
		}
	}
}

func TestCodecValidation(t *testing.T) {
	if _, err := New([]Col{{Ordinal: 0, Kind: types.Kind(99)}}); err == nil {
		t.Fatal("a key column of no known kind should be rejected")
	}
	if _, err := New([]Col{{Ordinal: -1, Kind: types.KindInt}}); err == nil {
		t.Fatal("negative ordinal should be rejected")
	}
	if _, err := FromKeySpec(types.KeySpec{Ordinals: []int{0}}); err == nil {
		t.Fatal("KeySpec without kinds should be rejected")
	}
	schema := types.NewSchema(types.Column{Name: "a", Kind: types.KindInt})
	if _, err := NewCodec(schema, sortord.New("zz")); err == nil {
		t.Fatal("unknown attribute should be rejected")
	}
}

// TestNullTypedKeyColumn: a column declared KindNull is one marker byte of
// key wherever it sits — first, in the middle, last — and changes nothing
// about the rest: the order is the reference comparator's, the key read off
// the encoded row is the key built from the datums, and the prefix lengths
// read off the key are the tuple's. A non-NULL datum there is the contract
// violation any mismatched kind is.
func TestNullTypedKeyColumn(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for pos := 0; pos < 3; pos++ {
		cols := []Col{{Kind: types.KindInt}, {Kind: types.KindString, Desc: true}}
		cols = append(cols[:pos:pos], append([]Col{{Kind: types.KindNull, NullsLast: pos == 1}}, cols[pos:]...)...)
		for i := range cols {
			cols[i].Ordinal = i
		}
		c, err := New(cols)
		if err != nil {
			t.Fatalf("NULL-typed column at key position %d: %v", pos, err)
		}
		if w := c.FixedWidthHint(0); w != 9+9+1 {
			t.Errorf("position %d: hint = %d, want two 9-byte columns and the marker", pos, w)
		}
		draw := func() types.Tuple {
			tup := make(types.Tuple, len(cols))
			for i, col := range cols {
				tup[i] = randDatum(r, col.Kind)
			}
			return tup
		}
		for trial := 0; trial < 300; trial++ {
			a, b := draw(), draw()
			ka, kb := c.Append(nil, a), c.Append(nil, b)
			if got, want := sign(bytes.Compare(ka, kb)), sign(refCompare(cols, a, b)); got != want {
				t.Fatalf("position %d: %v vs %v: bytes.Compare=%d, comparator=%d", pos, a, b, got, want)
			}
			if enc, err := c.AppendEncoded(nil, a.Encode(nil)); err != nil || !bytes.Equal(enc, ka) {
				t.Fatalf("position %d: %v: key from encoded row % x (%v), from datums % x", pos, a, enc, err, ka)
			}
			for k := 0; k <= len(cols); k++ {
				if got, want := c.KeyPrefixLen(ka, k), c.PrefixLen(a, k); got != want {
					t.Fatalf("position %d: %v: KeyPrefixLen(%d) = %d, PrefixLen = %d", pos, a, k, got, want)
				}
			}
		}
		bad := draw()
		bad[pos] = types.NewInt(1)
		if _, err := c.AppendEncoded(nil, bad.Encode(nil)); err == nil {
			t.Errorf("position %d: AppendEncoded took a non-NULL datum in the NULL-typed column", pos)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("position %d: Append took a non-NULL datum in the NULL-typed column", pos)
				}
			}()
			c.Append(nil, bad)
		}()
	}
}

func TestKindMismatchPanics(t *testing.T) {
	c, err := New([]Col{{Ordinal: 0, Kind: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("encoding a string datum into an int key column should panic")
		}
	}()
	c.Append(nil, types.NewTuple(types.NewString("oops")))
}

// fixedCompare is the entry-comparison rule under test: compare the fixed
// prefixes, consult the full keys (the blob) only when both were truncated.
func fixedCompare(fa, fb []byte, ta, tb bool, ka, kb []byte) int {
	if c := bytes.Compare(fa, fb); c != 0 {
		return sign(c)
	}
	if ta && tb {
		return sign(bytes.Compare(ka, kb))
	}
	return 0
}

// TestAppendFixedAdversarial pins the fixed-width prefix + blob tie-break
// against full bytes.Compare on the hand-picked adversarial shapes: long
// shared string prefixes, keys landing exactly on the cutoff width, NULL
// markers in both placements, and descending (payload-inverted) columns.
func TestAppendFixedAdversarial(t *testing.T) {
	asc := []Col{{Ordinal: 0, Kind: types.KindString}}
	desc := []Col{{Ordinal: 0, Kind: types.KindString, Desc: true}}
	intCols := []Col{{Ordinal: 0, Kind: types.KindInt}, {Ordinal: 1, Kind: types.KindInt}}
	nullsLast := []Col{{Ordinal: 0, Kind: types.KindInt, NullsLast: true}}
	cases := []struct {
		name  string
		cols  []Col
		a, b  types.Tuple
		width int
	}{
		{"shared-prefix-diverge-past-cutoff", asc,
			types.NewTuple(types.NewString("prefixprefixAAA")),
			types.NewTuple(types.NewString("prefixprefixAAB")), 8},
		{"one-extends-the-other", asc,
			types.NewTuple(types.NewString("prefixprefix")),
			types.NewTuple(types.NewString("prefixprefixA")), 8},
		{"exact-cutoff-length", asc,
			// marker + 5 content + 2 terminator = 8 = width exactly.
			types.NewTuple(types.NewString("abcde")),
			types.NewTuple(types.NewString("abcde")), 8},
		{"complete-vs-truncated-at-width", asc,
			types.NewTuple(types.NewString("abcde")),
			types.NewTuple(types.NewString("abcdef")), 8},
		{"nul-escape-straddles-cutoff", asc,
			types.NewTuple(types.NewString("abc\x00def")),
			types.NewTuple(types.NewString("abc\x00dex")), 5},
		{"null-vs-value", nullsLast,
			types.NewTuple(types.Null),
			types.NewTuple(types.NewInt(42)), 4},
		{"desc-shared-prefix", desc,
			types.NewTuple(types.NewString("zzzzzzzzzz1")),
			types.NewTuple(types.NewString("zzzzzzzzzz2")), 6},
		{"second-int-truncated", intCols,
			types.NewTuple(types.NewInt(7), types.NewInt(100)),
			types.NewTuple(types.NewInt(7), types.NewInt(200)), 12},
		{"equal-truncated", intCols,
			types.NewTuple(types.NewInt(7), types.NewInt(100)),
			types.NewTuple(types.NewInt(7), types.NewInt(100)), 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.cols)
			if err != nil {
				t.Fatal(err)
			}
			ka, kb := c.Append(nil, tc.a), c.Append(nil, tc.b)
			fa, ta := c.AppendFixed(nil, tc.a, tc.width)
			fb, tb := c.AppendFixed(nil, tc.b, tc.width)
			if len(fa) != tc.width || len(fb) != tc.width {
				t.Fatalf("widths %d/%d, want %d", len(fa), len(fb), tc.width)
			}
			got := fixedCompare(fa, fb, ta, tb, ka, kb)
			if want := sign(bytes.Compare(ka, kb)); got != want {
				t.Fatalf("fixed compare = %d, full compare = %d\n a key=%x fixed=%x trunc=%v\n b key=%x fixed=%x trunc=%v",
					got, want, ka, fa, ta, kb, fb, tb)
			}
		})
	}
}

// TestFixedWidthHint pins the width heuristic: fixed-size columns are never
// truncated, strings get a bounded prefix, and the cap bounds the total.
func TestFixedWidthHint(t *testing.T) {
	c, err := New([]Col{
		{Ordinal: 0, Kind: types.KindInt},
		{Ordinal: 1, Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w := c.FixedWidthHint(0); w != 18 {
		t.Errorf("two ints: hint = %d, want 18", w)
	}
	if w := c.FixedWidthHint(1); w != 9 {
		t.Errorf("int suffix: hint = %d, want 9", w)
	}
	// A full two-int key never truncates at its hint width.
	tup := types.NewTuple(types.NewInt(-5), types.NewInt(9))
	if _, trunc := c.AppendFixed(nil, tup, c.FixedWidthHint(0)); trunc {
		t.Error("fixed-size key truncated at its own hint width")
	}
	long, err := New([]Col{
		{Ordinal: 0, Kind: types.KindString},
		{Ordinal: 1, Kind: types.KindString},
		{Ordinal: 2, Kind: types.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w := long.FixedWidthHint(0); w != fixedWidthCap {
		t.Errorf("three strings: hint = %d, want cap %d", w, fixedWidthCap)
	}
}

// TestAppendEncodedAndKeyPrefixLen: a key derived from a row's encoded bytes
// is the key derived from its datums, byte for byte, under every direction
// and NULL placement; and the prefix length read off that key is PrefixLen's
// for every k. A sorter that buffers rows in their page format relies on
// both: the first to key a row it never decodes, the second to find a
// segment's shared-prefix skip from the key alone.
func TestAppendEncodedAndKeyPrefixLen(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		ncols := 1 + r.Intn(5)
		kinds := make([]types.Kind, ncols)
		for i := range kinds {
			kinds[i] = allKinds[r.Intn(len(allKinds))]
		}
		perm := r.Perm(ncols)[:1+r.Intn(ncols)]
		cols := make([]Col, len(perm))
		for i, ord := range perm {
			cols[i] = Col{Ordinal: ord, Kind: kinds[ord], Desc: r.Intn(2) == 0, NullsLast: r.Intn(2) == 0}
		}
		c, err := New(cols)
		if err != nil {
			t.Fatal(err)
		}
		tup := make(types.Tuple, ncols)
		for i := range tup {
			tup[i] = randDatum(r, kinds[i])
		}
		want := c.Append(nil, tup)
		got, err := c.AppendEncoded([]byte("pre"), tup.Encode(nil))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(got[3:], want) || string(got[:3]) != "pre" {
			t.Fatalf("trial %d %+v %v: key from encoded row % x, from datums % x", trial, cols, tup, got[3:], want)
		}
		for k := 0; k <= len(cols); k++ {
			if got, want := c.KeyPrefixLen(want, k), c.PrefixLen(tup, k); got != want {
				t.Fatalf("trial %d %+v %v: KeyPrefixLen(%d) = %d, PrefixLen = %d", trial, cols, tup, k, got, want)
			}
		}
	}
}

// TestAppendEncodedRejects: bytes that are not a row of the codec's shape are
// an error, never a wrong key or a panic.
func TestAppendEncodedRejects(t *testing.T) {
	c, err := New([]Col{{Ordinal: 1, Kind: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	good := types.NewTuple(types.NewString("x"), types.NewInt(7)).Encode(nil)
	for name, enc := range map[string][]byte{
		"empty":        nil,
		"short header": good[:3],
		"no column 1":  types.NewTuple(types.NewInt(7)).Encode(nil),
		"truncated":    good[:len(good)-2],
		"wrong kind":   types.NewTuple(types.NewString("x"), types.NewString("y")).Encode(nil),
	} {
		if _, err := c.AppendEncoded(nil, enc); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if _, err := c.AppendEncoded(nil, good); err != nil {
		t.Errorf("well-formed row: %v", err)
	}
}
