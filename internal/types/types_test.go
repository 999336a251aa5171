package types

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pyro/internal/sortord"
)

func TestDatumConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Fatal("Null datum broken")
	}
	if d := NewInt(42); d.Int() != 42 || d.Kind() != KindInt || d.IsNull() {
		t.Fatal("int datum broken")
	}
	if d := NewFloat(2.5); d.Float() != 2.5 || d.Kind() != KindFloat {
		t.Fatal("float datum broken")
	}
	if d := NewString("hi"); d.Str() != "hi" || d.Kind() != KindString {
		t.Fatal("string datum broken")
	}
	if d := NewBool(true); !d.Bool() || d.Kind() != KindBool {
		t.Fatal("bool datum broken")
	}
	if NewInt(7).Float() != 7.0 {
		t.Fatal("int-to-float accessor broken")
	}
}

func TestDatumCompare(t *testing.T) {
	cases := []struct {
		a, b Datum
		want int
	}{
		{Null, Null, 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDatumCompareTotalOrderAcrossKinds(t *testing.T) {
	// Mixed-kind comparisons must stay antisymmetric so sorting never panics.
	vals := []Datum{Null, NewInt(1), NewFloat(1.5), NewString("x"), NewBool(true)}
	for _, a := range vals {
		for _, b := range vals {
			if a.Compare(b) != -b.Compare(a) {
				t.Fatalf("antisymmetry violated for %v vs %v", a, b)
			}
		}
	}
}

func TestDatumString(t *testing.T) {
	cases := map[string]Datum{
		"NULL":  Null,
		"42":    NewInt(42),
		"2.5":   NewFloat(2.5),
		`"hi"`:  NewString("hi"),
		"true":  NewBool(true),
		"false": NewBool(false),
	}
	for want, d := range cases {
		if got := d.String(); got != want {
			t.Errorf("String(%v) = %q, want %q", d.Kind(), got, want)
		}
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(
		Column{Name: "a", Kind: KindInt},
		Column{Name: "b", Kind: KindString, Width: 20},
		Column{Name: "c", Kind: KindFloat},
	)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if i, ok := s.Ordinal("b"); !ok || i != 1 {
		t.Fatalf("Ordinal(b) = %d,%v", i, ok)
	}
	if _, ok := s.Ordinal("zz"); ok {
		t.Fatal("missing column should not resolve")
	}
	if !s.Has("c") || s.Has("zz") {
		t.Fatal("Has broken")
	}
	if got := s.Names(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Names = %v", got)
	}
	if w := s.AvgTupleWidth(); w != 8+20+8 {
		t.Fatalf("AvgTupleWidth = %d", w)
	}
	if !s.HasAll(sortord.NewAttrSet("a", "c")) || s.HasAll(sortord.NewAttrSet("a", "zz")) {
		t.Fatal("HasAll broken")
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate column")
		}
	}()
	NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "a", Kind: KindInt})
}

func TestSchemaProjectConcat(t *testing.T) {
	s := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindInt})
	u := NewSchema(Column{Name: "c", Kind: KindInt})
	j := s.Concat(u)
	if got := j.Names(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Concat names = %v", got)
	}
	p := j.Project([]string{"c", "a"})
	if got := p.Names(); !reflect.DeepEqual(got, []string{"c", "a"}) {
		t.Fatalf("Project names = %v", got)
	}
}

func TestKeySpecCompare(t *testing.T) {
	s := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindInt})
	ks := MustKeySpec(s, sortord.New("b", "a"))
	t1 := NewTuple(NewInt(1), NewInt(5))
	t2 := NewTuple(NewInt(2), NewInt(5))
	if ks.Compare(t1, t2) >= 0 {
		t.Fatal("tie on b should fall to a")
	}
	if _, err := MakeKeySpec(s, sortord.New("zz")); err == nil {
		t.Fatal("missing sort attribute should error")
	}
}

func TestTupleEncodeDecodeRoundTrip(t *testing.T) {
	tup := NewTuple(NewInt(-7), NewFloat(math.Pi), NewString("hello"), NewBool(true), Null)
	buf := tup.Encode(nil)
	if len(buf) != tup.EncodedSize() {
		t.Fatalf("EncodedSize = %d, actual %d", tup.EncodedSize(), len(buf))
	}
	got, n, err := DecodeTuple(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: %v, n=%d", err, n)
	}
	if len(got) != len(tup) {
		t.Fatalf("decoded arity %d", len(got))
	}
	for i := range tup {
		if !got[i].Equal(tup[i]) || got[i].Kind() != tup[i].Kind() {
			t.Fatalf("datum %d: got %v want %v", i, got[i], tup[i])
		}
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	if _, _, err := DecodeTuple([]byte{1, 2}); err == nil {
		t.Fatal("short header should error")
	}
	tup := NewTuple(NewString("abcdef"))
	buf := tup.Encode(nil)
	for cut := 5; cut < len(buf); cut++ {
		if _, _, err := DecodeTuple(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d should error", cut)
		}
	}
	// Unknown kind byte.
	bad := []byte{0, 0, 0, 1, 0xFF}
	if _, _, err := DecodeTuple(bad); err == nil {
		t.Fatal("unknown kind should error")
	}
}

func randomDatum(r *rand.Rand) Datum {
	switch r.Intn(5) {
	case 0:
		return Null
	case 1:
		return NewInt(r.Int63() - r.Int63())
	case 2:
		return NewFloat(r.NormFloat64() * 1e6)
	case 3:
		n := r.Intn(24)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return NewString(string(b))
	default:
		return NewBool(r.Intn(2) == 0)
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := r.Intn(8)
			tup := make(Tuple, n)
			for i := range tup {
				tup[i] = randomDatum(r)
			}
			vals[0] = reflect.ValueOf(tup)
		},
	}
	prop := func(tup Tuple) bool {
		buf := tup.Encode(nil)
		if len(buf) != tup.EncodedSize() {
			return false
		}
		got, n, err := DecodeTuple(buf)
		if err != nil || n != len(buf) || len(got) != len(tup) {
			return false
		}
		for i := range tup {
			if got[i].Compare(tup[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompareTransitivity(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(randomDatum(r))
			}
		},
	}
	prop := func(a, b, c Datum) bool {
		// antisymmetry
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		// transitivity: a<=b && b<=c => a<=c
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTupleCloneConcat(t *testing.T) {
	a := NewTuple(NewInt(1))
	b := NewTuple(NewInt(2), NewInt(3))
	c := a.Concat(b)
	if len(c) != 3 || c[2].Int() != 3 {
		t.Fatalf("Concat = %v", c)
	}
	cl := a.Clone()
	cl[0] = NewInt(9)
	if a[0].Int() != 1 {
		t.Fatal("Clone aliases")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindNull: "NULL", KindInt: "BIGINT", KindFloat: "DOUBLE",
		KindString: "VARCHAR", KindBool: "BOOLEAN",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
