package types

import (
	"bytes"
	"reflect"
	"testing"
)

// TestChunkKeepsSpansAndDecodesLazily: rows appended encoded are held as
// spans, readable as such, and decoded into the columns only when a datum is
// asked for; selection, truncation and mixing in decoded rows keep spans and
// datums telling the same story.
func TestChunkKeepsSpansAndDecodesLazily(t *testing.T) {
	rows := []Tuple{
		NewTuple(NewInt(1), NewString("one"), Null),
		NewTuple(NewInt(2), NewString(""), NewFloat(2.5)),
		NewTuple(NewInt(3), NewString("three"), NewFloat(-1)),
		NewTuple(NewInt(4), Null, NewFloat(0)),
	}
	var page []byte
	for _, r := range rows {
		page = r.Encode(page)
	}
	c := NewChunk(3, 8)
	for pos := 0; pos < len(page); {
		n, err := c.AppendEncoded(page[pos:])
		if err != nil {
			t.Fatal(err)
		}
		pos += n
	}
	if c.Rows() != 4 || c.decoded != 0 {
		t.Fatalf("%d rows, %d decoded: appending encoded rows must not decode them", c.Rows(), c.decoded)
	}
	for i, r := range rows {
		if got := c.EncodedRow(i); !bytes.Equal(got, r.Encode(nil)) {
			t.Fatalf("span %d = % x", i, got)
		}
	}
	if c.decoded != 0 {
		t.Fatal("reading spans decoded the chunk")
	}
	if got := c.DatumAt(1, 2); got.Str() != "three" {
		t.Fatalf("DatumAt(1, 2) = %v", got)
	}
	if c.decoded != 3 {
		t.Fatalf("first datum access of row 2 decoded %d rows, want rows 0-2", c.decoded)
	}
	for i, r := range rows {
		if got := c.OwnedRow(i); !reflect.DeepEqual(got, r) {
			t.Fatalf("row %d = %v, want %v", i, got, r)
		}
	}

	// A selection moves no row: live row i's span is its physical row's.
	c.SetSel([]int32{1, 3})
	if got := c.EncodedRow(1); !bytes.Equal(got, rows[3].Encode(nil)) {
		t.Fatalf("selected span = % x", got)
	}
	c.SetSel(nil)

	// Truncation before any decode keeps the two views in step.
	c.Reset()
	for pos := 0; pos < len(page); {
		n, _ := c.AppendEncoded(page[pos:])
		pos += n
	}
	c.Truncate(2)
	if c.Rows() != 2 || c.EncodedRow(1) == nil {
		t.Fatalf("after Truncate(2): %d rows, span %v", c.Rows(), c.EncodedRow(1))
	}
	if got := c.OwnedRow(1); !reflect.DeepEqual(got, rows[1]) {
		t.Fatalf("row 1 after truncate = %v", got)
	}

	// A decoded row ends the spans; rows before it keep theirs, and encoded
	// rows after it are decoded on arrival.
	c.AppendRow(rows[2])
	if _, err := c.AppendEncoded(rows[3].Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if c.EncodedRow(1) == nil || c.EncodedRow(2) != nil || c.EncodedRow(3) != nil {
		t.Fatal("spans must cover exactly the leading encoded rows")
	}
	for i, r := range rows {
		if got := c.OwnedRow(i); !reflect.DeepEqual(got, r) {
			t.Fatalf("mixed chunk row %d = %v, want %v", i, got, r)
		}
	}

	// Malformed input is refused at append time, and leaves the chunk as it was.
	before := c.Rows()
	if _, err := c.AppendEncoded([]byte{0, 0, 0, 3, byte(KindInt), 1}); err == nil {
		t.Fatal("truncated tuple accepted")
	}
	if _, err := c.AppendEncoded(NewTuple(NewInt(1)).Encode(nil)); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if c.Rows() != before {
		t.Fatal("a refused row changed the chunk")
	}
}

// TestChunkDetachOwnsItsRows: a detached chunk keeps its rows but no spans,
// so overwriting the buffer they were framed from changes nothing.
func TestChunkDetachOwnsItsRows(t *testing.T) {
	rows := []Tuple{NewTuple(NewInt(1), NewString("one")), NewTuple(NewInt(2), NewString("two"))}
	var page []byte
	for _, r := range rows {
		page = r.Encode(page)
	}
	c := NewChunk(2, 4)
	for pos := 0; pos < len(page); {
		n, err := c.AppendEncoded(page[pos:])
		if err != nil {
			t.Fatal(err)
		}
		pos += n
	}
	c.Detach()
	clear(page)
	for i, r := range rows {
		if c.EncodedRow(i) != nil {
			t.Fatalf("row %d still has a span after Detach", i)
		}
		if got := c.OwnedRow(i); !reflect.DeepEqual(got, r) {
			t.Fatalf("row %d = %v after Detach, want %v", i, got, r)
		}
	}
	c.AppendRow(NewTuple(NewInt(3), Null))
	if c.Rows() != 3 || c.DatumAt(0, 2).Int() != 3 {
		t.Fatal("a detached chunk takes further rows")
	}
}

// TestDecodeTupleIntoAndEncodedDatum: decoding into supplied storage uses it
// (and only allocates when it is too small), and single columns can be read
// off an encoded row without decoding it.
func TestDecodeTupleIntoAndEncodedDatum(t *testing.T) {
	row := NewTuple(NewInt(-5), NewString("payload"), Null, NewBool(true), NewFloat(1.25))
	enc := row.Encode(nil)
	slab := make(Tuple, 8)
	got, n, err := DecodeTupleInto(slab[:0:5], enc)
	if err != nil || n != len(enc) || !reflect.DeepEqual(got, row) {
		t.Fatalf("DecodeTupleInto = %v, %d, %v", got, n, err)
	}
	if &got[0] != &slab[0] {
		t.Fatal("the supplied storage was not used")
	}
	if got, _, _ := DecodeTupleInto(slab[:0:2], enc); len(got) != 5 || &got[0] == &slab[0] {
		t.Fatal("storage too small must fall back to a fresh tuple")
	}
	for col, d := range row {
		span, err := EncodedDatum(enc, col)
		if err != nil {
			t.Fatal(err)
		}
		if want := NewTuple(d).Encode(nil)[4:]; !bytes.Equal(span, want) {
			t.Fatalf("column %d span % x, want % x", col, span, want)
		}
	}
	if _, err := EncodedDatum(enc, 5); err == nil {
		t.Fatal("column past the arity accepted")
	}
	if _, err := EncodedDatum(enc[:len(enc)-3], 4); err == nil {
		t.Fatal("truncated column accepted")
	}
	schema := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindString, Width: 7},
		Column{Name: "c", Kind: KindBool}, Column{Name: "d", Kind: KindFloat})
	if got, want := schema.AvgEncodedWidth(), NewTuple(NewInt(1), NewString("payload"), NewBool(true), NewFloat(1)).EncodedSize(); got != want {
		t.Fatalf("AvgEncodedWidth = %d, a row of the declared widths encodes to %d", got, want)
	}
}
