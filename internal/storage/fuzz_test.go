package storage

import (
	"encoding/binary"
	"testing"

	"pyro/internal/types"
)

// fuzzPage assembles one tuple-file page image: u16 tuple count, then
// back-to-back encoded tuples (valid seeds for the corpus).
func fuzzPage(count uint16, tuples ...types.Tuple) []byte {
	page := make([]byte, 2)
	binary.BigEndian.PutUint16(page, count)
	for _, t := range tuples {
		page = t.Encode(page)
	}
	return page
}

// FuzzReadChunk feeds arbitrary page bytes through every read path — the
// row-at-a-time TupleReader.Next, the undecoded NextRaw and the batch
// ReadChunk — and requires
// corruption to surface as an error: no panic, no over-read, and no ragged
// chunk left behind by a mid-tuple decode failure.
func FuzzReadChunk(f *testing.F) {
	two := []types.Tuple{
		types.NewTuple(types.NewInt(1), types.NewString("a")),
		types.NewTuple(types.NewInt(2), types.NewString("bb")),
	}
	f.Add(fuzzPage(2, two...), 2)
	f.Add(fuzzPage(9, two...), 2)      // count lies: more tuples than present
	f.Add(fuzzPage(2, two[0]), 1)      // arity mismatch against the chunk
	f.Add([]byte{0xff, 0xff, 0, 0}, 3) // absurd count, garbage payload
	f.Add([]byte{0}, 1)                // shorter than the count header
	f.Add(fuzzPage(1, two[0])[:7], 2)  // truncated mid-datum
	// An 11-byte column count: an overlong uvarint.
	f.Add([]byte{0, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, 2)
	f.Fuzz(func(t *testing.T, page []byte, ncols int) {
		ncols = int(uint(ncols)%8) + 1
		d := NewDisk(0)
		file := d.Create("fz", KindData)
		if len(page) > d.PageSize() {
			page = page[:d.PageSize()]
		}
		if _, err := file.AppendPage(page); err != nil {
			t.Fatal(err)
		}

		// Row path: must terminate with EOF or an error.
		r := NewTupleReader(file)
		for {
			_, ok, err := r.Next()
			if err != nil || !ok {
				break
			}
		}

		// Raw path: the framing-only walk must stop just as cleanly.
		rr := NewTupleReader(file)
		for {
			enc, ok, err := rr.NextRaw()
			if err != nil || !ok {
				break
			}
			if _, _, err := types.DecodeTuple(enc); err != nil {
				t.Fatalf("NextRaw returned a span DecodeTuple rejects: %v", err)
			}
		}

		// Batch path: same page through ReadChunk; the chunk must stay
		// rectangular whatever the bytes were.
		r2 := NewTupleReader(file)
		c := types.GetChunk(ncols, 4)
		defer types.PutChunk(c)
		for {
			c.Reset()
			n, err := r2.ReadChunk(c)
			if n < 0 || n > 4 {
				t.Fatalf("ReadChunk appended %d rows into capacity 4", n)
			}
			if n != c.Rows() {
				t.Fatalf("ReadChunk reported %d rows, chunk holds %d", n, c.Rows())
			}
			for i := 0; i < c.Rows(); i++ {
				for col := 0; col < ncols; col++ {
					_ = c.DatumAt(col, i) // panics if a failed decode left the chunk ragged
				}
			}
			if err != nil || n == 0 {
				break
			}
		}
	})
}
