package xsort

import (
	"testing"

	"pyro/internal/keys"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// FuzzRunHeap drives the replacement-selection heap of a numbered store with
// random push, pop and nextRun traffic over keys with many duplicates — an
// int key (an 8-byte head and a ninth byte) or a bool one (no head) — and
// frees every popped row, so entry handles are recycled as replacement
// selection recycles them. Every pop must return the row a reference picks:
// the least by (run, key, arrival) among the rows pushed and not yet popped.
// nextRun is called only as MRS.replace calls it, once the current run has
// ended (topDeferred).
func FuzzRunHeap(f *testing.F) {
	f.Add([]byte{0, 4, 8, 2, 1, 2, 2, 3, 64, 96, 2, 2, 2}, false)
	f.Add([]byte{33, 1, 65, 2, 97, 2, 3, 2, 2, 0, 2}, true)
	f.Add([]byte{1, 1, 1, 1, 2, 1, 2, 1, 2, 33, 33, 2, 2, 2, 3, 2}, false)
	f.Fuzz(func(t *testing.T, ops []byte, narrow bool) {
		kind := types.KindInt
		if narrow {
			kind = types.KindBool
		}
		schema := types.NewSchema(types.Column{Name: "k", Kind: kind}, types.Column{Name: "n", Kind: types.KindInt})
		codec, err := keys.NewCodec(schema, sortord.New("k"))
		if err != nil {
			t.Fatal(err)
		}
		d := storage.NewDisk(256)
		defer storage.AssertNoLeaks(t, d)
		ky := &keyer{codec: codec, width: entryWidth(codec, 0, d.PageSize())}
		st := newRowStore(d, ky.width, true, true)
		defer st.release()
		var comparisons int64
		buf := permScratch.Get(0)
		*buf = (*buf)[:0]
		h := newRunHeap(st, ky, buf, &comparisons)
		defer h.release()

		// The reference: every row in the heap with its run (0 current, 1
		// next), key and arrival.
		type ref struct {
			run, key int
			n        int64
		}
		var in []ref
		var handles []uint32
		arrivals := int64(0)
		least := func() int {
			best := 0
			for i, r := range in {
				if b := in[best]; r.run < b.run || r.run == b.run && (r.key < b.key || r.key == b.key && r.n < b.n) {
					best = i
				}
			}
			return best
		}
		datum := func(k int) types.Datum {
			if narrow {
				return types.NewBool(k%2 == 1)
			}
			return types.NewInt(int64(k%8) << 40)
		}
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // push a row of key op>>2, deferred to the next run when bit 5 is set
				k, deferred := int(op>>2)%8, op&32 != 0
				if narrow {
					k %= 2
				}
				row := types.NewTuple(datum(k), types.NewInt(arrivals))
				r := inputRow{t: row, key: codec.Append(nil, row)}
				e, ok := st.add(r, ky.suffix(r), h.runFlag(deferred), 1<<20)
				if !ok {
					t.Fatal("an unbounded store refused a row")
				}
				h.push(e)
				run := 0
				if deferred {
					run = 1
				}
				in, handles = append(in, ref{run, k, arrivals}), append(handles, e)
				arrivals++
			case 2: // pop, starting the next run first if the current one is done
				if h.len() == 0 {
					continue
				}
				if h.topDeferred() {
					h.nextRun()
					for i := range in {
						in[i].run--
					}
				}
				want := least()
				if in[want].run != 0 {
					t.Fatalf("the heap's top is of the current run, the reference's least of the next: %+v", in[want])
				}
				got := h.pop()
				if got != handles[want] {
					t.Fatalf("popped handle %d, want %d — the row %+v", got, handles[want], in[want])
				}
				st.free(got, len(st.rowBytes(st.entry(got))))
				in, handles = append(in[:want], in[want+1:]...), append(handles[:want], handles[want+1:]...)
			case 3: // start the next run, where the current one is done
				if h.len() > 0 && h.topDeferred() {
					h.nextRun()
					for i := range in {
						in[i].run--
					}
				}
			}
			if h.len() != len(in) {
				t.Fatalf("the heap holds %d rows, the reference %d", h.len(), len(in))
			}
		}
	})
}
