package xsort

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pyro/internal/iter"
	"pyro/internal/keys"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// fillStore buffers rows of sortSchema, unbounded, the way a sort would —
// the keyer and entry width NewMRS resolves for target with its first
// prefixCols columns given, each row added under its full key — and returns
// the store (the caller releases it) with its keyer.
func fillStore(tb testing.TB, d *storage.Disk, target sortord.Order, prefixCols int, rows []types.Tuple) (*rowStore, *keyer) {
	tb.Helper()
	codec, err := keys.NewCodec(sortSchema, target)
	if err != nil {
		tb.Fatal(err)
	}
	ky := &keyer{codec: codec, width: entryWidth(codec, prefixCols, d.PageSize())}
	if len(rows) > 0 {
		ky = ky.withSkip(codec.PrefixLen(rows[0], prefixCols))
	}
	st := newRowStore(d, ky.width, true)
	for _, row := range rows {
		r := inputRow{t: row, key: codec.Append(nil, row)}
		if _, ok := st.add(r, ky.suffix(r), 0, 1<<30); !ok {
			tb.Fatal("an unbounded store refused a row")
		}
	}
	return st, ky
}

// TestStoreSortsUnderEveryKeySpec drives the store below the operators, where
// the key specifications the sort API does not expose yet are reachable:
// descending columns, NULLs last, bool and float keys, strings on both sides
// of the entry prefix. Rows go in encoded, come back through the radix order
// and through the comparison order, and both must be the stable order of
// their full encoded keys — with slots recycled in between, the way
// replacement selection and the bounded collector do.
func TestStoreSortsUnderEveryKeySpec(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "i", Kind: types.KindInt},
		types.Column{Name: "f", Kind: types.KindFloat},
		types.Column{Name: "b", Kind: types.KindBool},
		types.Column{Name: "s", Kind: types.KindString},
	)
	r := rand.New(rand.NewSource(221))
	d := storage.NewDisk(256)
	defer storage.AssertNoLeaks(t, d)
	for trial := 0; trial < 200; trial++ {
		perm := r.Perm(4)[:1+r.Intn(4)]
		cols := make([]keys.Col, len(perm))
		for i, ord := range perm {
			cols[i] = keys.Col{Ordinal: ord, Kind: schema.Col(ord).Kind, Desc: r.Intn(2) == 0, NullsLast: r.Intn(2) == 0}
		}
		codec, err := keys.New(cols)
		if err != nil {
			t.Fatal(err)
		}
		ky := &keyer{codec: codec, width: entryWidth(codec, 0, d.PageSize())}
		st := newRowStore(d, ky.width, true)

		type buffered struct {
			h   uint32
			key []byte
			row types.Tuple
		}
		var live []buffered
		add := func() {
			row := randomRow(r, schema, 0, true)
			in := inputRow{t: row, key: codec.Append(nil, row)}
			if r.Intn(2) == 0 {
				in.enc = row.Encode(nil) // as a scan's chunk would supply it
			}
			h, ok := st.add(in, ky.suffix(in), 0, 1<<30)
			if !ok {
				t.Fatal("an unbounded store refused a row")
			}
			live = append(live, buffered{h, in.key, row})
		}
		for n := r.Intn(120); n > 0; n-- {
			add()
		}
		// Cut the store down to a random subset the way a bounded collector
		// does, then add as many rows again: they land in the recycled slots.
		var kept, dropped []uint32
		var still []buffered
		for _, b := range live {
			if r.Intn(3) == 0 {
				dropped = append(dropped, b.h)
			} else {
				kept, still = append(kept, b.h), append(still, b)
			}
		}
		st.keepOnly(kept, dropped)
		live = still
		for i, h := range st.handles(nil) {
			live[i].h = h
		}
		for range dropped {
			add()
		}
		if got := st.len(); got != len(live) {
			t.Fatalf("trial %d: store holds %d rows, want %d", trial, got, len(live))
		}

		// The rows decode back to what went in.
		for _, b := range live {
			got, _, err := types.DecodeTuple(st.rowAt(st.entry(b.h)))
			if err != nil || !sameTuple(got, b.row) {
				t.Fatalf("trial %d: row came back as %v (%v), want %v", trial, got, err, b.row)
			}
		}
		// Both sorts are the stable order of the full keys.
		want := make([]uint32, len(live))
		idx := make([]int, len(live))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return bytes.Compare(live[idx[a]].key, live[idx[b]].key) < 0 })
		for i, j := range idx {
			want[i] = live[j].h
		}
		if got, _ := radixSortEntries(st, ky); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%+v): radix order %v, want %v", trial, cols, got, want)
		}
		if got, _ := sortEntries(st, ky); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%+v): comparison order %v, want %v", trial, cols, got, want)
		}

		// Replacement selection's traffic: free a row, add a row, in any
		// interleaving; whatever is live still decodes to what went in.
		for step := 0; step < 200; step++ {
			if len(live) > 0 && r.Intn(2) == 0 {
				i := r.Intn(len(live))
				st.free(live[i].h)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				add()
			}
		}
		for _, b := range live {
			got, _, err := types.DecodeTuple(st.rowAt(st.entry(b.h)))
			if err != nil || !sameTuple(got, b.row) {
				t.Fatalf("trial %d: after recycling, row came back as %v (%v), want %v", trial, got, err, b.row)
			}
		}
		st.release()
	}
}

// randomRow draws one row of schema: NULLs, empty strings, strings longer
// than the entry prefix and — rarely, if long — longer than a block (such a
// row cannot be written to a run page, so only sorts that stay in memory draw
// them; the others draw at most one string a row that a page still holds and
// a block, with its key overflow, does not), NaN-free floats including both
// zeros. Column 0 is seg when the caller wants segments.
func randomRow(r *rand.Rand, schema *types.Schema, seg int64, long bool) types.Tuple {
	row := make(types.Tuple, schema.Len())
	wide := false
	for j := range row {
		if r.Intn(10) == 0 {
			row[j] = types.Null
			continue
		}
		switch schema.Col(j).Kind {
		case types.KindInt:
			row[j] = types.NewInt(int64(r.Intn(7)) - 3)
			if r.Intn(4) == 0 {
				row[j] = types.NewInt(r.Int63() - math.MaxInt64/2)
			}
		case types.KindFloat:
			row[j] = types.NewFloat([]float64{0, math.Copysign(0, -1), 1.5, -1.5, math.Inf(1), r.NormFloat64()}[r.Intn(6)])
		case types.KindBool:
			row[j] = types.NewBool(r.Intn(2) == 0)
		case types.KindString:
			n := r.Intn(14)
			switch {
			case long && r.Intn(60) == 0:
				n = 300 + r.Intn(900) // longer than a 256- or 512-byte block
			case !long && !wide && r.Intn(40) == 0:
				// The row still fits a 512-byte run page; as a key column its
				// overflow makes the slot larger than a block.
				n, wide = 200+r.Intn(30), true
			}
			b := make([]byte, n)
			for i := range b {
				b[i] = "\x00\x01ab\xff"[r.Intn(5)]
			}
			row[j] = types.NewString(string(b))
		}
	}
	if seg >= 0 && schema.Col(0).Kind == types.KindInt {
		row[0] = types.NewInt(seg)
	}
	return row
}

// chunkedRows serves rows as chunks: decoded (AppendRow) or, like a scan,
// straight from their encoded bytes (AppendEncoded), so the sort's span path
// is what buffers them.
type chunkedRows struct {
	rows    []types.Tuple
	encoded bool
	pos     int
}

func (c *chunkedRows) Open() error  { c.pos = 0; return nil }
func (c *chunkedRows) Close() error { return nil }
func (c *chunkedRows) NextChunk(ch *types.Chunk) error {
	ch.Reset()
	for c.pos < len(c.rows) && !ch.Full() {
		if c.encoded {
			if _, err := ch.AppendEncoded(c.rows[c.pos].Encode(nil)); err != nil {
				return err
			}
		} else {
			ch.AppendRow(c.rows[c.pos])
		}
		c.pos++
	}
	return nil
}

// sortCase is one drawn configuration of the operator-level property.
type sortCase struct {
	seed    int64
	n       int // rows
	perSeg  int // rows per `given` segment
	blocks  int
	limit   int64
	par     int
	batch   int
	encoded bool // chunks carry encoded spans
	srs     bool
}

func (c sortCase) String() string {
	return fmt.Sprintf("seed=%d n=%d perSeg=%d M=%d limit=%d par=%d batch=%d encoded=%v srs=%v",
		c.seed, c.n, c.perSeg, c.blocks, c.limit, c.par, c.batch, c.encoded, c.srs)
}

// checkSortCase sorts one drawn input — random schema with every kind, NULLs,
// empty and over-long strings — given c0, or shuffled with nothing given (the
// srs arm: unbounded, so an oversized input spills by replacement selection),
// and holds the output to sort.SliceStable over the decoded tuples: the exact
// sequence (with a Limit its first rows) wherever the sort is stable — an
// in-memory full sort included — and the key sequence and the row multiset
// for a spilled replacement selection, whose heap may reorder rows that tie
// on the whole key. It returns the spilled segments that kept their tail for
// the final merge, and those of them that evicted part of it.
func checkSortCase(t *testing.T, c sortCase) (kept, evicted int) {
	t.Helper()
	r := rand.New(rand.NewSource(c.seed))
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindBool, types.KindString}
	cols := []types.Column{{Name: "c0", Kind: types.KindInt}}
	for j := 1 + r.Intn(4); j > 0; j-- {
		cols = append(cols, types.Column{Name: fmt.Sprintf("c%d", len(cols)), Kind: kinds[r.Intn(len(kinds))]})
	}
	schema := types.NewSchema(cols...)
	rows := make([]types.Tuple, c.n)
	for i := range rows {
		rows[i] = randomRow(r, schema, int64(i/c.perSeg), c.blocks >= 1000)
	}
	// Target: c0, then a random choice of the other columns; given: c0.
	names := []string{"c0"}
	for _, j := range r.Perm(len(cols) - 1)[:1+r.Intn(len(cols)-1)] {
		names = append(names, cols[j+1].Name)
	}
	target, given := sortord.New(names...), sortord.New("c0")
	d := storage.NewDisk(512)
	defer storage.AssertNoLeaks(t, d)
	cfg := Config{Disk: d, MemoryBlocks: c.blocks, Parallelism: c.par, BatchSize: c.batch, Limit: c.limit}
	if c.srs {
		rows, given, cfg.Limit = shuffled(rows, r), sortord.Empty, 0
	}
	ks := types.MustKeySpec(schema, target)
	want := append([]types.Tuple(nil), rows...)
	sort.SliceStable(want, func(i, j int) bool { return ks.Compare(want[i], want[j]) < 0 })
	if cfg.Limit > 0 && int64(len(want)) > cfg.Limit {
		want = want[:cfg.Limit]
	}

	var in iter.Iterator = iter.FromSlice(rows)
	if c.batch > 1 {
		in = &chunkedRows{rows: rows, encoded: c.encoded}
	}
	m, err := NewMRS(in, schema, target, given, cfg)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	got, err := iter.Drain(&tailWatch{MRS: m, kept: &kept, evicted: &evicted}, schema.Len())
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	if m.liveBytes != 0 {
		t.Fatalf("%v: the closed sort still accounts for %d bytes of memory", c, m.liveBytes)
	}
	if len(got) != len(want) {
		t.Fatalf("%v: %d rows out, want %d", c, len(got), len(want))
	}
	if c.srs && m.Stats().RunsGenerated > 0 {
		for i := range got {
			if ks.Compare(got[i], want[i]) != 0 {
				t.Fatalf("%v: key sequence diverges at %d: %v, want %v", c, i, got[i], want[i])
			}
		}
		if !reflect.DeepEqual(encodedMultiset(got), encodedMultiset(want)) {
			t.Fatalf("%v: output is not a permutation of the input", c)
		}
		return kept, evicted
	}
	for i := range got {
		if !sameTuple(got[i], want[i]) {
			t.Fatalf("%v: output diverges at %d: %v, want %v", c, i, got[i], want[i])
		}
	}
	return kept, evicted
}

// tailWatch counts, as a sort is drained, the spilled segments it merges
// over a kept tail, and those of them that evicted part of it.
type tailWatch struct {
	*MRS
	last          *segment
	kept, evicted *int
}

func (w *tailWatch) NextChunk(c *types.Chunk) error {
	err := w.MRS.NextChunk(c)
	if s := w.cur; s != nil && s != w.last && s.spilled && s.store != nil {
		w.last = s
		if *w.kept++; len(s.sp.runs) > s.tailAt {
			*w.evicted++
		}
	}
	return err
}

// sameTuple is DeepEqual that tells the two float zeros apart by bits, as
// the encoding does.
func sameTuple(a, b types.Tuple) bool {
	return bytes.Equal(a.Encode(nil), b.Encode(nil))
}

func encodedMultiset(rows []types.Tuple) map[string]int {
	m := make(map[string]int, len(rows))
	for _, r := range rows {
		m[string(r.Encode(nil))]++
	}
	return m
}

// TestStoreBackedSortsMatchStableSort is the seeded property: SRS, MRS in
// memory, MRS spilled and the bounded collector, at Parallelism 1/2/4 ×
// batch 1/64/1024, rows arriving as tuples, as
// decoded chunks and as encoded spans — and first the tailCases, spilled
// batch and bounded sorts whose final merge reads a kept tail, some of them
// after evicting part of it.
func TestStoreBackedSortsMatchStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(222))
	tails := map[string]int{}
	for _, c := range tailCases {
		kept, evicted := checkSortCase(t, c.sortCase)
		tails[c.tail] += map[string]int{"kept": kept - evicted, "evicted": evicted}[c.tail]
	}
	if tails["kept"] == 0 || tails["evicted"] == 0 {
		t.Errorf("the tail cases kept %d tails and evicted from %d, want some of each", tails["kept"], tails["evicted"])
	}
	for _, par := range []int{1, 2, 4} {
		for _, batch := range []int{1, 64, 1024} {
			for trial := 0; trial < 12; trial++ {
				n := 1 + r.Intn(900)
				c := sortCase{
					seed: r.Int63(), n: n, perSeg: 1 + r.Intn(n),
					blocks:  []int{2, 4, 16, 1000}[r.Intn(4)],
					limit:   []int64{0, 0, 1, 7, int64(n / 2)}[r.Intn(5)],
					par:     par,
					batch:   batch,
					encoded: trial%2 == 0,
					srs:     trial%3 == 0,
				}
				checkSortCase(t, c)
			}
		}
	}
}

// FuzzStoreBackedSort is the same property with the fuzzer choosing the
// configuration.
func FuzzStoreBackedSort(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(40), uint8(2), uint16(0), uint8(0))
	f.Add(int64(2), uint16(700), uint16(700), uint8(4), uint16(9), uint8(1))
	f.Add(int64(3), uint16(50), uint16(1), uint8(200), uint16(0), uint8(6))
	f.Add(int64(4), uint16(900), uint16(300), uint8(3), uint16(450), uint8(11))
	for _, c := range tailCases {
		f.Add(c.seed, uint16(c.n), uint16(c.perSeg), uint8(c.blocks), uint16(c.limit), uint8(16))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, perSeg uint16, blocks uint8, limit uint16, flags uint8) {
		if n == 0 || n > 1500 || perSeg == 0 || blocks == 0 {
			t.Skip()
		}
		checkSortCase(t, sortCase{
			seed: seed, n: int(n), perSeg: int(perSeg), blocks: int(blocks), limit: int64(limit),
			par:     []int{1, 2, 4}[int(flags)%3],
			batch:   []int{1, 64, 1024}[int(flags>>2)%3],
			encoded: flags&16 != 0,
			srs:     flags&32 != 0,
		})
	})
}

// TestRowLargerThanABlock: a row that does not fit a page-sized block gets a
// block of its own, is sorted, spilled (when the page allows) and emitted
// like any other, and its block goes back with the rest.
func TestRowLargerThanABlock(t *testing.T) {
	d := storage.NewDisk(512)
	defer storage.AssertNoLeaks(t, d)
	big := strings.Repeat("x", 2000)
	var rows []types.Tuple
	for i := 0; i < 40; i++ {
		s := fmt.Sprintf("r%02d", i)
		if i%7 == 3 {
			s = big + s
		}
		rows = append(rows, types.NewTuple(types.NewInt(0), types.NewInt(int64(39-i)), types.NewString(s)))
	}
	m, err := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c3"), sortord.New("c1"),
		Config{Disk: d, MemoryBlocks: 64, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := drain(m)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]types.Tuple(nil), rows...)
	ks := types.MustKeySpec(sortSchema, sortord.New("c1", "c3"))
	sort.SliceStable(want, func(i, j int) bool { return ks.Compare(want[i], want[j]) < 0 })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows larger than a block came back wrong")
	}
	if st := m.Stats(); st.PeakMemBytes < 6*4*512 {
		t.Fatalf("six 2000-byte rows take four 512-byte pages apiece, yet PeakMemBytes = %d", st.PeakMemBytes)
	}
}

// shrinkingBudget is a governor shrink at a chosen read of the budget.
type shrinkingBudget struct {
	blocks, then int
	shrunk       bool
}

func (b *shrinkingBudget) Blocks() int {
	if b.shrunk {
		return b.then
	}
	return b.blocks
}

// TestShrinkMidSegmentReleasesBlocks: when the live budget shrinks while a
// segment is being collected, the next row the sort buffers finds the store
// over its allowance and the batch is spilled — so within one row the blocks
// the collector holds are back under the new budget — and the result is the
// one the unshrunk sort gives.
func TestShrinkMidSegmentReleasesBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	rows := genRows(6000, 2, rng)
	target, given := sortord.New("c1", "c2"), sortord.New("c1")
	d := storage.NewDisk(512)
	defer storage.AssertNoLeaks(t, d)
	b := &shrinkingBudget{blocks: 64, then: 8}
	var m *MRS
	rowsSince := -1
	in := &genIter{n: len(rows), row: func(i int) types.Tuple { return rows[i] }}
	in.probe = func(i int) {
		switch {
		case i == 1000:
			if held := m.col.store.held(); held <= b.then {
				t.Fatalf("the collector was meant to hold more than the shrunk budget by now, holds %d blocks", held)
			}
			b.shrunk, rowsSince = true, 0
		case rowsSince >= 0:
			// Row 1000 was buffered against the shrunk budget before this
			// row was asked for.
			if rowsSince++; rowsSince == 1 {
				if held := m.col.store.held(); held > b.then {
					t.Fatalf("one row after the shrink the collector still holds %d blocks, budget %d", held, b.then)
				}
			}
		}
	}
	var err error
	m, err = NewMRS(in, sortSchema, target, given, Config{Disk: d, MemoryBlocks: 64, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Bind(iter.Binding{Budget: b})
	got, err := drain(m)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().RunsGenerated == 0 {
		t.Fatal("the shrunk budget never forced a spill")
	}
	d2 := storage.NewDisk(512)
	ref, err := NewMRS(iter.FromSlice(rows), sortSchema, target, given, Config{Disk: d2, MemoryBlocks: 64, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := drain(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the shrunk sort's output differs from the unshrunk sort's")
	}
}

// TestSRSShrinkDrainsAndRefills: replacement selection under a shrink stops
// taking input, drains its heap into the current and the next run, returns
// every block and refills under the new allowance — nothing else would bring
// a heap of scattered rows under a smaller budget.
func TestSRSShrinkDrainsAndRefills(t *testing.T) {
	rng := rand.New(rand.NewSource(224))
	rows := shuffled(genRows(8000, 8, rng), rng)
	d := storage.NewDisk(512)
	defer storage.AssertNoLeaks(t, d)
	b := &shrinkingBudget{blocks: 32, then: 6}
	var s *MRS
	var heldAfter []int
	in := &genIter{n: len(rows), row: func(i int) types.Tuple { return rows[i] }}
	in.probe = func(i int) {
		if i == 3000 {
			b.shrunk = true
		}
		if st := collecting(s); i > 3000 && st != nil {
			heldAfter = append(heldAfter, st.held())
		}
	}
	s, err := NewMRS(in, sortSchema, sortord.New("c2", "c1"), sortord.Empty, Config{Disk: d, MemoryBlocks: 32})
	if err != nil {
		t.Fatal(err)
	}
	s.Bind(iter.Binding{Budget: b})
	got, err := drain(s)
	if err != nil {
		t.Fatal(err)
	}
	isSorted(t, got, sortord.New("c2", "c1"))
	if !reflect.DeepEqual(multiset(got), multiset(rows)) {
		t.Fatal("output not a permutation of input")
	}
	// The first row read after the shrink is read only once the heap has
	// drained and the store has given its blocks back.
	for i, held := range heldAfter {
		if held > b.then {
			t.Fatalf("%d rows after the shrink the store holds %d blocks, budget %d", i+1, held, b.then)
		}
	}
	if len(heldAfter) == 0 {
		t.Fatal("no row was read after the shrink")
	}
}

// TestSRSRunsAverageTwiceTheFill is §3's property of replacement selection —
// on random input runs average twice the memory — restated in rows against
// the store: the fill is what the budget's blocks hold, and the runs must
// average at least 1.8 times that, for fixed-width rows (every freed slot
// fits the next row exactly) and for the benchmark's variable-width shape
// (slots are recycled by size class).
func TestSRSRunsAverageTwiceTheFill(t *testing.T) {
	const n, blocks = 120_000, 16
	for _, sh := range residentShapes {
		t.Run(sh.name, func(t *testing.T) {
			d := storage.NewDisk(0)
			defer storage.AssertNoLeaks(t, d)
			in := &genIter{n: n, row: sh.row}
			s, err := NewMRS(in, sh.schema, sortord.New("c2", "c1"), sortord.Empty, Config{Disk: d, MemoryBlocks: blocks})
			if err != nil {
				t.Fatal(err)
			}
			fill := 0
			in.probe = func(i int) {
				// The first row the store has no room for ends the fill.
				if st := collecting(s); fill == 0 && st != nil && st.held() == blocks {
					if _, rowPages := st.place(sh.row(i).EncodedSize()); rowPages > 0 {
						fill = st.len()
					}
				}
			}
			if err := s.Open(); err != nil {
				t.Fatal(err)
			}
			if _, err := pull1(s); err != nil {
				t.Fatal(err)
			}
			runs := s.Stats().RunsGenerated
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if fill == 0 || runs == 0 {
				t.Fatalf("fill %d rows, %d runs", fill, runs)
			}
			avg := float64(n) / float64(runs)
			t.Logf("fill %d rows, %d runs averaging %.0f rows: %.2f × the fill", fill, runs, avg, avg/float64(fill))
			if avg < 1.8*float64(fill) {
				t.Errorf("runs average %.0f rows, %.2f × the %d-row fill, want ≥ 1.8 ×", avg, avg/float64(fill), fill)
			}
		})
	}
}

// genIter generates rows on demand and keeps none of them; probe, when set,
// runs before row i is produced — the sort is then exactly as it was left
// asking for that row.
type genIter struct {
	n     int
	row   func(i int) types.Tuple
	probe func(i int)
	i     int
}

func (g *genIter) Open() error { return nil }
func (g *genIter) NextChunk(c *types.Chunk) error {
	c.Reset()
	for ; g.i < g.n && !c.Full(); g.i++ {
		if g.probe != nil {
			g.probe(g.i)
		}
		c.AppendRow(g.row(g.i))
	}
	return nil
}
func (g *genIter) Close() error { return nil }

// collecting returns the store of the segment m is collecting, nil between
// segments.
func collecting(m *MRS) *rowStore {
	if m.col == nil {
		return nil
	}
	return m.col.store
}

// residentShapes are the two row shapes the memory tests run on.
var residentShapes = []struct {
	name   string
	schema *types.Schema
	row    func(i int) types.Tuple
}{
	// The benchmark's seg shape: two ints and a 16–32 byte string.
	{"seg", sortSchema, func(i int) types.Tuple {
		h := uint64(i) * 0x9e3779b97f4a7c15
		return types.NewTuple(types.NewInt(int64(i/400)), types.NewInt(int64(h>>40)),
			types.NewString("abcdefghijklmnopqrstuvwxyz0123456789"[:16+h%17]))
	}},
	{"three-int", types.NewSchema(
		types.Column{Name: "c1", Kind: types.KindInt},
		types.Column{Name: "c2", Kind: types.KindInt},
		types.Column{Name: "c3", Kind: types.KindInt},
	), func(i int) types.Tuple {
		h := uint64(i) * 0x9e3779b97f4a7c15
		return types.NewTuple(types.NewInt(int64(i/400)), types.NewInt(int64(h>>40)), types.NewInt(int64(i)))
	}},
}

// TestFootprintPricesTheStoresEntry: the planner's footprint sizes an entry
// from column kinds alone and must land on the entry the sort resolves from
// its codec.
func TestFootprintPricesTheStoresEntry(t *testing.T) {
	const page = 4096
	for _, c := range []struct{ target, given sortord.Order }{
		{sortord.New("c1", "c2"), sortord.New("c1")},
		{sortord.New("c1", "c2", "c3"), nil},
		{sortord.New("c3"), nil},
		{sortord.New("c2", "c1"), sortord.New("c2", "c1")},
		{sortord.New("c3", "c2", "c1", "c3"), sortord.New("c3")},
	} {
		codec, err := keys.NewCodec(sortSchema, c.target)
		if err != nil {
			t.Fatal(err)
		}
		size := entryWidth(codec, c.given.Len(), page) + entryOverhead
		if got := (Spec{Schema: sortSchema, Target: c.target, Given: c.given}).footprint().entry; got != int64(size) {
			t.Errorf("sort to %v given %v: footprint prices %d-byte entries, the store holds %d-byte ones", c.target, c.given, got, size)
		}
	}
}

// TestStoreRecyclesMixedWidths: a recycling store under a fixed budget takes
// the free-one-add-what-fits traffic of replacement selection with rows of
// widely varying width — among them rows whose slot (the row plus its key
// overflow) is larger than a block, which get a multi-page block that goes
// back whole when the row is freed. The blocks held never exceed the budget,
// the store never runs empty, and every row, with its overflow, is read back
// as it went in however often slots have changed hands around it.
func TestStoreRecyclesMixedWidths(t *testing.T) {
	const budget = 24
	d := storage.NewDisk(512)
	defer storage.AssertNoLeaks(t, d)
	r := rand.New(rand.NewSource(225))
	target := sortord.New("c3", "c2") // string keys: most are longer than the entry prefix
	st, ky := fillStore(t, d, target, 0, nil)
	defer st.release()
	type buffered struct {
		h   uint32
		row types.Tuple
		key []byte
	}
	var live []buffered
	var pending types.Tuple
	big := 0
	fill := func() {
		for {
			if pending == nil {
				n := r.Intn(250)
				if r.Intn(12) == 0 {
					n = 260 + r.Intn(900) // row + overflow: two to five blocks
				}
				pending = types.NewTuple(types.NewInt(1), types.NewInt(int64(r.Intn(1000))),
					types.NewString(strings.Repeat("k", n)))
			}
			in := inputRow{t: pending, key: ky.codec.Append(nil, pending)}
			h, ok := st.add(in, ky.suffix(in), 0, budget)
			if !ok {
				return
			}
			if pending.EncodedSize() > 260 {
				big++
			}
			live = append(live, buffered{h, pending, in.key})
			pending = nil
		}
	}
	check := func(step int) {
		var b bound
		for _, l := range live {
			e := st.entry(l.h)
			got, _, err := types.DecodeTuple(st.rowAt(e))
			if err != nil || !sameTuple(got, l.row) {
				t.Fatalf("step %d: row came back as %v (%v), want %v", step, got, err, l.row)
			}
			if ky.lift(&b, st, e); b.trunc && !bytes.Equal(b.key, l.key) {
				t.Fatalf("step %d: key came back as % x, want % x", step, b.key, l.key)
			}
		}
	}
	fill()
	const steps = 20_000
	for step := 0; step < steps; step++ {
		i := r.Intn(len(live))
		st.free(live[i].h)
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		fill()
		if st.held() > budget {
			t.Fatalf("step %d: store holds %d blocks, budget %d", step, st.held(), budget)
		}
		if len(live) == 0 || st.len() != len(live) {
			t.Fatalf("step %d: store reports %d rows, %d are live", step, st.len(), len(live))
		}
		if step%1000 == 0 {
			check(step)
		}
	}
	check(steps)
	if big < 100 {
		t.Fatalf("only %d rows larger than a block went through the store", big)
	}
}

// TestSRSSpillsLongStringKeys: replacement selection on a long string column —
// rows that fit a run page while row plus key overflow need a multi-page
// block — writes and frees such rows all through phase 2 and still returns
// the sorted input.
func TestSRSSpillsLongStringKeys(t *testing.T) {
	r := rand.New(rand.NewSource(226))
	rows := make([]types.Tuple, 4000)
	for i := range rows {
		n := r.Intn(120)
		if r.Intn(8) == 0 {
			n = 260 + r.Intn(200)
		}
		b := make([]byte, n)
		for j := range b {
			b[j] = "abc"[r.Intn(3)]
		}
		rows[i] = types.NewTuple(types.NewInt(int64(i)), types.NewInt(int64(r.Intn(50))), types.NewString(string(b)))
	}
	target := sortord.New("c3", "c2")
	for _, batch := range []int{1, 64} {
		d := storage.NewDisk(512)
		var in iter.Iterator = iter.FromSlice(rows)
		if batch > 1 {
			in = &chunkedRows{rows: rows, encoded: true}
		}
		s, err := NewMRS(in, sortSchema, target, sortord.Empty, Config{Disk: d, MemoryBlocks: 12, BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
		got, err := drain(s)
		if err != nil {
			t.Fatal(err)
		}
		isSorted(t, got, target)
		if !reflect.DeepEqual(encodedMultiset(got), encodedMultiset(rows)) {
			t.Fatal("output not a permutation of input")
		}
		if runs := s.Stats().RunsGenerated; runs < 2 {
			t.Fatalf("the sort was meant to spill, formed %d runs", runs)
		}
		if peak := s.Stats().PeakMemBytes; peak > 12*512 {
			t.Fatalf("PeakMemBytes %d over the 12-block budget", peak)
		}
		storage.AssertNoLeaks(t, d)
	}
}

// tailCases are spilled one-segment sorts a little over a memory load that
// keep the rows they hold at input end for the final merge: MRS batches and a
// bounded collector keeping all of them, and batches evicting part.
var tailCases = []struct {
	sortCase
	tail string // "kept" or "evicted"
}{
	{sortCase{seed: 1, n: 300, perSeg: 300, blocks: 16, par: 1, batch: 64, encoded: true}, "kept"},
	{sortCase{seed: 2, n: 600, perSeg: 600, blocks: 16, par: 2, batch: 1}, "kept"},
	{sortCase{seed: 1, n: 300, perSeg: 300, blocks: 16, limit: 270, par: 1, batch: 64, encoded: true}, "kept"},
	{sortCase{seed: 1, n: 900, perSeg: 900, blocks: 16, par: 1, batch: 1024, encoded: true}, "evicted"},
	{sortCase{seed: 2, n: 800, perSeg: 800, blocks: 16, par: 4, batch: 64}, "evicted"},
}

// FuzzTailCut checks the kept-tail cut on stores the fuzzer shapes: n rows
// of a width that may vary and may exceed a page, in a padded store with
// every third row freed and the slots partly refilled, or in a packed one;
// runs disk runs beside it within allowance blocks. rowStore.tailCut must
// agree with a brute-force search — keep the whole store if it fits beside a
// read block per run, else cut at the highest block start whose rows, their
// entries packed, fit with one more read block, else write everything — and
// evict must leave exactly the rows before the cut, in the order given, on
// the blocks the store accounts for; nothing stays out after release. On a
// packed store of fixed-width rows no wider than a page PlanSpill's
// footprint.tailCut keeps as many rows.
func FuzzTailCut(f *testing.F) {
	f.Add(uint16(300), uint8(6), uint8(0), uint8(1), uint8(16), false)
	f.Add(uint16(300), uint8(6), uint8(0), uint8(3), uint8(12), true)
	f.Add(uint16(90), uint8(40), uint8(9), uint8(2), uint8(30), false)
	f.Add(uint16(40), uint8(200), uint8(0), uint8(0), uint8(8), true)
	f.Fuzz(func(t *testing.T, n uint16, width, vary, runs, allowance uint8, padded bool) {
		if n == 0 || n > 2000 {
			t.Skip()
		}
		const page = 512
		d := storage.NewDisk(page)
		defer storage.AssertNoLeaks(t, d)
		st := newRowStore(d, 8, padded)
		defer st.release()
		row := func(i int) inputRow {
			w := int(width) * 5
			if vary > 0 {
				w += i % int(vary)
			}
			var key [8]byte
			binary.BigEndian.PutUint64(key[:], uint64(i))
			return inputRow{t: types.NewTuple(types.NewInt(int64(i)), types.NewString(strings.Repeat("x", w))), key: key[:]}
		}
		for i := 0; i < int(n); i++ {
			r := row(i)
			st.add(r, r.key, 0, math.MaxInt32)
		}
		if padded {
			for i := 0; i < int(n); i += 3 {
				st.free(st.handle(i))
			}
			for i := int(n); i < int(n)+int(n)/6; i++ {
				r := row(i)
				st.add(r, r.key, 0, math.MaxInt32)
			}
		}

		// The brute force: the live rows and the row pages before each cut.
		var live []uint32
		for i := 0; i < st.appended; i++ {
			if binary.BigEndian.Uint32(st.entry(st.handle(i))[st.width+1:]) != deadEntry {
				live = append(live, st.handle(i))
			}
		}
		before := func(cut int) (kept []uint32, pages int) {
			for _, h := range live {
				if st.rowPage(h) < cut {
					kept = append(kept, h)
				}
			}
			for _, b := range st.rows[:cut] {
				if b != nil {
					pages += b.Pages()
				}
			}
			return kept, pages
		}
		fits := func(cut int) bool {
			kept, pages := before(cut)
			return len(kept) > 0 && pages+(len(kept)+st.perBlock-1)/st.perBlock+int(runs)+1 <= int(allowance)
		}
		wantCut, wantOK := len(st.rows), len(live) > 0 && st.pages+int(runs) <= int(allowance)
		for p := len(st.rows) - 1; !wantOK && p > 0; p-- {
			if st.rows[p] != nil && fits(p) {
				wantCut, wantOK = p, true
			}
		}
		cut, ok := st.tailCut(int(runs), int(allowance), true)
		if ok != wantOK || (ok && cut != wantCut) {
			t.Fatalf("%d rows on %d pages beside %d runs in %d blocks: cut %d %v, want %d %v",
				len(live), st.pages, runs, allowance, cut, ok, wantCut, wantOK)
		}
		if !ok {
			return
		}
		kept, rowPages := before(cut)
		var rows [][]byte
		for _, h := range kept {
			rows = append(rows, append([]byte(nil), st.rowBytes(st.entry(h))...))
		}
		st.evict(cut, kept)
		if st.len() != len(kept) || st.pages != rowPages+(len(kept)+st.perBlock-1)/st.perBlock || int64(st.pages) != d.LiveBlocks() {
			t.Fatalf("evicted at %d: %d rows on %d pages (%d out), want %d rows on %d row pages",
				cut, st.len(), st.pages, d.LiveBlocks(), len(kept), rowPages)
		}
		for i := range kept {
			if got := st.rowBytes(st.entry(st.handle(i))); !bytes.Equal(got, rows[i]) {
				t.Fatalf("kept row %d is %x, want %x", i, got, rows[i])
			}
		}
		if !padded && vary == 0 && len(rows[0]) <= page {
			f := footprint{row: int64(len(rows[0])), entry: int64(st.size)}
			if planned := f.tailCut(int64(len(live)), int(runs), false, int(allowance), page); planned != int64(len(kept)) {
				t.Fatalf("planned to keep %d of %d rows, the store keeps %d", planned, len(live), len(kept))
			}
		}
	})
}
