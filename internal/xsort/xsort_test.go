package xsort

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

var sortSchema = types.NewSchema(
	types.Column{Name: "c1", Kind: types.KindInt},
	types.Column{Name: "c2", Kind: types.KindInt},
	types.Column{Name: "c3", Kind: types.KindString},
)

// genRows returns n rows; c1 cycles over dist1 values in ascending blocks
// (so the stream is sorted on c1), c2 is random, c3 is a small payload.
func genRows(n, dist1 int, rng *rand.Rand) []types.Tuple {
	rows := make([]types.Tuple, n)
	per := n / dist1
	if per == 0 {
		per = 1
	}
	for i := range rows {
		rows[i] = types.NewTuple(
			types.NewInt(int64(i/per)),
			types.NewInt(rng.Int63n(1_000_000)),
			types.NewString("payload"),
		)
	}
	return rows
}

func shuffled(rows []types.Tuple, rng *rand.Rand) []types.Tuple {
	out := append([]types.Tuple(nil), rows...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// countingIter wraps an iterator and counts tuples pulled, to observe
// pipelining behaviour.
type countingIter struct {
	inner  iter.Iterator
	pulled int
}

func (c *countingIter) Open() error { return c.inner.Open() }
func (c *countingIter) NextChunk(ch *types.Chunk) error {
	err := c.inner.NextChunk(ch)
	c.pulled += ch.Rows()
	return err
}
func (c *countingIter) Close() error { return c.inner.Close() }

// width is the row width of a sort's output.
func width(op iter.Iterator) int {
	if s, ok := op.(*MRS); ok {
		return s.schema.Len()
	}
	panic(fmt.Sprintf("not a sort: %T", op))
}

// drain drains a sort.
func drain(op iter.Iterator) ([]types.Tuple, error) { return iter.Drain(op, width(op)) }

// pull1 asks a sort for a chunk of one row — the row-at-a-time consumer —
// and reports whether it got one.
func pull1(op iter.Iterator) (bool, error) {
	c := types.NewChunk(width(op), 1)
	err := op.NextChunk(c)
	return c.Rows() == 1, err
}

func isSorted(t *testing.T, rows []types.Tuple, o sortord.Order) {
	t.Helper()
	ks := types.MustKeySpec(sortSchema, o)
	for i := 1; i < len(rows); i++ {
		if ks.Compare(rows[i-1], rows[i]) > 0 {
			t.Fatalf("output not sorted at %d: %v > %v", i, rows[i-1], rows[i])
		}
	}
}

// multiset returns an encoded multiset of the rows for permutation checks.
func multiset(rows []types.Tuple) map[string]int {
	m := make(map[string]int, len(rows))
	var buf []byte
	for _, r := range rows {
		buf = r.Encode(buf[:0])
		m[string(buf)]++
	}
	return m
}

// smallCfg builds a sort config over a fresh tiny-paged disk. Every test
// that sorts through it inherits the teardown leak check: whatever the test
// did — drain, early close, abort, induced failure — no temp file or spill
// arena may survive it.
func smallCfg(t testing.TB, blocks int) (Config, *storage.Disk) {
	t.Helper()
	d := storage.NewDisk(512)
	t.Cleanup(func() { storage.AssertNoLeaks(t, d) })
	return Config{Disk: d, MemoryBlocks: blocks}, d
}

// pinFormation forces run formation to one side for the rest of the test —
// radix wherever the key width allows it, or the comparison sort everywhere —
// through the adaptive row threshold, the one selector there is. Not for
// parallel tests: the threshold is package state.
func pinFormation(t testing.TB, radix bool) {
	t.Helper()
	old := adaptiveMinTuples
	t.Cleanup(func() { adaptiveMinTuples = old })
	adaptiveMinTuples = math.MaxInt
	if radix {
		adaptiveMinTuples = 0
	}
}

// spillArms are subtest leaf names from when a sort could spill in three
// layouts. One is left, so every arm of a matrix runs the same sort; the
// leaves stay because the suite's floor pins subtests by their full names.
var spillArms = []string{"flat", "flat-heap", "tuple"}

func TestSRSInMemoryNoIO(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := shuffled(genRows(100, 10, rng), rng)
	cfg, d := smallCfg(t, 1000) // plenty of memory
	s, err := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), sortord.Empty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := drain(s)
	if err != nil {
		t.Fatal(err)
	}
	isSorted(t, out, sortord.New("c1", "c2"))
	if !reflect.DeepEqual(multiset(out), multiset(rows)) {
		t.Fatal("output not a permutation of input")
	}
	if d.Stats().RunTotal() != 0 {
		t.Fatalf("in-memory sort should do no run I/O: %v", d.Stats())
	}
	if s.Stats().RunsGenerated != 0 {
		t.Fatal("no runs expected")
	}
}

func TestSRSSpillsAndMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := shuffled(genRows(3000, 10, rng), rng)
	cfg, d := smallCfg(t, 4) // tiny memory: force many runs and merge passes
	s, err := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), sortord.Empty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := drain(s)
	if err != nil {
		t.Fatal(err)
	}
	isSorted(t, out, sortord.New("c1", "c2"))
	if !reflect.DeepEqual(multiset(out), multiset(rows)) {
		t.Fatal("output not a permutation of input")
	}
	if s.Stats().RunsGenerated < 2 {
		t.Fatalf("expected multiple runs, got %d", s.Stats().RunsGenerated)
	}
	if s.Stats().MergePasses < 1 {
		t.Fatalf("expected merge passes with fan-in %d and %d runs",
			cfg.fanIn(), s.Stats().RunsGenerated)
	}
	if d.Stats().RunTotal() == 0 {
		t.Fatal("spilling sort must do run I/O")
	}
}

func TestSRSSortedInputStillDoesIO(t *testing.T) {
	// The deficiency the paper highlights: SRS on (almost) sorted input
	// writes one giant run and reads it back — all but the rows it still
	// holds at input end, which the final merge reads from memory. At M = 4
	// those rows and the run's read block do not fit, so one row block of
	// them is evicted as a second, small run.
	rng := rand.New(rand.NewSource(3))
	rows := genRows(2000, 20, rng) // sorted on c1 already
	sort.SliceStable(rows, func(i, j int) bool {
		return types.MustKeySpec(sortSchema, sortord.New("c1", "c2")).Compare(rows[i], rows[j]) < 0
	})
	cfg, d := smallCfg(t, 4)
	s, _ := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), sortord.Empty, cfg)
	out, err := drain(s)
	if err != nil {
		t.Fatal(err)
	}
	isSorted(t, out, sortord.New("c1", "c2"))
	if s.Stats().RunsGenerated != 2 {
		t.Fatalf("replacement selection on sorted input should form 1 run and evict 1, got %d runs", s.Stats().RunsGenerated)
	}
	if d.Stats().RunTotal() == 0 {
		t.Fatal("SRS still does run I/O on sorted input — that is its flaw")
	}
}

// TestSRSBlockingBehaviour: the full sort blocks for its whole input before
// its first row — on the first NextChunk; Open reads one lookahead row.
func TestSRSBlockingBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := shuffled(genRows(1000, 10, rng), rng)
	ci := &countingIter{inner: iter.FromSlice(rows)}
	cfg, _ := smallCfg(t, 4)
	s, _ := NewMRS(ci, sortSchema, sortord.New("c1", "c2"), sortord.Empty, cfg)
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if ci.pulled != 1 {
		t.Fatalf("Open should read one lookahead row, pulled %d", ci.pulled)
	}
	if ok, err := pull1(s); !ok || err != nil {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	if ci.pulled != len(rows) {
		t.Fatalf("the first row should need the whole input, pulled %d of %d", ci.pulled, len(rows))
	}
	s.Close()
}

func TestSRSEmptyInputAndErrors(t *testing.T) {
	cfg, _ := smallCfg(t, 4)
	s, err := NewMRS(iter.FromSlice(nil), sortSchema, sortord.New("c1"), sortord.Empty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := drain(s)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty input: %v, %d tuples", err, len(out))
	}
	if _, err := NewMRS(iter.FromSlice(nil), sortSchema, sortord.Empty, sortord.Empty, cfg); err == nil {
		t.Fatal("empty order should error")
	}
	if _, err := NewMRS(iter.FromSlice(nil), sortSchema, sortord.New("zz"), sortord.Empty, cfg); err == nil {
		t.Fatal("unknown attr should error")
	}
	if _, err := NewMRS(iter.FromSlice(nil), sortSchema, sortord.New("c1"), sortord.Empty, Config{}); err == nil {
		t.Fatal("nil disk should error")
	}
	if _, err := NewMRS(iter.FromSlice(nil), sortSchema, sortord.New("c1"), sortord.Empty, Config{Disk: storage.NewDisk(0)}); err == nil {
		t.Fatal("zero memory should error")
	}
}

func TestMRSPipelinedNoIO(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := genRows(2000, 50, rng) // sorted on c1, 40 tuples per segment
	cfg, d := smallCfg(t, 64)
	m, err := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), sortord.New("c1"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := drain(m)
	if err != nil {
		t.Fatal(err)
	}
	isSorted(t, out, sortord.New("c1", "c2"))
	if !reflect.DeepEqual(multiset(out), multiset(rows)) {
		t.Fatal("output not a permutation of input")
	}
	if d.Stats().RunTotal() != 0 {
		t.Fatalf("MRS with small segments must do zero run I/O, did %v", d.Stats())
	}
	if m.Stats().Segments != 50 {
		t.Fatalf("Segments = %d, want 50", m.Stats().Segments)
	}
	if m.Stats().SpilledSegs != 0 {
		t.Fatal("no segment should spill")
	}
}

func TestMRSEarlyOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rows := genRows(10_000, 100, rng)
	ci := &countingIter{inner: iter.FromSlice(rows)}
	cfg, _ := smallCfg(t, 64)
	// Parallelism 1 pins the paper's strictly demand-driven reading; the
	// bounded-lookahead guarantee of the parallel path is covered in
	// parallel_test.go.
	cfg.Parallelism = 1
	m, _ := NewMRS(ci, sortSchema, sortord.New("c1", "c2"), sortord.New("c1"), cfg)
	if err := m.Open(); err != nil {
		t.Fatal(err)
	}
	if ok, err := pull1(m); !ok || err != nil {
		t.Fatalf("Next: ok=%v err=%v", ok, err)
	}
	// After one output tuple, only the first segment (plus one lookahead)
	// should have been consumed — that is the pipelining benefit of Fig 8.
	segSize := len(rows) / 100
	if ci.pulled > segSize+1 {
		t.Fatalf("MRS consumed %d tuples before first output; want <= %d", ci.pulled, segSize+1)
	}
	m.Close()
}

func TestMRSSpilledSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := genRows(4000, 2, rng) // 2 segments of 2000 tuples each
	cfg, d := smallCfg(t, 8)      // tiny memory: segments must spill
	m, err := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), sortord.New("c1"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := drain(m)
	if err != nil {
		t.Fatal(err)
	}
	isSorted(t, out, sortord.New("c1", "c2"))
	if !reflect.DeepEqual(multiset(out), multiset(rows)) {
		t.Fatal("output not a permutation of input")
	}
	if m.Stats().SpilledSegs != 2 {
		t.Fatalf("SpilledSegs = %d, want 2", m.Stats().SpilledSegs)
	}
	if d.Stats().RunTotal() == 0 {
		t.Fatal("spilled segments must do run I/O")
	}
}

func TestMRSPassthrough(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows := genRows(100, 10, rng)
	cfg, d := smallCfg(t, 4)
	m, err := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1"), sortord.New("c1"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := drain(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(rows) {
		t.Fatalf("passthrough lost tuples: %d of %d", len(out), len(rows))
	}
	if d.Stats().Total() != 0 {
		t.Fatal("passthrough must do no I/O")
	}
	if m.Stats().Comparisons != 0 {
		t.Fatalf("passthrough made %d comparisons", m.Stats().Comparisons)
	}
}

func TestMRSSinglSegmentDegeneratesToFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := shuffled(genRows(2000, 10, rng), rng)
	cfg, _ := smallCfg(t, 4)
	// ε known order: whole input is one segment.
	m, err := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), sortord.Empty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := drain(m)
	if err != nil {
		t.Fatal(err)
	}
	isSorted(t, out, sortord.New("c1", "c2"))
	if m.Stats().Segments != 1 {
		t.Fatalf("Segments = %d, want 1", m.Stats().Segments)
	}
	if m.Stats().SpilledSegs != 1 {
		t.Fatal("single oversized segment should spill")
	}
}

func TestMRSValidation(t *testing.T) {
	cfg, _ := smallCfg(t, 4)
	if _, err := NewMRS(iter.FromSlice(nil), sortSchema, sortord.New("c1"), sortord.New("c2"), cfg); err == nil {
		t.Fatal("non-prefix given order should error")
	}
	if _, err := NewMRS(iter.FromSlice(nil), sortSchema, sortord.Empty, sortord.Empty, cfg); err == nil {
		t.Fatal("empty target should error")
	}
	if _, err := NewMRS(iter.FromSlice(nil), sortSchema, sortord.New("zz"), sortord.Empty, cfg); err == nil {
		t.Fatal("unknown attr should error")
	}
	m, err := NewMRS(iter.FromSlice(nil), sortSchema, sortord.New("c1"), sortord.Empty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := drain(m)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty input: %v, %d", err, len(out))
	}
}

func TestMRSFewerComparisonsThanSRS(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rows := genRows(5000, 100, rng) // sorted on c1
	cfg1, _ := smallCfg(t, 16)
	srs, _ := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), sortord.Empty, cfg1)
	if _, err := drain(srs); err != nil {
		t.Fatal(err)
	}
	cfg2, _ := smallCfg(t, 16)
	mrs, _ := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), sortord.New("c1"), cfg2)
	if _, err := drain(mrs); err != nil {
		t.Fatal(err)
	}
	if mrs.Stats().Comparisons >= srs.Stats().Comparisons {
		t.Fatalf("MRS comparisons (%d) should be below SRS (%d): O(n log n/k) vs O(n log n)",
			mrs.Stats().Comparisons, srs.Stats().Comparisons)
	}
}

func TestQuickSRSAndMRSAgreeWithReference(t *testing.T) {
	target := sortord.New("c1", "c2", "c3")
	ks := types.MustKeySpec(sortSchema, target)
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := r.Intn(400)
			dist := 1 + r.Intn(10)
			rows := make([]types.Tuple, n)
			for i := range rows {
				rows[i] = types.NewTuple(
					types.NewInt(int64(r.Intn(dist))),
					types.NewInt(r.Int63n(50)),
					types.NewString(string(rune('a'+r.Intn(4)))),
				)
			}
			// Pre-sort on c1 so MRS's precondition (input ordered on the
			// prefix) holds.
			sort.SliceStable(rows, func(i, j int) bool { return rows[i][0].Int() < rows[j][0].Int() })
			vals[0] = reflect.ValueOf(rows)
			vals[1] = reflect.ValueOf(2 + r.Intn(6)) // memory blocks
		},
	}
	prop := func(rows []types.Tuple, blocks int) bool {
		ref := append([]types.Tuple(nil), rows...)
		sort.SliceStable(ref, func(i, j int) bool { return ks.Compare(ref[i], ref[j]) < 0 })

		c1, _ := smallCfg(t, blocks)
		srs, err := NewMRS(iter.FromSlice(rows), sortSchema, target, sortord.Empty, c1)
		if err != nil {
			return false
		}
		gotS, err := drain(srs)
		if err != nil {
			return false
		}
		c2, _ := smallCfg(t, blocks)
		mrs, err := NewMRS(iter.FromSlice(rows), sortSchema, target, sortord.New("c1"), c2)
		if err != nil {
			return false
		}
		gotM, err := drain(mrs)
		if err != nil {
			return false
		}
		if len(gotS) != len(ref) || len(gotM) != len(ref) {
			return false
		}
		for i := range ref {
			if ks.Compare(gotS[i], ref[i]) != 0 || ks.Compare(gotM[i], ref[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMRSRunCleanupOnClose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := genRows(4000, 2, rng)
	cfg, d := smallCfg(t, 8)
	m, _ := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), sortord.New("c1"), cfg)
	if err := m.Open(); err != nil {
		t.Fatal(err)
	}
	// Pull a few tuples mid-segment, then abandon.
	for i := 0; i < 5; i++ {
		if ok, err := pull1(m); !ok || err != nil {
			t.Fatalf("Next %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Close() != nil {
		t.Fatal("double close should be nil")
	}
	for _, name := range d.FileNames() {
		t.Fatalf("run file %q leaked after Close", name)
	}
}

// NewSorted fully sorts the input under order o and returns the result.
func NewSorted(input iter.Iterator, schema *types.Schema, o sortord.Order, cfg Config) ([]types.Tuple, *SortStats, error) {
	s, err := NewMRS(input, schema, o, sortord.Empty, cfg)
	if err != nil {
		return nil, nil, err
	}
	out, err := drain(s)
	if err != nil {
		return nil, nil, err
	}
	return out, s.Stats(), nil
}

func TestNewSortedHelper(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rows := shuffled(genRows(300, 5, rng), rng)
	cfg, _ := smallCfg(t, 64)
	out, stats, err := NewSorted(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	isSorted(t, out, sortord.New("c1", "c2"))
	if stats.TuplesIn != 300 || stats.TuplesOut != 300 {
		t.Fatalf("stats = %+v", stats)
	}
}
