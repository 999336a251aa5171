package xsort

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

var limitTarget = sortord.New("c1", "c2")

// stablePrefix is the oracle of a bounded sort: the first k rows of
// sort.SliceStable over the whole input.
func stablePrefix(rows []types.Tuple, k int) []types.Tuple {
	ks := types.MustKeySpec(sortSchema, limitTarget)
	ref := append([]types.Tuple(nil), rows...)
	sort.SliceStable(ref, func(i, j int) bool { return ks.Compare(ref[i], ref[j]) < 0 })
	if k < len(ref) {
		ref = ref[:k]
	}
	return ref
}

// checkLimited compares a bounded sort's output to the oracle, row for row:
// MRS is a stable sort — selections, truncated runs and merges all give a
// full-key tie to the earlier arrival — so even the rows tied at the cut-off
// are the oracle's.
func checkLimited(t testing.TB, out, rows []types.Tuple, k int) {
	t.Helper()
	want := stablePrefix(rows, k)
	if len(out) != len(want) {
		t.Fatalf("limit %d returned %d rows, want %d", k, len(out), len(want))
	}
	for i := range out {
		if !reflect.DeepEqual(out[i], want[i]) {
			t.Fatalf("limit %d row %d = %v, want %v", k, i, out[i], want[i])
		}
	}
}

// limitedMRS drains a bounded MRS over rows; given names the known input
// prefix (ε sorts the whole input as one bounded segment).
func limitedMRS(t testing.TB, rows []types.Tuple, given sortord.Order, cfg Config) ([]types.Tuple, SortStats) {
	t.Helper()
	m, err := NewMRS(iter.FromSlice(rows), sortSchema, limitTarget, given, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := drain(m)
	if err != nil {
		t.Fatal(err)
	}
	return out, *m.Stats()
}

// TestMRSLimitMatchesStablePrefix: LIMIT k through the sort is the first k
// rows of the unlimited order, at every position of k against the segment
// boundaries, every memory regime (k fits, 2k does not, k does not) and every
// parallelism, with and without a known prefix.
func TestMRSLimitMatchesStablePrefix(t *testing.T) {
	const n, seg = 600, 100
	rng := rand.New(rand.NewSource(61))
	sorted := genRows(n, n/seg, rng)
	// Duplicate keys, so ties straddle the cut-off.
	for i := range sorted {
		sorted[i][1] = types.NewInt(rng.Int63n(40))
	}
	inputs := []struct {
		name  string
		rows  []types.Tuple
		given sortord.Order
	}{
		{"prefix", sorted, sortord.New("c1")},
		{"full", shuffled(sorted, rng), sortord.Empty},
	}
	for _, in := range inputs {
		for _, k := range []int{1, seg - 1, seg, seg + 1, 2*seg + 1, n, n + 5} {
			for _, blocks := range []int{4, 16, 1000} {
				for _, par := range []int{1, 2} {
					for _, arm := range []string{spillArms[0], spillArms[2]} {
						name := fmt.Sprintf("%s/k%d/m%d/p%d/%s", in.name, k, blocks, par, arm)
						t.Run(name, func(t *testing.T) {
							cfg, _ := smallCfg(t, blocks)
							cfg.Parallelism = par
							cfg.Limit = int64(k)
							out, st := limitedMRS(t, in.rows, in.given, cfg)
							checkLimited(t, out, in.rows, k)
							if st.TuplesOut != int64(len(out)) {
								t.Fatalf("TuplesOut = %d for %d rows", st.TuplesOut, len(out))
							}
						})
					}
				}
			}
		}
	}
}

// TestMRSLimitReadsOnlyCoveringSegments is the read-ahead regression: a
// bounded sort whose answer lies in the first segment must do exactly the
// work of a one-segment input — no second segment collected, sorted or
// spilled — at Parallelism 1 and 2 alike. (At the parent commit pump read
// ahead and spilled up to Parallelism further segments.)
func TestMRSLimitReadsOnlyCoveringSegments(t *testing.T) {
	const seg, k = 400, 50
	rng := rand.New(rand.NewSource(62))
	all := genRows(10*seg, 10, rng)
	one := all[:seg]
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			run := func(rows []types.Tuple) (SortStats, storage.IOStats, int) {
				cfg, d := smallCfg(t, 16) // 16 blocks ≈ 64 rows: 2k rows do not fit, k rows do
				cfg.Parallelism = par
				cfg.Limit = k
				in := &countingIter{inner: iter.FromSlice(rows)}
				m, err := NewMRS(in, sortSchema, limitTarget, sortord.New("c1"), cfg)
				if err != nil {
					t.Fatal(err)
				}
				out, err := drain(m)
				if err != nil {
					t.Fatal(err)
				}
				checkLimited(t, out, rows, k)
				return *m.Stats(), d.Stats(), in.pulled
			}
			wantStats, wantIO, _ := run(one)
			gotStats, gotIO, pulled := run(all)
			if pulled != seg+1 || gotStats.TuplesIn != seg+1 {
				t.Fatalf("pulled %d tuples (TuplesIn %d), want the covering segment + 1 lookahead = %d",
					pulled, gotStats.TuplesIn, seg+1)
			}
			wantStats.TuplesIn++    // the lookahead tuple that found the boundary…
			wantStats.Comparisons++ // …and the prefix comparison that rejected it
			if gotStats != wantStats {
				t.Fatalf("ten-segment input did other work than a one-segment input:\n got %+v\nwant %+v", gotStats, wantStats)
			}
			if gotIO != wantIO {
				t.Fatalf("I/O differs: got %+v, want %+v", gotIO, wantIO)
			}
			if gotStats.RunsGenerated != 0 || gotIO.RunPageWrites != 0 {
				t.Fatalf("k rows fit the budget, yet the sort spilled: %+v %+v", gotStats, gotIO)
			}
			if gotStats.Segments != 1 {
				t.Fatalf("collected %d segments, want 1", gotStats.Segments)
			}
		})
	}
}

// TestMRSLimitBoundsMemoryAndDropsPastCutoff: with ample budget the
// collector still holds at most 2k rows, however long the segment.
func TestMRSLimitBoundsMemoryAndDropsPastCutoff(t *testing.T) {
	const k = 20
	rng := rand.New(rand.NewSource(63))
	rows := genRows(5000, 1, rng)
	cfg, _ := smallCfg(t, 10_000)
	cfg.Parallelism = 1
	cfg.Limit = k
	out, st := limitedMRS(t, rows, sortord.New("c1"), cfg)
	checkLimited(t, out, rows, k)
	// 2k rows' worth of blocks, and one more of each kind for the row that
	// triggers the selection.
	if max := (FootprintBlocks(sortSchema, limitTarget, sortord.New("c1"), k, 512) + 2) * 512; st.PeakMemBytes > max {
		t.Fatalf("PeakMemBytes = %d, want at most 2k rows' blocks = %d", st.PeakMemBytes, max)
	}
	unlimitedCfg, _ := smallCfg(t, 10_000)
	unlimitedCfg.Parallelism = 1
	_, full := limitedMRS(t, rows, sortord.New("c1"), unlimitedCfg)
	if st.Comparisons+st.RadixBucketScans >= full.Comparisons+full.RadixBucketScans {
		t.Fatalf("bounded selection did no less sort work than the full sort: %+v vs %+v", st, full)
	}
}

// TestMRSLimitSpillsTruncatedRuns: when k rows themselves exceed the budget
// the segment spills, but no run and no reduction output is longer than k
// rows — the bounded sort writes and reads fewer run pages than the
// unbounded one and still needs reduction passes here (runs > fan-in). Its
// formation runs are those of a bound that cuts nothing: k is many memory
// loads, so both form them by replacement selection in a numbered store,
// which drops a run's rows past k as they leave the heap and goes on as if
// it had written them.
func TestMRSLimitSpillsTruncatedRuns(t *testing.T) {
	const k = 300
	rng := rand.New(rand.NewSource(64))
	rows := genRows(4000, 1, rng)
	for _, par := range []int{1, 2} {
		for _, arm := range []string{spillArms[0], spillArms[2]} {
			t.Run(fmt.Sprintf("par%d/%s", par, arm), func(t *testing.T) {
				run := func(limit int64) (SortStats, storage.IOStats) {
					cfg, d := smallCfg(t, 4) // ≈ 16 rows of memory, fan-in 3
					cfg.Parallelism = par
					cfg.Limit = limit
					out, st := limitedMRS(t, rows, sortord.New("c1"), cfg)
					if limit > 0 {
						checkLimited(t, out, rows, int(limit))
					}
					return st, d.Stats()
				}
				st, io := run(k)
				_, fullIO := run(0)
				wide, _ := run(int64(len(rows)))
				if st.RunsGenerated == 0 || st.MergePasses == 0 {
					t.Fatalf("expected a spilled, reduced segment: %+v", st)
				}
				if io.RunPageWrites >= fullIO.RunPageWrites || io.RunPageReads >= fullIO.RunPageReads {
					t.Fatalf("truncated runs moved no fewer pages: limited %+v, unlimited %+v", io, fullIO)
				}
				if st.RunsGenerated != wide.RunsGenerated {
					t.Fatalf("formation runs: limited %d, bounded past the input %d — k rows never fit, so the runs are the same",
						st.RunsGenerated, wide.RunsGenerated)
				}
			})
		}
	}
}

// TestMRSLimitUnderShrinkingBudget: a governor shrink mid-segment moves a
// bounded segment from selecting in memory to spilling truncated runs; the
// answer does not change.
func TestMRSLimitUnderShrinkingBudget(t *testing.T) {
	const k = 100
	rng := rand.New(rand.NewSource(65))
	rows := genRows(3000, 3, rng)
	cfg, _ := smallCfg(t, 64)
	cfg.Parallelism = 1
	cfg.Limit = k
	m, err := NewMRS(iter.FromSlice(rows), sortSchema, limitTarget, sortord.New("c1"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Bind(iter.Binding{Budget: &countdownBudget{blocks: 64, after: 150, then: 8}})
	out, err := drain(m)
	if err != nil {
		t.Fatal(err)
	}
	checkLimited(t, out, rows, k)
	if st := m.Stats(); st.RunsGenerated == 0 {
		t.Fatalf("the shrunk budget (8 blocks ≈ 32 rows < k) should have forced a spill: %+v", st)
	}
}

// countdownBudget reports blocks until it has been read after times, then
// then — a deterministic stand-in for a governor shrink.
type countdownBudget struct {
	blocks, after, then int
	reads               int
}

func (b *countdownBudget) Blocks() int {
	if b.reads++; b.reads > b.after {
		return b.then
	}
	return b.blocks
}

// TestMRSLimitPassthroughAndValidation: the bound holds even when there is
// nothing to sort, and a negative bound is rejected.
func TestMRSLimitPassthroughAndValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	rows := genRows(100, 100, rng)
	cfg, _ := smallCfg(t, 64)
	cfg.Limit = 7
	in := &countingIter{inner: iter.FromSlice(rows)}
	m, err := NewMRS(in, sortSchema, sortord.New("c1"), sortord.New("c1"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := drain(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 7 || in.pulled != 7 {
		t.Fatalf("passthrough emitted %d rows and pulled %d, want 7 and 7", len(out), in.pulled)
	}
	cfg.Limit = -1
	if _, err := NewMRS(iter.FromSlice(rows), sortSchema, limitTarget, sortord.New("c1"), cfg); err == nil {
		t.Fatal("negative Limit should be rejected")
	}
}

// FuzzMRSLimit drives (rows per segment, k, budget) against the
// sort.SliceStable oracle, with a known prefix and without.
func FuzzMRSLimit(f *testing.F) {
	f.Add(int64(1), uint16(100), uint16(10), uint8(4), false)
	f.Add(int64(2), uint16(100), uint16(100), uint8(4), true)
	f.Add(int64(3), uint16(7), uint16(101), uint8(16), false)
	f.Add(int64(4), uint16(300), uint16(299), uint8(2), true)
	f.Add(int64(5), uint16(1), uint16(1), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed int64, perSeg, k uint16, blocks uint8, full bool) {
		const n = 700
		if perSeg == 0 || k == 0 || blocks == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		rows := make([]types.Tuple, n)
		for i := range rows {
			rows[i] = types.NewTuple(
				types.NewInt(int64(i/int(perSeg))),
				types.NewInt(rng.Int63n(50)),
				types.NewString("payload"[:rng.Intn(8)]),
			)
		}
		given := sortord.New("c1")
		if full {
			rows, given = shuffled(rows, rng), sortord.Empty
		}
		cfg, _ := smallCfg(t, int(blocks))
		cfg.Parallelism = 1 + int(seed&1)
		cfg.Limit = int64(k)
		out, _ := limitedMRS(t, rows, given, cfg)
		checkLimited(t, out, rows, int(k))
	})
}
