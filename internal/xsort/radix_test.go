package xsort

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pyro/internal/iter"
	"pyro/internal/keys"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// adversarialRows builds rows whose (c1, c3) keys collide in every way the
// store entries have to survive: c1 takes few values (long shared prefixes),
// c3 is a string over a tiny alphabet that includes the escape and
// terminator bytes, of lengths on both sides of the 8 content bytes an entry
// prefix carries — so complete keys, truncated keys, keys that are prefixes
// of other keys and exact duplicates all occur. c2 is the row's identity, so
// a stability violation is visible even between equal keys.
func adversarialRows(r *rand.Rand, n int) []types.Tuple {
	alphabet := []byte{0x00, 0x01, 0x7f, 0xfe, 0xff}
	rows := make([]types.Tuple, n)
	for i := range rows {
		k := make([]byte, r.Intn(13))
		for j := range k {
			k[j] = alphabet[r.Intn(len(alphabet))]
		}
		rows[i] = types.NewTuple(types.NewInt(int64(r.Intn(3))), types.NewInt(int64(i)), types.NewString(string(k)))
	}
	// Inject exact duplicates of earlier keys.
	for i := range rows {
		if i > 0 && r.Intn(4) == 0 {
			rows[i][0], rows[i][2] = rows[r.Intn(i)][0], rows[r.Intn(i)][2]
		}
	}
	return rows
}

// TestRadixSortKeyedMatchesStableSort: the radix permutation must be
// bit-identical to the stable comparison permutation of the full encoded
// keys — including tie order (stability), truncated-prefix ties resolved
// from the rows, and prefix-of-longer-key ordering — with and without a
// shared-prefix skip.
func TestRadixSortKeyedMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	d := storage.NewDisk(512)
	defer storage.AssertNoLeaks(t, d)
	target := sortord.New("c1", "c3")
	codec, err := keys.NewCodec(sortSchema, target)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		rows := adversarialRows(r, r.Intn(300))
		prefixCols := r.Intn(2)
		if prefixCols == 1 {
			for _, row := range rows {
				row[0] = rows[0][0] // one segment: every key shares the c1 bytes
			}
		}
		st, ky := fillStore(t, d, target, prefixCols, rows)

		full := make([][]byte, len(rows))
		for i, row := range rows {
			full[i] = codec.Append(nil, row)
		}
		wantIdx := make([]int, len(rows))
		for i := range wantIdx {
			wantIdx[i] = i
		}
		sort.SliceStable(wantIdx, func(i, j int) bool {
			return bytes.Compare(full[wantIdx[i]], full[wantIdx[j]]) < 0
		})
		handles := st.handles(nil)
		want := make([]uint32, len(rows))
		for i, idx := range wantIdx {
			want[i] = handles[idx]
		}

		got, tally := radixSortEntries(st, ky)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d prefix cols): radix order %v != stable order %v", trial, prefixCols, got, want)
		}
		if cmp, _ := sortEntries(st, ky); !reflect.DeepEqual(cmp, want) {
			t.Fatalf("trial %d (%d prefix cols): comparison order %v != stable order %v", trial, prefixCols, cmp, want)
		}
		if len(rows) > radixInsertionCutoff && tally.radixPasses == 0 && prefixCols == 0 {
			t.Fatalf("trial %d: %d keys sorted with zero radix passes", trial, len(rows))
		}
		st.release()
	}
}

// TestRadixEligibility: the sort picks radix from the buffer size and the key
// width, and the row threshold is the hook that pins either side for tests.
func TestRadixEligibility(t *testing.T) {
	enc := &keyer{codec: testCodec(t), width: 9}
	short := &keyer{codec: testCodec(t), width: 2} // a lone bool
	check := func(name string, n int, ky *keyer, want bool) {
		t.Helper()
		if got := radixEligible(n, ky); got != want {
			t.Errorf("%s: radixEligible = %v, want %v", name, got, want)
		}
	}
	check("big buffer", adaptiveMinTuples, enc, true)
	check("tiny buffer", 4, enc, false)
	check("short keys", adaptiveMinTuples, short, false)
	t.Run("compare pinned", func(t *testing.T) {
		pinFormation(t, false)
		check("big buffer", 1<<20, enc, false)
	})
	t.Run("radix pinned", func(t *testing.T) {
		pinFormation(t, true)
		check("tiny buffer", 4, enc, true)
		check("short keys", 4, short, false)
	})
}

func testCodec(t *testing.T) *keys.Codec {
	t.Helper()
	ks := types.MustKeySpec(sortSchema, sortord.New("c1"))
	c, err := keys.FromKeySpec(ks)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fullKeySchemaRows returns rows where EVERY column is a key column of the
// target order, so byte-equal keys mean byte-equal tuples and output
// sequences are comparable across modes even where sorts are unstable
// (SRS's replacement-selection ties).
func fullKeyRows(r *rand.Rand, n, dist1 int) []types.Tuple {
	per := n / dist1
	if per == 0 {
		per = 1
	}
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.NewTuple(
			types.NewInt(int64(i/per)),
			types.NewInt(int64(r.Intn(40))), // narrow: plenty of ties
			types.NewString(string(rune('a'+r.Intn(3)))),
		)
	}
	return rows
}

// TestRunFormationModesAgree: for random segment shapes, memory budgets and
// parallelism levels, run formation pinned to radix and left to choose must
// reproduce the pinned compare path's output sequence, run structure and I/O
// totals exactly — for MRS and SRS alike. Only the work accounting
// (Comparisons vs RadixPasses) may differ.
func TestRunFormationModesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	target := sortord.New("c1", "c2", "c3")
	threshold := adaptiveMinTuples // see pinFormation
	defer func() { adaptiveMinTuples = threshold }()
	for trial := 0; trial < 60; trial++ {
		n := 20 + r.Intn(3000)
		dist1 := 1 + r.Intn(12)
		blocks := 2 + r.Intn(12)
		par := 1 + r.Intn(4)
		rows := fullKeyRows(r, n, dist1)
		shuffledRows := shuffled(rows, rand.New(rand.NewSource(int64(trial))))

		type result struct {
			out   []types.Tuple
			stats SortStats
			io    storage.IOStats
		}
		sorter := func(in []types.Tuple, given sortord.Order, par int) func() result {
			return func() result {
				cfg, d := smallCfg(t, blocks)
				cfg.Parallelism = par
				m, err := NewMRS(iter.FromSlice(in), sortSchema, target, given, cfg)
				if err != nil {
					t.Fatal(err)
				}
				out, err := drain(m)
				if err != nil {
					t.Fatal(err)
				}
				return result{out, *m.Stats(), d.Stats()}
			}
		}

		for _, op := range []struct {
			name string
			run  func() result
		}{{"mrs", sorter(rows, sortord.New("c1"), par)}, {"srs", sorter(shuffledRows, sortord.Empty, 0)}} {
			adaptiveMinTuples = math.MaxInt
			base := op.run()
			if base.stats.RadixPasses != 0 || base.stats.RadixBucketScans != 0 {
				t.Fatalf("trial %d %s: compare mode counted radix work: %+v", trial, op.name, base.stats)
			}
			for rf, minTuples := range map[string]int{"radix": 0, "adaptive": threshold} {
				adaptiveMinTuples = minTuples
				got := op.run()
				if len(got.out) != len(base.out) {
					t.Fatalf("trial %d %s %v: %d tuples vs %d", trial, op.name, rf, len(got.out), len(base.out))
				}
				for i := range got.out {
					if !reflect.DeepEqual(got.out[i], base.out[i]) {
						t.Fatalf("trial %d %s %v: output diverges at %d: %v vs %v",
							trial, op.name, rf, i, got.out[i], base.out[i])
					}
				}
				if got.stats.RunsGenerated != base.stats.RunsGenerated ||
					got.stats.MergePasses != base.stats.MergePasses ||
					got.stats.Segments != base.stats.Segments ||
					got.stats.SpilledSegs != base.stats.SpilledSegs {
					t.Fatalf("trial %d %s %v: run structure diverges:\n compare %+v\n %v %+v",
						trial, op.name, rf, base.stats, rf, got.stats)
				}
				if got.io != base.io {
					t.Fatalf("trial %d %s %v: IO diverges: %+v vs %+v", trial, op.name, rf, got.io, base.io)
				}
			}
		}
	}
}
