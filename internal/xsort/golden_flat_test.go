package xsort

import (
	"fmt"
	"testing"

	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// The flat-layout golden values pin the fixed-width entry path (PR 10) on
// the same workload golden_test.go pins the tuple layout with. The output
// checksum is goldenChecksum — the entry layout must be invisible in the
// output — and runs/passes match the legacy constants, because run
// boundaries are a property of replacement selection / segment batching,
// not of the run file format. What changes is the currency: comparisons
// drop (the radix cascade parks out-of-frontier cursors comparison-free;
// MergeBucketSkips counts the parks), and I/O rises by the entry files
// (FlatRunPages counts their pages — the price of memcpy-able merge keys).
//
// flat-heap is the ablation arm: same entry files, same I/O, same output,
// but a plain comparison heap — its comparison counts isolate what the
// cascade itself saves (28% on MRS, 39% on SRS here). Note SRS flat-heap
// comparisons equal the tuple layout's exactly: the heap does identical
// work on entries as on wrapped tuples. MRS flat-heap is +4 over the tuple
// layout — the flat merge breaks full-key ties by run ordinal, which on
// this workload costs four extra comparisons in segment merges.
//
// The MRS constants were re-captured at PR 13 (minimal merge schedule;
// parent commit 1212b7f had 58385 / 88569 / 13475 / 534 / 3798): each
// segment's second reduction pass merges 3 of its 9 runs instead of all 9
// (see golden_test.go), so 108 entry pages and 738 transfers are no longer
// written and read back, the final merges are 7-way instead of 2-way (a few
// more comparisons), and fewer rewritten entries means fewer parked
// advances. The SRS constants did not move.
//
// All ten were re-captured at PR 22 together with the run/pass structure they
// ride on (golden_test.go has the table and the reason: the budget now counts
// the blocks the encoded rows occupy, so the same M forms 81 runs where it
// formed 183, and 108 where it formed 179). Old → new: MRS comparisons
// 58408 → 66300 (flat-heap 89256 → 91739), skips 10283 → 7326, entry pages
// 426 → 396, I/O 3060 → 2316; SRS comparisons 56141 → 58467 (flat-heap
// 98977 → 95765), skips 21278 → 19911, entry pages 1463 → 1305, I/O
// 7104 → 6360. Fewer runs are merged fewer times — pages and parked advances
// fall — while each merge that remains is wider, which is where the cascade's
// extra comparisons come from.
const (
	flatMRSComparisons     = 66300
	flatHeapMRSComparisons = 91739
	flatMRSSkips           = 7326
	flatMRSPages           = 396
	flatMRSIOTotal         = 2316

	flatSRSComparisons     = 58467
	flatHeapSRSComparisons = 95765
	flatSRSSkips           = 19911
	flatSRSPages           = 1305
	flatSRSIOTotal         = 6360
)

// TestGoldenFlatLayout pins the flat layouts at every parallelism: output
// byte-identical to the tuple layout's golden checksum, identical run/pass
// structure, and counter totals — comparisons, bucket skips, entry pages,
// I/O — independent of Parallelism and SpillParallelism.
func TestGoldenFlatLayout(t *testing.T) {
	type want struct {
		comparisons int64
		skips       int64
		pages       int64
		io          int64
	}
	check := func(t *testing.T, st *SortStats, d *storage.Disk, out []types.Tuple, w want, runs, passes, merged int) {
		t.Helper()
		if got := orderChecksum(out); got != goldenChecksum {
			t.Errorf("output checksum = %#x, golden %#x", got, goldenChecksum)
		}
		if st.Comparisons != w.comparisons {
			t.Errorf("Comparisons = %d, golden %d", st.Comparisons, w.comparisons)
		}
		if st.MergeBucketSkips != w.skips {
			t.Errorf("MergeBucketSkips = %d, golden %d", st.MergeBucketSkips, w.skips)
		}
		if st.FlatRunPages != w.pages {
			t.Errorf("FlatRunPages = %d, golden %d", st.FlatRunPages, w.pages)
		}
		if st.RunsGenerated != runs || st.MergePasses != passes || st.RunsMerged != merged {
			t.Errorf("runs/passes/merged = %d/%d/%d, golden %d/%d/%d",
				st.RunsGenerated, st.MergePasses, st.RunsMerged, runs, passes, merged)
		}
		io := d.Stats()
		if io.Total() != w.io || io.RunTotal() != w.io {
			t.Errorf("IO total/run = %d/%d, golden %d (all run-attributed)", io.Total(), io.RunTotal(), w.io)
		}
		for _, name := range d.FileNames() {
			t.Errorf("run file %q leaked after Close", name)
		}
	}

	cases := []struct {
		lay      EntryLayout
		mrs, srs want
	}{
		{LayoutFlat,
			want{flatMRSComparisons, flatMRSSkips, flatMRSPages, flatMRSIOTotal},
			want{flatSRSComparisons, flatSRSSkips, flatSRSPages, flatSRSIOTotal}},
		{LayoutFlatHeap,
			want{flatHeapMRSComparisons, 0, flatMRSPages, flatMRSIOTotal},
			want{flatHeapSRSComparisons, 0, flatSRSPages, flatSRSIOTotal}},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("mrs-%s-par%d", tc.lay, par), func(t *testing.T) {
				d := storage.NewDisk(512)
				m, err := NewMRS(iter.FromSlice(goldenRows()), sortSchema,
					sortord.New("c1", "c2"), sortord.New("c1"),
					Config{Disk: d, MemoryBlocks: 8, Parallelism: par, RunFormation: RunFormCompare, EntryLayout: tc.lay})
				if err != nil {
					t.Fatal(err)
				}
				out, err := iter.Drain(m)
				if err != nil {
					t.Fatal(err)
				}
				check(t, m.Stats(), d, out, tc.mrs, goldenMRSRuns, goldenMRSPasses, goldenMRSRunsMerged)
			})
			t.Run(fmt.Sprintf("srs-%s-par%d", tc.lay, par), func(t *testing.T) {
				d := storage.NewDisk(512)
				s, err := NewSRS(iter.FromSlice(goldenShuffled()), sortSchema,
					sortord.New("c1", "c2"),
					Config{Disk: d, MemoryBlocks: 4, SpillParallelism: par, RunFormation: RunFormCompare, EntryLayout: tc.lay})
				if err != nil {
					t.Fatal(err)
				}
				out, err := iter.Drain(s)
				if err != nil {
					t.Fatal(err)
				}
				check(t, s.Stats(), d, out, tc.srs, goldenSRSRuns, goldenSRSPasses, goldenSRSRunsMerged)
			})
		}
	}
}
