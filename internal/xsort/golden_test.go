package xsort

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// The golden values below pin the spill subsystem on the fixed workload of
// goldenRows: 6000 rows in 3 oversized segments, 512-byte pages. The output
// checksum (order-sensitive FNV of the encoded tuples) is the one the
// pre-arena serial spill path produced (PR 1, commit c12f98e) and has never
// moved; comparison counts, run/pass structure and I/O totals are what the
// paper's serial algorithm does with this memory. Any change to these numbers
// is a semantic change to the sort, not a scheduling change, and must be
// deliberate.
//
// One such change: the MRS comparison and I/O constants were re-captured at
// PR 13 (minimal merge schedule; parent commit 1212b7f had 88566 / 2730).
// Each segment's 61 runs reduce at fan-in 7 as 61 → 9 → 7 where they used to
// go 61 → 9 → 2: the second pass now merges 3 runs and lets 6 through instead
// of rewriting all 9, which saves 522 page transfers and spends 687 more
// comparisons in the wider final merge. Checksum, runs and passes did not
// move — the schedule decides which runs are rewritten, never what comes out
// — and neither did any SRS constant: 179 runs at fan-in 3 exceed 3² until
// the last pass, and its 7 → 3 step was already minimal (3+3 merged, 1
// through). The RunsMerged constants pin the schedule itself.
//
// Every structural constant was re-captured at PR 22, when sort memory became
// what it says: buffered rows live encoded in page-sized blocks and the
// budget counts those blocks, where it used to count Tuple.MemSize — 127
// bytes for a 34-byte row here — against heap it did not measure. The same M
// now holds more than twice the rows, so the same input forms fewer, longer
// runs and needs fewer passes (old → new):
//
//	MRS  runs 183 → 81   passes 6 → 3   merged 192 → 72    I/O 2208 → 1524   comparisons 89253 → 91735
//	SRS  runs 179 → 108  passes 4 → 4   merged 265 → 158   I/O 4178 → 3750   comparisons 98977 → 95765
//
// MRS: 8 blocks of 512 bytes are 5 row blocks (15 rows each) and 3 entry
// blocks, 75 rows a batch instead of 33, so each 2000-row segment forms 27
// runs, reduced 27 → 7 in one partial pass (24 merged, 3 through). SRS: 4
// blocks are 2 row blocks and 2 entry blocks, a 28-row fill (replacement
// selection rounds its recyclable row slots up to 4 bytes) instead of 16.
// The checksum did not move: what comes out is decided by the keys alone.
//
// One constant moved when runs became payload pages merged by one stable
// merge: MRS comparisons 91735 → 91739. The merge breaks full-key ties by run
// ordinal, which on this workload sends four sifts one level further in the
// segment merges; checksum, runs, passes, merged runs and I/O held, and no SRS
// constant moved (its shuffled input has no tie that meets in a merge).
//
// One more moved when SRS became the sort with nothing given (one operator,
// NewMRS over ε): SRS comparisons 95765 → 95862. The 28-row fill is now
// ordered by the stable comparison sort and seeds the heap as a sorted array,
// where it used to be pushed row by row into a heap built in input order: the
// sort spends more comparisons than the pushes did, and the seeded heap sifts
// differently from then on. The pop sequence — the keys in ascending order —
// is the same, so checksum, runs, passes, merged runs and I/O held.
//
// The MRS structure was re-captured when a partial sort's oversized segments
// came to form their runs by replacement selection — in a store that pads
// its row slots and numbers its rows, so that its heap breaks full-key ties
// by arrival — and when the run heap came to pop bottom-up (Floyd) and, with
// the merge, to compare 8-byte key heads first:
//
//	MRS  runs 81 → 46   passes 3 → 3   merged 72 → 31   I/O 1524 → 1420   comparisons 91739 → 86961
//	SRS  runs 108       passes 4       merged 158       I/O 3750          comparisons 95862 → 87995
//
// MRS: 8 blocks of 512 bytes now hold 70 rows — 5 row blocks of 14 rows in
// 36-byte slots (34 bytes padded to the 4-byte granule) and 3 entry blocks
// of 18-byte entries — where they held 75 in batches, but replacement
// selection's runs are about two of those loads, so each 2000-row segment
// forms 16, 15 and 15 runs instead of 27, and its one partial pass at fan-in
// 7 merges 11, 10 and 10 of them instead of 24. A segment's heap rows are all
// written: beside 15 runs no block is left for a kept tail. Comparisons fell
// for both: a bottom-up pop
// spends one comparison a level on the way down and few on the way back up,
// where a sift-down spent two a level. SRS (nothing given) keeps its store's
// bytes and its runs. The checksum did not move.
//
// Every constant moved when rows became narrower: the column count and a
// string's length are uvarints, so a golden row is 28 bytes where it was 34
// (old → new):
//
//	checksum 0x5cfb849c70b9843d → 0xa24bc1e0f7011d8d
//	MRS  runs 46 → 39    passes 3   merged 31 → 21    I/O 1420 → 1098   comparisons 86961 → 87677
//	SRS  runs 108 → 84   passes 4   merged 158 → 122  I/O 3750 → 3184   comparisons 87995 → 91375
//
// The checksum hashes the encoded rows, so it moves with their bytes; the
// rows come out in the same order (their rendered text hashes the same at
// both commits). MRS: 8 blocks now hold 84 rows — 5 row blocks of 18
// 28-byte slots and 3 entry blocks of 18-byte entries — where they held 70,
// so each 2000-row segment forms 13 runs instead of 15 or 16, and its one
// partial pass at fan-in 7 merges 7 of them. SRS: a fill is 36 rows (2 row
// blocks of 18, 2 entry blocks) instead of 28. Comparisons rose where a
// larger heap is deeper: a pop sifts through one more level.
const (
	goldenChecksum uint64 = 0xa24bc1e0f7011d8d

	goldenMRSComparisons = 87677
	goldenMRSRuns        = 39
	goldenMRSPasses      = 3
	goldenMRSRunsMerged  = 21   // per segment: 7 of 13
	goldenMRSIOTotal     = 1098 // 549 reads + 549 writes, all run-attributed

	goldenSRSComparisons = 91375
	goldenSRSRuns        = 84
	goldenSRSPasses      = 4
	goldenSRSRunsMerged  = 122  // over 4 passes at fan-in 3
	goldenSRSIOTotal     = 3184 // 1592 reads + 1592 writes, all run-attributed
)

func goldenRows() []types.Tuple {
	return genRows(6000, 3, rand.New(rand.NewSource(77)))
}

func goldenShuffled() []types.Tuple {
	return shuffled(goldenRows(), rand.New(rand.NewSource(78)))
}

// orderChecksum hashes the encoded tuples in sequence, so two equal
// checksums mean identical output order, not just an equal multiset.
func orderChecksum(rows []types.Tuple) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, r := range rows {
		buf = r.Encode(buf[:0])
		h.Write(buf)
	}
	return h.Sum64()
}

// goldenWant is what one operator's sort of the golden workload is held to.
type goldenWant struct {
	comparisons          int64
	runs, passes, merged int
	io                   int64
}

var (
	goldenMRS = goldenWant{goldenMRSComparisons, goldenMRSRuns, goldenMRSPasses, goldenMRSRunsMerged, goldenMRSIOTotal}
	goldenSRS = goldenWant{goldenSRSComparisons, goldenSRSRuns, goldenSRSPasses, goldenSRSRunsMerged, goldenSRSIOTotal}
)

// sortGolden runs the golden workload as MRS (given c1: 3 oversized segments,
// 8 blocks) or SRS (nothing given: shuffled input, 4 blocks) at parallelism
// par and checks everything that must hold however run formation sorted its
// buffers: the output checksum, the run/pass/merge structure, I/O that is all
// run I/O and all payload pages, every run formed on the consumer goroutine,
// and no file left behind. The comparison count is a comparison-path number
// and is checked only when comparisons is set (a sort that radix-partitions
// spends that work in RadixPasses instead).
func sortGolden(t *testing.T, mrs bool, par int, comparisons bool) *SortStats {
	t.Helper()
	d := storage.NewDisk(512)
	want, rows, given, blocks := goldenSRS, goldenShuffled(), sortord.Empty, 4
	if mrs {
		want, rows, given, blocks = goldenMRS, goldenRows(), sortord.New("c1"), 8
	}
	op, err := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), given,
		Config{Disk: d, MemoryBlocks: blocks, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	out, err := drain(op)
	if err != nil {
		t.Fatal(err)
	}
	st := op.Stats()
	if got := orderChecksum(out); got != goldenChecksum {
		t.Errorf("output checksum = %#x, golden %#x", got, goldenChecksum)
	}
	if comparisons && st.Comparisons != want.comparisons {
		t.Errorf("Comparisons = %d, golden %d", st.Comparisons, want.comparisons)
	}
	if st.RunsGenerated != want.runs || st.MergePasses != want.passes || st.RunsMerged != want.merged {
		t.Errorf("runs/passes/merged = %d/%d/%d, golden %d/%d/%d",
			st.RunsGenerated, st.MergePasses, st.RunsMerged, want.runs, want.passes, want.merged)
	}
	if st.SpillRunsSerial != st.RunsGenerated || st.SpillRunsParallel != 0 {
		t.Errorf("spill runs serial/parallel = %d/%d, want all %d serial", st.SpillRunsSerial, st.SpillRunsParallel, st.RunsGenerated)
	}
	if st.FlatRunPages != 0 || st.MergeBucketSkips != 0 {
		t.Errorf("FlatRunPages/MergeBucketSkips = %d/%d: runs are payload pages only", st.FlatRunPages, st.MergeBucketSkips)
	}
	if io := d.Stats(); io.Total() != want.io || io.RunTotal() != want.io {
		t.Errorf("IO total/run = %d/%d, golden %d (all run-attributed)", io.Total(), io.RunTotal(), want.io)
	}
	for _, name := range d.FileNames() {
		t.Errorf("run file %q leaked after Close", name)
	}
	return st
}

// TestGoldenSerialSpill pins the Parallelism=1 spill path — for both MRS
// (3 oversized segments) and SRS (shuffled input, tiny memory) — to the
// values the serial implementation produces. Run formation is pinned to the
// comparison sort: the golden comparison counts are comparison-path numbers
// (TestGoldenRadixAgrees holds radix to the same output and structure).
func TestGoldenSerialSpill(t *testing.T) {
	pinFormation(t, false)
	t.Run("mrs", func(t *testing.T) { sortGolden(t, true, 1, true) })
	t.Run("srs", func(t *testing.T) { sortGolden(t, false, 1, true) })
}

// TestGoldenParallelSpillAgrees runs both workloads with the segment pool on
// and demands the exact golden output order, comparison counts and I/O
// totals: spilled segments form and merge their runs on the consumer
// goroutine at every parallelism.
func TestGoldenParallelSpillAgrees(t *testing.T) {
	pinFormation(t, false)
	for _, par := range []int{2, 4, 8} {
		sortGolden(t, true, par, true)
		sortGolden(t, false, par, true)
	}
}

// TestGoldenRadixAgrees holds radix run formation — forced, and as the sort
// picks it by itself — to the golden output order, run/pass structure and I/O
// totals at every parallelism level: how a buffer is sorted is a pure
// work-accounting change, never a semantic one. Comparison counts are the
// one golden deliberately NOT asserted — radix spends that work in
// byte-bucket passes (RadixPasses/RadixBucketScans) instead.
func TestGoldenRadixAgrees(t *testing.T) {
	for _, forced := range []bool{true, false} {
		t.Run(fmt.Sprintf("forced=%v", forced), func(t *testing.T) {
			if forced {
				pinFormation(t, true)
			}
			for _, par := range []int{1, 2, 4, 8} {
				if st := sortGolden(t, true, par, false); forced && st.RadixPasses == 0 {
					t.Errorf("par=%d: forced radix MRS recorded no radix passes: %+v", par, st)
				}
				sortGolden(t, false, par, false)
			}
		})
	}
}

// TestGoldenFlatLayout is the golden matrix by operator and parallelism:
// comparison-path counters, structure and I/O independent of Parallelism,
// subtest by subtest (see spillArms for the leaf names).
func TestGoldenFlatLayout(t *testing.T) {
	pinFormation(t, false)
	for _, arm := range spillArms[:2] {
		for _, par := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("mrs-%s-par%d", arm, par), func(t *testing.T) { sortGolden(t, true, par, true) })
			t.Run(fmt.Sprintf("srs-%s-par%d", arm, par), func(t *testing.T) { sortGolden(t, false, par, true) })
		}
	}
}
