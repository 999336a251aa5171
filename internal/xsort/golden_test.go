package xsort

import (
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
const (
	goldenChecksum = 0x5cfb849c70b9843d

	goldenMRSComparisons = 91735
	goldenMRSRuns        = 81
	goldenMRSPasses      = 3
	goldenMRSRunsMerged  = 72   // per segment: 24 of 27
	goldenMRSIOTotal     = 1524 // 762 reads + 762 writes, all run-attributed

	goldenSRSComparisons = 95765
	goldenSRSRuns        = 108
	goldenSRSPasses      = 4
	goldenSRSRunsMerged  = 158  // 108 + 36 + 12 + 2 of 4
	goldenSRSIOTotal     = 3750 // 1875 reads + 1875 writes, all run-attributed
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

// TestGoldenSerialSpill pins the Parallelism=1 spill path — for both MRS
// (3 oversized segments) and SRS (shuffled input, tiny memory) — to the
// values the pre-refactor serial implementation produced. Run formation is
// pinned to the comparison sort: the golden comparison counts are
// comparison-path numbers (radix mode spends its work in RadixPasses
// instead; TestGoldenRadixAgrees holds it to the same output and
// structure).
func TestGoldenSerialSpill(t *testing.T) {
	t.Run("mrs", func(t *testing.T) {
		d := storage.NewDisk(512)
		m, err := NewMRS(iter.FromSlice(goldenRows()), sortSchema,
			sortord.New("c1", "c2"), sortord.New("c1"),
			Config{Disk: d, MemoryBlocks: 8, Parallelism: 1, RunFormation: RunFormCompare, EntryLayout: LayoutTuple})
		if err != nil {
			t.Fatal(err)
		}
		out, err := iter.Drain(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := orderChecksum(out); got != goldenChecksum {
			t.Errorf("output checksum = %#x, golden %#x", got, goldenChecksum)
		}
		st := m.Stats()
		if st.Comparisons != goldenMRSComparisons {
			t.Errorf("Comparisons = %d, golden %d", st.Comparisons, goldenMRSComparisons)
		}
		if st.RunsGenerated != goldenMRSRuns || st.MergePasses != goldenMRSPasses || st.RunsMerged != goldenMRSRunsMerged {
			t.Errorf("runs/passes/merged = %d/%d/%d, golden %d/%d/%d",
				st.RunsGenerated, st.MergePasses, st.RunsMerged, goldenMRSRuns, goldenMRSPasses, goldenMRSRunsMerged)
		}
		if st.SpillRunsSerial != goldenMRSRuns || st.SpillRunsParallel != 0 {
			t.Errorf("spill regime = serial %d / parallel %d, want all %d serial",
				st.SpillRunsSerial, st.SpillRunsParallel, goldenMRSRuns)
		}
		io := d.Stats()
		if io.Total() != goldenMRSIOTotal || io.RunTotal() != goldenMRSIOTotal {
			t.Errorf("IO total/run = %d/%d, golden %d (all run-attributed)",
				io.Total(), io.RunTotal(), goldenMRSIOTotal)
		}
	})

	t.Run("srs", func(t *testing.T) {
		d := storage.NewDisk(512)
		s, err := NewSRS(iter.FromSlice(goldenShuffled()), sortSchema,
			sortord.New("c1", "c2"),
			Config{Disk: d, MemoryBlocks: 4, Parallelism: 1, RunFormation: RunFormCompare, EntryLayout: LayoutTuple})
		if err != nil {
			t.Fatal(err)
		}
		out, err := iter.Drain(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := orderChecksum(out); got != goldenChecksum {
			t.Errorf("output checksum = %#x, golden %#x", got, goldenChecksum)
		}
		st := s.Stats()
		if st.Comparisons != goldenSRSComparisons {
			t.Errorf("Comparisons = %d, golden %d", st.Comparisons, goldenSRSComparisons)
		}
		if st.RunsGenerated != goldenSRSRuns || st.MergePasses != goldenSRSPasses || st.RunsMerged != goldenSRSRunsMerged {
			t.Errorf("runs/passes/merged = %d/%d/%d, golden %d/%d/%d",
				st.RunsGenerated, st.MergePasses, st.RunsMerged, goldenSRSRuns, goldenSRSPasses, goldenSRSRunsMerged)
		}
		io := d.Stats()
		if io.Total() != goldenSRSIOTotal || io.RunTotal() != goldenSRSIOTotal {
			t.Errorf("IO total/run = %d/%d, golden %d (all run-attributed)",
				io.Total(), io.RunTotal(), goldenSRSIOTotal)
		}
	})
}

// TestGoldenParallelSpillAgrees runs the identical workloads at several
// parallelism levels and demands the exact golden output order, comparison
// counts and I/O totals — parallel spilling must be a pure scheduling
// change (the PR's acceptance criterion).
func TestGoldenParallelSpillAgrees(t *testing.T) {
	for _, par := range []int{2, 4, 8} {
		d := storage.NewDisk(512)
		m, err := NewMRS(iter.FromSlice(goldenRows()), sortSchema,
			sortord.New("c1", "c2"), sortord.New("c1"),
			Config{Disk: d, MemoryBlocks: 8, Parallelism: par, RunFormation: RunFormCompare, EntryLayout: LayoutTuple})
		if err != nil {
			t.Fatal(err)
		}
		out, err := iter.Drain(m)
		if err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if got := orderChecksum(out); got != goldenChecksum {
			t.Errorf("par=%d: MRS checksum = %#x, golden %#x", par, got, goldenChecksum)
		}
		if st.Comparisons != goldenMRSComparisons {
			t.Errorf("par=%d: MRS Comparisons = %d, golden %d", par, st.Comparisons, goldenMRSComparisons)
		}
		if st.SpillRunsParallel != goldenMRSRuns || st.SpillRunsSerial != 0 {
			t.Errorf("par=%d: spill regime = serial %d / parallel %d, want all %d parallel",
				par, st.SpillRunsSerial, st.SpillRunsParallel, goldenMRSRuns)
		}
		if io := d.Stats(); io.Total() != goldenMRSIOTotal {
			t.Errorf("par=%d: MRS IO total = %d, golden %d", par, io.Total(), goldenMRSIOTotal)
		}
		if names := d.FileNames(); len(names) != 0 {
			t.Errorf("par=%d: leaked files %v", par, names)
		}

		d2 := storage.NewDisk(512)
		s, err := NewSRS(iter.FromSlice(goldenShuffled()), sortSchema,
			sortord.New("c1", "c2"),
			Config{Disk: d2, MemoryBlocks: 4, SpillParallelism: par, RunFormation: RunFormCompare, EntryLayout: LayoutTuple})
		if err != nil {
			t.Fatal(err)
		}
		out, err = iter.Drain(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := orderChecksum(out); got != goldenChecksum {
			t.Errorf("par=%d: SRS checksum = %#x, golden %#x", par, got, goldenChecksum)
		}
		if s.Stats().Comparisons != goldenSRSComparisons {
			t.Errorf("par=%d: SRS Comparisons = %d, golden %d", par, s.Stats().Comparisons, goldenSRSComparisons)
		}
		if io := d2.Stats(); io.Total() != goldenSRSIOTotal {
			t.Errorf("par=%d: SRS IO total = %d, golden %d", par, io.Total(), goldenSRSIOTotal)
		}
	}
}

// TestGoldenRadixAgrees holds radix (and adaptive) run formation to the
// golden output order, run/pass structure and I/O totals at every
// parallelism level: switching the run-formation algorithm is a pure
// work-accounting change, never a semantic one. Comparison counts are the
// one golden deliberately NOT asserted — radix spends that work in
// byte-bucket passes (RadixPasses/RadixBucketScans) instead.
func TestGoldenRadixAgrees(t *testing.T) {
	for _, rf := range []RunFormation{RunFormRadix, RunFormAdaptive} {
		for _, par := range []int{1, 2, 4, 8} {
			d := storage.NewDisk(512)
			m, err := NewMRS(iter.FromSlice(goldenRows()), sortSchema,
				sortord.New("c1", "c2"), sortord.New("c1"),
				Config{Disk: d, MemoryBlocks: 8, Parallelism: par, RunFormation: rf, EntryLayout: LayoutTuple})
			if err != nil {
				t.Fatal(err)
			}
			out, err := iter.Drain(m)
			if err != nil {
				t.Fatal(err)
			}
			st := m.Stats()
			if got := orderChecksum(out); got != goldenChecksum {
				t.Errorf("%v par=%d: MRS checksum = %#x, golden %#x", rf, par, got, goldenChecksum)
			}
			if st.RunsGenerated != goldenMRSRuns || st.MergePasses != goldenMRSPasses {
				t.Errorf("%v par=%d: MRS runs/passes = %d/%d, golden %d/%d",
					rf, par, st.RunsGenerated, st.MergePasses, goldenMRSRuns, goldenMRSPasses)
			}
			if rf == RunFormRadix && st.RadixPasses == 0 {
				t.Errorf("par=%d: forced radix MRS recorded no radix passes: %+v", par, st)
			}
			if io := d.Stats(); io.Total() != goldenMRSIOTotal {
				t.Errorf("%v par=%d: MRS IO total = %d, golden %d", rf, par, io.Total(), goldenMRSIOTotal)
			}
			if names := d.FileNames(); len(names) != 0 {
				t.Errorf("%v par=%d: leaked files %v", rf, par, names)
			}

			d2 := storage.NewDisk(512)
			s, err := NewSRS(iter.FromSlice(goldenShuffled()), sortSchema,
				sortord.New("c1", "c2"),
				Config{Disk: d2, MemoryBlocks: 4, SpillParallelism: par, RunFormation: rf, EntryLayout: LayoutTuple})
			if err != nil {
				t.Fatal(err)
			}
			out, err = iter.Drain(s)
			if err != nil {
				t.Fatal(err)
			}
			st = s.Stats()
			if got := orderChecksum(out); got != goldenChecksum {
				t.Errorf("%v par=%d: SRS checksum = %#x, golden %#x", rf, par, got, goldenChecksum)
			}
			if st.RunsGenerated != goldenSRSRuns || st.MergePasses != goldenSRSPasses {
				t.Errorf("%v par=%d: SRS runs/passes = %d/%d, golden %d/%d",
					rf, par, st.RunsGenerated, st.MergePasses, goldenSRSRuns, goldenSRSPasses)
			}
			if io := d2.Stats(); io.Total() != goldenSRSIOTotal {
				t.Errorf("%v par=%d: SRS IO total = %d, golden %d", rf, par, io.Total(), goldenSRSIOTotal)
			}
		}
	}
}
