package xsort

import "sort"

// MSD radix run formation. Normalized keys (package keys) made every sort
// comparison a bytes.Compare; this file harvests the rest of what the
// encoding pays for: because key order IS byte order, the entries of a row
// store can be sorted by byte-bucket distribution over their fixed-width key
// prefixes in O(n·width) with no comparisons at all. The sorter operates on
// the same entry-handle permutations the comparison path uses (sortEntries),
// so emission, spilling and merging are untouched — only how the permutation
// is produced changes. Entries whose whole prefix agrees are complete, equal
// keys (arrival order stands) or truncated ones, which a stable comparison
// sort on the key overflows finishes.
//
// The sort is most-significant-digit-first with three standard refinements:
//
//   - stable counting distribution: each pass classifies the bucket's
//     entries by one key byte and redistributes them through a scratch
//     permutation, preserving arrival order within a bucket. Stability is
//     load-bearing, not cosmetic: it makes radix order bit-identical to the
//     sort.SliceStable order of the comparison path, which is what lets the
//     golden tests pin both modes to the same output bytes.
//
//   - insertion-sort cutoff: buckets at or below radixInsertionCutoff
//     entries are finished with a stable insertion sort on key suffixes.
//     Counting 256 buckets to place a handful of entries is wasted motion;
//     the crossover point is far above the cutoff.
//
//   - common-prefix skipping: before distributing, the bucket's shared key
//     prefix is measured and skipped in one scan. An MRS segment's entries
//     already start past the encoded bytes of its shared `given` prefix
//     (keyer.skip, from keys.Codec.PrefixLen), and the scan extends the
//     skip through any further shared bytes — low-cardinality columns
//     produce long shared prefixes that would otherwise each cost a full
//     256-bucket counting pass.
//
// Work is accounted in SortStats alongside Comparisons: RadixPasses counts
// counting-distribution passes, RadixBucketScans the tuples classified by
// them, and the insertion-sort tail still increments Comparisons — so the
// paper's work accounting stays auditable in radix mode, it just has two
// currencies.

const (
	// radixInsertionCutoff is the bucket size at or below which the sort
	// switches to stable insertion on key suffixes. Tuned by
	// BenchmarkRadixInsertionCutoff over realistic key-length
	// distributions: short numeric keys and composite keys are flat from 8
	// through 32, but long text keys with shared prefixes degrade ~18%
	// past 16 — each insertion comparison re-scans the bucket's shared
	// suffix bytes that one cheap counting pass would have skipped once.
	radixInsertionCutoff = 16
	// adaptiveMinKeyBytes is the minimum entry prefix width (the encoded
	// key past any shared-prefix skip, as far as entries carry it) for run
	// formation to pick radix: one- or two-byte keys (a lone bool) partition
	// in so few passes that bytes.Compare is already effectively radix.
	adaptiveMinKeyBytes = 4
)

// adaptiveMinTuples is the buffer size below which run formation keeps the
// comparison sort: tiny buffers are dominated by the per-level bucket
// bookkeeping, not by comparisons. It is a variable only so that tests can
// pin either side (0: radix wherever the keys allow it; MaxInt: always
// compare) — the tests that hold radix to the comparison order and the golden
// comparison counts do; nothing else writes it.
var adaptiveMinTuples = 128

// sortTally is the work done by one run-formation sort, tallied locally so
// parallel segment sorts and spill jobs can publish once into SortStats in
// deterministic order (the same single-writer discipline sortEntries'
// comparison count already followed).
type sortTally struct {
	comparisons      int64
	radixPasses      int64
	radixBucketScans int64
}

func (t sortTally) addTo(st *SortStats) {
	st.Comparisons += t.comparisons
	st.RadixPasses += t.radixPasses
	st.RadixBucketScans += t.radixBucketScans
}

// radixEligible decides whether a store of n entries is sorted by byte
// buckets or by comparisons, from what it can observe: the buffer size and
// the key width.
func radixEligible(n int, ky *keyer) bool {
	return n >= adaptiveMinTuples && ky.width >= adaptiveMinKeyBytes
}

// formOrder produces st's emission permutation — by radix or by comparison,
// as radixEligible decides. Both branches yield the identical stable order;
// they differ only in how the work is spent (and therefore tallied).
func formOrder(st *rowStore, ky *keyer) ([]uint32, sortTally) {
	if radixEligible(st.len(), ky) {
		return radixSortEntries(st, ky)
	}
	order, comparisons := sortEntries(st, ky)
	return order, sortTally{comparisons: comparisons}
}

// radixSortEntries stable-sorts st's entries by prefix bytes (and full keys
// where truncated prefixes tie), returning the emission permutation and the
// work tally.
func radixSortEntries(st *rowStore, ky *keyer) ([]uint32, sortTally) {
	return radixSortEntriesCutoff(st, ky, radixInsertionCutoff)
}

// radixSortEntriesCutoff is radixSortEntries with an explicit insertion-sort
// cutoff; BenchmarkRadixInsertionCutoff sweeps it to keep the constant
// honest against real key-length distributions.
func radixSortEntriesCutoff(st *rowStore, ky *keyer, cutoff int) ([]uint32, sortTally) {
	r := radixSorter{st: st, ky: ky, cutoff: cutoff}
	r.order = st.handles(make([]uint32, 0, st.appended))
	if len(r.order) > 1 {
		buf := permScratch.get(len(r.order))
		r.scratch = *buf
		r.sort(0, len(r.order), 0)
		permScratch.put(buf)
	}
	return r.order, r.tally
}

type radixSorter struct {
	st             *rowStore
	ky             *keyer
	order, scratch []uint32
	cutoff         int
	tally          sortTally
}

// sort orders order[lo:hi] — whose prefixes all agree on bytes [0, depth) —
// by distributing on the byte at depth and recursing into each bucket.
func (r *radixSorter) sort(lo, hi, depth int) {
	n := hi - lo
	if n <= 1 {
		return
	}
	if n <= r.cutoff {
		r.insertion(r.order[lo:hi], depth)
		return
	}
	depth += r.commonPrefixLen(r.order[lo:hi], depth)
	if depth == r.ky.width {
		// The whole prefix agrees. Complete keys are then equal and already
		// in arrival order; truncated ones still differ past the prefix.
		if r.st.entry(r.order[lo])[depth]&flagTrunc != 0 {
			r.byOverflow(r.order[lo:hi])
		}
		return
	}

	// Classify by the byte at depth. (Prefixes are fixed-width and
	// zero-padded, so — unlike variable-length keys — none is exhausted
	// before the width.)
	var counts [256]int
	r.tally.radixPasses++
	r.tally.radixBucketScans += int64(n)
	for _, h := range r.order[lo:hi] {
		counts[r.st.entry(h)[depth]]++
	}
	var next [256]int
	sum := 0
	for b := range counts {
		next[b] = sum
		sum += counts[b]
	}
	for _, h := range r.order[lo:hi] {
		b := r.st.entry(h)[depth]
		r.scratch[lo+next[b]] = h
		next[b]++
	}
	copy(r.order[lo:hi], r.scratch[lo:hi])

	start := lo
	for b := range counts {
		if counts[b] > 1 {
			r.sort(start, start+counts[b], depth+1)
		}
		start += counts[b]
	}
}

// commonPrefixLen returns how many prefix bytes past depth every entry in
// ord shares, in a single scan against the first entry.
func (r *radixSorter) commonPrefixLen(ord []uint32, depth int) int {
	first := r.st.entry(ord[0])
	max := r.ky.width - depth
	for i := 1; i < len(ord) && max > 0; i++ {
		e := r.st.entry(ord[i])
		j := 0
		for j < max && e[depth+j] == first[depth+j] {
			j++
		}
		max = j
	}
	return max
}

// insertion stable-sorts a small bucket, counting its comparisons into the
// tally: the radix mode's residual comparison work is real and stays on the
// books.
func (r *radixSorter) insertion(ord []uint32, depth int) {
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0; j-- {
			r.tally.comparisons++
			if r.ky.compareEntries(r.st, r.st.entry(ord[j]), r.st.entry(ord[j-1]), depth) >= 0 {
				break
			}
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
}

// byOverflow stable-sorts a bucket of truncated entries whose prefixes tie.
func (r *radixSorter) byOverflow(ord []uint32) {
	sort.SliceStable(ord, func(i, j int) bool {
		r.tally.comparisons++
		return r.ky.compareEntries(r.st, r.st.entry(ord[i]), r.st.entry(ord[j]), r.ky.width) < 0
	})
}
