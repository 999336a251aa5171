package xsort

import (
	"fmt"
	"math/rand"
	"testing"

	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// Realistic key-length distributions for the insertion-cutoff sweep. Each
// builder returns the rows of one distribution and the order to sort them
// under; the benchmark buffers them in a row store, so the radix sorter sees
// the entries — fixed-width key prefixes — the codec and the store really
// produce.
//
//   - int64: a lone numeric ORDER BY column — 9 prefix bytes (marker +
//     big-endian payload), uniform values, so buckets fan out fast and the
//     tail buckets are tiny.
//   - composite: (low-cardinality int64, int64, short string) — the
//     grouped shapes MRS segments see. The leading column leaves ~500-row
//     buckets sharing a 9-byte prefix, so recursion spends most of its
//     time in mid-size buckets where the cutoff choice actually matters.
//   - strings: path-like variable-length text, 12–40 bytes with a handful
//     of long shared prefixes — every entry is truncated at the 9-byte
//     prefix, so the sort is decided by the full-key tie-break.
var cutoffDistributions = []struct {
	name  string
	order sortord.Order
	build func(r *rand.Rand, n int) []types.Tuple
}{
	{"int64", sortord.New("c2"), func(r *rand.Rand, n int) []types.Tuple {
		rows := make([]types.Tuple, n)
		for i := range rows {
			rows[i] = types.NewTuple(types.NewInt(int64(i)), types.NewInt(int64(r.Uint64())), types.NewString(""))
		}
		return rows
	}},
	{"composite", sortord.New("c1", "c2", "c3"), func(r *rand.Rand, n int) []types.Tuple {
		rows := make([]types.Tuple, n)
		for i := range rows {
			rows[i] = types.NewTuple(types.NewInt(int64(r.Intn(100))), types.NewInt(int64(r.Uint64())),
				types.NewString(fmt.Sprintf("tag-%03d", r.Intn(1000))))
		}
		return rows
	}},
	{"strings", sortord.New("c3"), func(r *rand.Rand, n int) []types.Tuple {
		prefixes := []string{"/var/log/pyro/", "/var/lib/pyro/runs/", "/home/u/", "pyro://seg/"}
		rows := make([]types.Tuple, n)
		for i := range rows {
			k := []byte(prefixes[r.Intn(len(prefixes))])
			for j := 4 + r.Intn(24); j > 0; j-- {
				k = append(k, byte('a'+r.Intn(26)))
			}
			rows[i] = types.NewTuple(types.NewInt(int64(i)), types.NewInt(0), types.NewString(string(k)))
		}
		return rows
	}},
}

// BenchmarkRadixInsertionCutoff sweeps the insertion-sort cutoff across
// the three key-length distributions above. This is the measurement
// behind radixInsertionCutoff = 16: on 50k-key buffers the int64 and
// composite distributions are flat within noise from 8 through 32. Re-run
// the sweep before moving the constant.
func BenchmarkRadixInsertionCutoff(b *testing.B) {
	const n = 50_000
	for _, dist := range cutoffDistributions {
		st, ky := fillStore(b, storage.NewDisk(0), dist.order, 0, dist.build(rand.New(rand.NewSource(41)), n))
		for _, cutoff := range []int{8, 16, 24, 32, 48, 64} {
			b.Run(fmt.Sprintf("%s/cutoff%d", dist.name, cutoff), func(b *testing.B) {
				b.ReportAllocs()
				var t sortTally
				for i := 0; i < b.N; i++ {
					_, t = radixSortEntriesCutoff(st, ky, cutoff)
				}
				b.ReportMetric(float64(t.comparisons), "comparisons/op")
				b.ReportMetric(float64(t.radixPasses), "radix-passes/op")
			})
		}
		st.release()
	}
}
