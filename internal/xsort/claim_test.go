package xsort

import (
	"fmt"
	"testing"

	"pyro/internal/sortord"
	"pyro/internal/types"
)

// TestClaimA3DegradesToSRS is the paper's claim A3 (§6, Fig 9) on the
// deterministic counters: MRS's advantage holds while segments fit memory and
// degrades gracefully once they do not. A segment of 2× to 20× M's worth of
// rows (M ∈ {4, 8, 16} blocks of 512-byte pages, 16 rows a page) is sorted
// twice: by MRS given c1, its value in the segment, and by SRS — the same
// operator with nothing given — over the same rows. The oversized segment is
// replacement selection over that segment, so it may move no more run pages
// than SRS does, but for the last partial page of each run file it writes
// (two pages a file, written and read). While a partial sort wrote one run per
// memory batch this failed at 20× M = 16 blocks, the shape of pyro-perf's
// mrs_bigseg: 1 014 run pages in 30 runs against SRS's 830. Segments that
// fit move no run page at all.
func TestClaimA3DegradesToSRS(t *testing.T) {
	target := sortord.New("c1", "c2")
	segment := func(i int) types.Tuple {
		t := threeInts.row(i)
		t[0] = types.NewInt(0)
		return t
	}
	mrs := spillCase{name: "mrs", spec: Spec{Schema: threeInts.schema, Target: target, Given: sortord.New("c1")}, row: segment}
	srs := spillCase{name: "srs", spec: Spec{Schema: threeInts.schema, Target: target}, row: segment}
	for _, blocks := range []int{4, 8, 16} {
		for _, mult := range []int{2, 5, 10, 20} {
			t.Run(fmt.Sprintf("M%d/%dxM", blocks, mult), func(t *testing.T) {
				rows := mult * blocks * 16
				st, mio := sortActual(t, mrs, rows, 0, blocks)
				_, sio := sortActual(t, srs, rows, 0, blocks)
				files := int64(st.RunsGenerated + st.MergePasses + st.RunsMerged)
				moved, full := mio.RunPageWrites+mio.RunPageReads, sio.RunPageWrites+sio.RunPageReads
				t.Logf("MRS %d run pages in %d runs, %d merged; SRS %d", moved, st.RunsGenerated, st.RunsMerged, full)
				if moved > full+2*files {
					t.Errorf("MRS moves %d run pages, SRS %d: more than %d for the runs' last pages", moved, full, 2*files)
				}
			})
		}
		t.Run(fmt.Sprintf("M%d/fits", blocks), func(t *testing.T) {
			// Twenty segments of a memory load each.
			per := int(memoryLoad(mrs.spec.footprint(0, true), blocks, spillPage))
			segments := spillCase{name: "fits", spec: mrs.spec, row: func(i int) types.Tuple {
				t := threeInts.row(i)
				t[0] = types.NewInt(int64(i / per))
				return t
			}}
			st, io := sortActual(t, segments, 20*per, 0, blocks)
			if st.Segments != 20 || io.RunPageWrites+io.RunPageReads != 0 {
				t.Errorf("%d segments of a memory load moved %d run pages", st.Segments, io.RunPageWrites+io.RunPageReads)
			}
		})
	}
}
