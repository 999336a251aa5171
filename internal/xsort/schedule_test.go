package xsort

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// TestReductionPassProperties walks the reduction loop over every fan-in
// 2..17 and run count 1..400 and checks each planned pass: groups are
// consecutive from run 0, disjoint and 2..F wide; the pass shrinks the run
// list; once n ≤ F² a single pass rewrites exactly k0 + (m−1)F runs and
// leaves exactly F; and the loop ends with at most F runs after as many
// passes as merging everything F at a time would have taken — the schedule
// moves less data, never adds a pass.
func TestReductionPassProperties(t *testing.T) {
	for fanIn := 2; fanIn <= 17; fanIn++ {
		for n := 1; n <= 400; n++ {
			wantPasses := 0
			for c := n; c > fanIn; c = (c + fanIn - 1) / fanIn {
				wantPasses++
			}
			count, passes := n, 0
			for count > fanIn {
				at := fmt.Sprintf("F=%d n=%d pass %d over %d runs", fanIn, n, passes+1, count)
				groups := reductionPass(count, fanIn)
				if len(groups) == 0 {
					t.Fatalf("%s: nothing planned", at)
				}
				merged, lo := 0, 0
				for _, g := range groups {
					if g.lo != lo || g.hi > count {
						t.Fatalf("%s: groups %v are not consecutive from run 0 within the run list", at, groups)
					}
					if w := g.hi - g.lo; w < 2 || w > fanIn {
						t.Fatalf("%s: group %v is %d wide, want 2..%d", at, g, w, fanIn)
					}
					merged += g.hi - g.lo
					lo = g.hi
				}
				next := len(groups) + count - lo
				if next >= count {
					t.Fatalf("%s: pass leaves %d runs", at, next)
				}
				if count <= fanIn*fanIn {
					m := (count - fanIn + fanIn - 2) / (fanIn - 1)
					k0 := (count - fanIn) - (m-1)*(fanIn-1) + 1
					if merged != k0+(m-1)*fanIn || next != fanIn {
						t.Fatalf("%s: rewrote %d runs leaving %d, want %d leaving exactly %d",
							at, merged, next, k0+(m-1)*fanIn, fanIn)
					}
				}
				count = next
				passes++
			}
			if passes != wantPasses {
				t.Fatalf("F=%d n=%d: %d passes, merging everything takes %d", fanIn, n, passes, wantPasses)
			}
		}
	}
}

// fixedBudget pins a sort's live memory allowance, so MemoryBlocks varies
// the merge fan-in alone: run formation — batch boundaries, run count, run
// contents — is identical at every fan-in under the same budget.
type fixedBudget int

func (b fixedBudget) Blocks() int { return int(b) }

// encodeAll renders an output stream as one byte string; equal strings mean
// identical tuples in identical order.
func encodeAll(rows []types.Tuple) []byte {
	var buf []byte
	for _, r := range rows {
		buf = r.Encode(buf)
	}
	return buf
}

// scheduleResult is what one sort of TestReductionScheduleKeepsOutputBytes
// left behind.
type scheduleResult struct {
	out   []byte
	stats SortStats
	io    storage.IOStats
}

// TestReductionScheduleKeepsOutputBytes is the tie-heavy differential for
// the merge schedule. Inputs have few distinct sort keys and a unique
// payload per row, so the order of full-key ties is visible in the output
// bytes. A fixed 3-block Budget forms the same runs at every fan-in, which
// isolates the schedule: the unreduced sort (fan-in above the run count, one
// final merge over the formation runs) is the baseline, and every reduction
// — fan-in {2, 3, 7, 15} × spill parallelism {1, 2, 4, 8} — must reproduce
// it byte for byte, ties included: merges break full-key ties by run ordinal
// and the schedule keeps merged outputs in run order, so which runs were
// pre-merged is invisible. MRS is a stable sort outright (stable batch sorts,
// runs in arrival order) and is held to sort.SliceStable as well — and, under
// a Limit that cuts into the second segment, so that merged outputs are
// truncated, to its first rows. SRS's replacement-selection heap promises no
// tie order (see the package comment), so its baseline is held to the
// reference's key sequence only.
//
// The "blob" input sorts on strings that share their first 12 bytes: every
// store entry is truncated and prefix-tied, and runs carry no entries at all,
// so merges order these rows by the keys they re-derive from the row bytes.
func TestReductionScheduleKeepsOutputBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 2400
	ints := make([]types.Tuple, n)
	for i := range ints {
		ints[i] = types.NewTuple(types.NewInt(int64(i/(n/2))), types.NewInt(rng.Int63n(4)), types.NewString(fmt.Sprintf("r%04d", i)))
	}
	blobSchema := types.NewSchema(
		types.Column{Name: "g", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindString},
		types.Column{Name: "id", Kind: types.KindInt},
	)
	blobs := make([]types.Tuple, n)
	for i := range blobs {
		blobs[i] = types.NewTuple(types.NewInt(int64(i/(n/2))), types.NewString(fmt.Sprintf("shared-head-%02d", rng.Intn(40))), types.NewInt(int64(i)))
	}
	inputs := []struct {
		name   string
		schema *types.Schema
		rows   []types.Tuple // sorted on the first column
		target sortord.Order
		given  sortord.Order
	}{
		{"ties", sortSchema, ints, sortord.New("c1", "c2"), sortord.New("c1")},
		{"blob", blobSchema, blobs, sortord.New("g", "s"), sortord.New("g")},
	}

	for _, in := range inputs {
		ks := types.MustKeySpec(in.schema, in.target)
		stable := append([]types.Tuple(nil), in.rows...)
		sort.SliceStable(stable, func(i, j int) bool { return ks.Compare(stable[i], stable[j]) < 0 })
		mixed := shuffled(in.rows, rng)

		run := func(t *testing.T, mrs bool, blocks, par int, limit int64) ([]types.Tuple, scheduleResult) {
			t.Helper()
			cfg, d := smallCfg(t, blocks)
			cfg.Limit = limit
			cfg.Parallelism = par
			input, given := mixed, sortord.Empty
			if mrs {
				input, given = in.rows, in.given
			}
			op, err := NewMRS(iter.FromSlice(input), in.schema, in.target, given, cfg)
			if err != nil {
				t.Fatal(err)
			}
			op.Bind(iter.Binding{Budget: fixedBudget(3)})
			rows, err := drain(op)
			if err != nil {
				t.Fatal(err)
			}
			return rows, scheduleResult{encodeAll(rows), *op.Stats(), d.Stats()}
		}

		for _, mrs := range []bool{false, true} {
			for _, arm := range spillArms {
				algo := "srs"
				if mrs {
					algo = "mrs"
				}
				t.Run(fmt.Sprintf("%s/%s/%s", in.name, algo, arm), func(t *testing.T) {
					baseRows, base := run(t, mrs, 4096, 1, 0)
					if base.stats.MergePasses != 0 || base.stats.RunsGenerated < 16 {
						t.Fatalf("baseline should form > 15 runs and merge them once: %+v", base.stats)
					}
					if len(baseRows) != len(stable) {
						t.Fatalf("baseline emitted %d rows, want %d", len(baseRows), len(stable))
					}
					for i := range stable {
						if ks.Compare(baseRows[i], stable[i]) != 0 {
							t.Fatalf("baseline key order diverges from the reference at %d: %v vs %v", i, baseRows[i], stable[i])
						}
					}
					if mrs && !bytes.Equal(base.out, encodeAll(stable)) {
						t.Fatal("MRS is a stable sort, but its output differs from sort.SliceStable")
					}
					// Limited: all of the first segment and a quarter of the second.
					const limit = n/2 + n/8
					limited := encodeAll(stable[:limit])

					for _, fanIn := range []int{2, 3, 7, 15} {
						var serial, serialLimited scheduleResult
						for _, par := range []int{1, 2, 4, 8} {
							at := fmt.Sprintf("fan-in %d par %d", fanIn, par)
							_, got := run(t, mrs, fanIn+1, par, 0)
							st := got.stats
							if st.RunsGenerated != base.stats.RunsGenerated {
								t.Fatalf("%s: %d formation runs, baseline %d — the fixed budget should pin them", at, st.RunsGenerated, base.stats.RunsGenerated)
							}
							if st.MergePasses == 0 || st.RunsMerged == 0 {
								t.Fatalf("%s: no reduction ran: %+v", at, st)
							}
							if !bytes.Equal(got.out, base.out) {
								t.Errorf("%s: output bytes differ from the unreduced sort", at)
							}
							sameAsSerial(t, at, par, &serial, got)
							if !mrs {
								continue
							}
							_, got = run(t, true, fanIn+1, par, limit)
							if got.stats.MergePasses == 0 {
								t.Fatalf("%s limit %d: no reduction ran: %+v", at, limit, got.stats)
							}
							if !bytes.Equal(got.out, limited) {
								t.Errorf("%s limit %d: output differs from the first rows of sort.SliceStable", at, limit)
							}
							sameAsSerial(t, at+" limited", par, &serialLimited, got)
						}
					}
				})
			}
		}
	}
}

// sameAsSerial holds a run at parallelism par to the serial run of the same
// configuration — stats, I/O and output bytes — remembering the serial one
// when it comes by.
func sameAsSerial(t *testing.T, at string, par int, serial *scheduleResult, got scheduleResult) {
	t.Helper()
	if par == 1 {
		*serial = got
		return
	}
	if got.stats != serial.stats || got.io != serial.io || !bytes.Equal(got.out, serial.out) {
		t.Errorf("%s: diverges from the serial run\n stats %+v io %+v\nserial %+v io %+v", at, got.stats, got.io, serial.stats, serial.io)
	}
}

// TestRunsArePayloadFiles follows a spilled sort's files: after run formation
// and after each reduction pass the arena holds exactly one file per live run
// — no second file rides along — every page written is a run page holding
// rows, and the pages a pass writes are the pages its merged outputs occupy.
func TestRunsArePayloadFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cfg, d := smallCfg(t, 4) // fan-in 3
	arena := d.NewArena()
	defer arena.Release()
	base := d.Stats()
	target := sortord.New("c2", "c1")

	var runs []*storage.File
	var ky *keyer
	var stats SortStats
	written := int64(0) // pages of every run file ever closed
	check := func(stage string, fresh []*storage.File) {
		t.Helper()
		for _, f := range fresh {
			written += int64(f.NumPages())
		}
		names := d.FileNames()
		if len(names) != len(runs) {
			t.Fatalf("%s: %d live runs but the arena holds %v", stage, len(runs), names)
		}
		live := 0
		for _, f := range runs {
			live += f.NumPages()
			if i := sort.SearchStrings(names, f.Name()); i == len(names) || names[i] != f.Name() {
				t.Fatalf("%s: run %q is not among the arena's files %v", stage, f.Name(), names)
			}
		}
		if d.TotalPages() != live {
			t.Fatalf("%s: the arena's files take %d pages, the live runs %d", stage, d.TotalPages(), live)
		}
		if io := d.Stats().Sub(base); io.RunPageWrites != written || io.PageWrites != written {
			t.Fatalf("%s: %d pages written (%d to runs), the runs' payload pages are %d", stage, io.PageWrites, io.RunPageWrites, written)
		}
		if stats.FlatRunPages != 0 {
			t.Fatalf("%s: FlatRunPages = %d", stage, stats.FlatRunPages)
		}
	}

	for batch := 0; batch < 40; batch++ {
		var st *rowStore
		st, ky = fillStore(t, d, target, 0, genRows(30, 1, rng))
		run, tally, err := formRun(arena, st, ky, noLimit)
		st.release()
		if err != nil {
			t.Fatal(err)
		}
		tally.addTo(&stats)
		runs = append(runs, run)
	}
	check("formation", runs)
	for len(runs) > cfg.fanIn() {
		before := map[*storage.File]bool{}
		for _, f := range runs {
			before[f] = true
		}
		var err error
		if runs, err = reducePass(cfg.fanIn(), nil, arena, runs, ky, noLimit, &stats); err != nil {
			t.Fatal(err)
		}
		var fresh []*storage.File
		for _, f := range runs {
			if !before[f] {
				fresh = append(fresh, f)
			}
		}
		check(fmt.Sprintf("pass %d", stats.MergePasses), fresh)
	}
	if stats.MergePasses < 3 {
		t.Fatalf("40 runs at fan-in 3 should take at least 3 passes, took %d", stats.MergePasses)
	}
}
