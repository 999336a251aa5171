package harness

import (
	"fmt"
	"io"

	"pyro/internal/catalog"
	"pyro/internal/core"
	"pyro/internal/cost"
	"pyro/internal/expr"
	"pyro/internal/logical"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
	"pyro/internal/workload"
)

// RunExtensions measures the two §7 future-work features implemented
// beyond the paper's evaluation: Top-K early termination over a pipelined
// partial sort, and deferred tuple fetch through a non-covering secondary
// index.
func RunExtensions(w io.Writer, scale Scale) error {
	if err := runTopK(w, scale); err != nil {
		return err
	}
	return runDeferredFetch(w, scale)
}

func runTopK(w io.Writer, scale Scale) error {
	k := scale.limit()
	section(w, fmt.Sprintf("Extension (§7): Top-K (limit %d) over a pipelined partial sort", k))
	disk := storage.NewDisk(0)
	cat := catalog.New(disk)
	rows := scale.rows(200_000)
	tb, err := workload.BuildSegmentTable(cat, "tk", rows, rows/500, 3)
	if err != nil {
		return err
	}
	base := logical.NewOrderBy(logical.NewScan(tb), sortord.New("c1", "c2"))
	q := logical.NewLimit(base, k)
	const sortBlocks = 64

	t := &table{header: []string{"plan", "est_cost", "est_startup", "time_ms", "first_row_ms", "page_reads", "run_io", "rows"}}
	for _, v := range []struct {
		name    string
		disable bool
	}{{"partial sort (MRS, limit closes after first segments)", false}, {"full sort (SRS, must consume everything)", true}} {
		opts := core.DefaultOptions(core.HeuristicFavorable)
		opts.DisablePartialSort = v.disable
		opts.Model.MemoryBlocks = sortBlocks
		res, err := core.Optimize(q, opts)
		if err != nil {
			return err
		}
		rs, err := buildAndMeasure(disk, res.Plan, sortBlocks, scale)
		if err != nil {
			return err
		}
		if rs.rows != k {
			return fmt.Errorf("topk: %d rows, want %d", rs.rows, k)
		}
		t.add(v.name, fmt.Sprintf("%.0f", res.Plan.Cost.Total), fmt.Sprintf("%.0f", res.Plan.Cost.Startup),
			ms(rs.elapsed), ms(rs.firstOut),
			fmt.Sprint(rs.io.PageReads), fmt.Sprint(rs.io.RunTotal()), fmt.Sprint(rs.rows))
	}
	t.write(w)
	fmt.Fprintf(w, "§3.1 benefit 2: \"producing tuples early has immense benefits for Top-K queries\"\n")
	fmt.Fprintf(w, "two-phase model: the Limit node prices the plan at its first-%d-rows prefix (%d of %d segments)\n",
		k, cost.SegmentBudget(k, rows, 500), 500)
	return nil
}

func runDeferredFetch(w io.Writer, scale Scale) error {
	section(w, "Extension (§7): deferred fetch through a non-covering index")
	disk := storage.NewDisk(0)
	cat := catalog.New(disk)
	rows := scale.rows(40_000)
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "tag", Kind: types.KindInt},
		types.Column{Name: "p1", Kind: types.KindString, Width: 100},
		types.Column{Name: "p2", Kind: types.KindString, Width: 100},
	)
	data := make([]types.Tuple, rows)
	for i := int64(0); i < rows; i++ {
		data[i] = types.NewTuple(
			types.NewInt(i), types.NewInt(i%2000),
			types.NewString("wide-payload-wide-payload-wide-payload-wide"),
			types.NewString("extra-payload-extra-payload-extra-payload-x"))
	}
	tb, err := cat.CreateTable("wide", schema, sortord.New("id"), data)
	if err != nil {
		return err
	}
	if _, err := cat.CreateIndex("wide_tag", tb, sortord.New("tag"), []string{"id"}); err != nil {
		return err
	}
	sel := logical.NewSelect(logical.NewScan(tb), expr.Eq(expr.Col("tag"), expr.IntLit(7)))
	const sortBlocks = 64

	t := &table{header: []string{"plan", "est_cost", "time_ms", "page_reads", "rows", "fetch_used"}}
	for _, v := range []struct {
		name    string
		prepare func() (*core.Plan, error)
	}{
		{"deferred fetch (PYRO-O)", func() (*core.Plan, error) {
			res, err := core.Optimize(sel, core.DefaultOptions(core.HeuristicFavorable))
			if err != nil {
				return nil, err
			}
			return res.Plan, nil
		}},
		{"table scan + filter", func() (*core.Plan, error) {
			// Build the scan+filter plan directly for comparison.
			scan := &core.Plan{
				Kind: core.OpTableScan, Table: tb, Schema: tb.Schema,
				OutOrder: tb.ClusterOrder, Rows: tb.Stats.NumRows,
				Blocks: tb.NumBlocks(),
				Cost:   cost.Streaming(float64(tb.NumBlocks()), tb.Stats.NumRows),
			}
			return &core.Plan{
				Kind: core.OpFilter, Children: []*core.Plan{scan}, Pred: sel.Pred,
				Schema: tb.Schema, OutOrder: scan.OutOrder,
				Rows: sel.Props().Rows, Blocks: scan.Blocks,
				Cost: cost.Cost{Startup: 0, Total: scan.Cost.Total + 0.01, Rows: sel.Props().Rows},
			}, nil
		}},
	} {
		plan, err := v.prepare()
		if err != nil {
			return err
		}
		rs, err := buildAndMeasure(disk, plan, sortBlocks, scale)
		if err != nil {
			return err
		}
		t.add(v.name, fmt.Sprintf("%.0f", plan.Cost.Total), ms(rs.elapsed),
			fmt.Sprint(rs.io.PageReads), fmt.Sprint(rs.rows),
			fmt.Sprint(plan.CountKind(core.OpFetch) > 0))
	}
	t.write(w)
	fmt.Fprintf(w, "§7: \"deferring the fetch ... can be very effective when a highly selective filter discards many rows\"\n")
	return nil
}
