package harness

import (
	"errors"
	"fmt"
	"io"
	"time"

	"pyro/internal/catalog"
	"pyro/internal/core"
	"pyro/internal/exec"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
	"pyro/internal/workload"
)

// RunA1 reproduces Experiment A1 (Figure 7): ORDER BY (l_suppkey,
// l_partkey) over lineitem with a covering index supplying the (l_suppkey)
// prefix. "Default Sort" ignores the prefix (SRS, what Postgres/SYS1/SYS2
// did); "Exploiting Partial Sort" uses MRS. The paper measured 3–4×.
func RunA1(w io.Writer, scale Scale) error {
	section(w, "Experiment A1 (Figure 7): ORDER BY with a partially matching covering index")
	disk := storage.NewDisk(0)
	cat := catalog.New(disk)
	cfg := workload.DefaultTPCH()
	cfg.Suppliers = scale.rows(100)
	cfg.PartsPerSupplier = scale.rows(80)
	if err := workload.BuildTPCH(cat, cfg); err != nil {
		return err
	}
	li, err := cat.Table("lineitem")
	if err != nil {
		return err
	}
	ix := li.Index("li_sk")
	target := sortord.New("l_suppkey", "l_partkey")
	const sortBlocks = 32

	t := &table{header: []string{"variant", "rows", "time_ms", "first_out_ms", "run_io", "comparisons", "runs/passes/merged"}}
	// Default: SRS, input order ignored.
	proj, err := sortedProjection(ix, []string{"l_suppkey", "l_partkey"})
	if err != nil {
		return err
	}
	srs, err := exec.NewSortSRS(proj, target, mkSortConfig(disk, sortBlocks, scale))
	if err != nil {
		return err
	}
	rsS, err := measure(disk, srs)
	if err != nil {
		return err
	}
	t.add("default-sort (SRS)", fmt.Sprint(rsS.rows), ms(rsS.elapsed), ms(rsS.firstOut),
		fmt.Sprint(rsS.io.RunTotal()), fmt.Sprint(srs.SortStats().Comparisons), runShape(srs))

	// MRS exploiting the (l_suppkey) prefix from the index.
	proj2, err := sortedProjection(ix, []string{"l_suppkey", "l_partkey"})
	if err != nil {
		return err
	}
	mrs, err := exec.NewSortMRS(proj2, target, sortord.New("l_suppkey"), mkSortConfig(disk, sortBlocks, scale))
	if err != nil {
		return err
	}
	rsM, err := measure(disk, mrs)
	if err != nil {
		return err
	}
	t.add("partial-sort (MRS)", fmt.Sprint(rsM.rows), ms(rsM.elapsed), ms(rsM.firstOut),
		fmt.Sprint(rsM.io.RunTotal()), fmt.Sprint(mrs.SortStats().Comparisons), runShape(mrs))
	t.write(w)
	if rsS.rows != rsM.rows {
		return fmt.Errorf("A1: row counts diverge (%d vs %d)", rsS.rows, rsM.rows)
	}
	fmt.Fprintf(w, "paper: MRS 3-4x faster; here run_io drops %d -> %d\n",
		rsS.io.RunTotal(), rsM.io.RunTotal())
	return nil
}

// RunA2 reproduces Experiment A2 (Figure 8): tuples produced vs time for a
// 10-column-segment sort. SRS emits nothing until all input is consumed;
// MRS streams.
func RunA2(w io.Writer, scale Scale) error {
	section(w, "Experiment A2 (Figure 8): rate of output, SRS vs MRS")
	disk := storage.NewDisk(0)
	cat := catalog.New(disk)
	rows := scale.rows(200_000)
	segments := int64(1000) // D(c1), paper used 10,000 on 10M rows
	tb, err := workload.BuildSegmentTable(cat, "r3", rows, rows/segments, 7)
	if err != nil {
		return err
	}
	target := sortord.New("c1", "c2")
	const sortBlocks = 64
	checkpoints := []float64{0.01, 0.25, 0.5, 0.75, 1.0}

	run := func(useMRS bool) (marks []time.Duration, err error) {
		var op exec.Operator
		scan := exec.NewTableScan(tb)
		if useMRS {
			op, err = exec.NewSortMRS(scan, target, sortord.New("c1"), mkSortConfig(disk, sortBlocks, scale))
		} else {
			op, err = exec.NewSortSRS(scan, target, mkSortConfig(disk, sortBlocks, scale))
		}
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := op.Open(); err != nil {
			return nil, err
		}
		defer func() { err = errors.Join(err, op.Close()) }()
		marks = make([]time.Duration, len(checkpoints))
		next := 0
		var n int64
		c := types.NewChunk(op.Schema().Len(), types.DefaultChunkCapacity)
		for {
			if err := op.NextChunk(c); err != nil {
				return nil, err
			}
			if c.Rows() == 0 {
				break
			}
			n += int64(c.Rows())
			for next < len(checkpoints) && float64(n) >= checkpoints[next]*float64(rows) {
				marks[next] = time.Since(start)
				next++
			}
		}
		if n != rows {
			return nil, fmt.Errorf("A2: produced %d of %d rows", n, rows)
		}
		return marks, err
	}

	srsMarks, err := run(false)
	if err != nil {
		return err
	}
	mrsMarks, err := run(true)
	if err != nil {
		return err
	}
	t := &table{header: []string{"tuples_produced", "SRS_ms", "MRS_ms"}}
	for i, c := range checkpoints {
		t.add(fmt.Sprintf("%.0f%%", c*100), ms(srsMarks[i]), ms(mrsMarks[i]))
	}
	t.write(w)
	fmt.Fprintf(w, "paper: MRS produces tuples immediately; SRS only after reading all input\n")
	return nil
}

// RunA3 reproduces Experiment A3 (Figure 9): effect of partial sort segment
// size. Tables R0..Rk hold the same rows with 10^i rows per c1 value; when
// a segment outgrows sort memory MRS starts spilling and converges to SRS.
func RunA3(w io.Writer, scale Scale) error {
	section(w, "Experiment A3 (Figure 9): effect of partial sort segment size")
	rows := scale.rows(100_000)
	const sortBlocks = 32 // ~few thousand buffered tuples
	target := sortord.New("c1", "c2")

	t := &table{header: []string{"seg_rows", "SRS_ms", "SRS_run_io", "SRS_runs/passes/merged", "MRS_ms", "MRS_run_io", "MRS_runs/passes/merged", "MRS_regime", "MRS_spilled_segs"}}
	for i := int64(1); i <= rows; i *= 10 {
		disk := storage.NewDisk(0)
		cat := catalog.New(disk)
		tb, err := workload.BuildSegmentTable(cat, fmt.Sprintf("seg%d", i), rows, i, 11)
		if err != nil {
			return err
		}
		srs, err := exec.NewSortSRS(exec.NewTableScan(tb), target, mkSortConfig(disk, sortBlocks, scale))
		if err != nil {
			return err
		}
		rsS, err := measure(disk, srs)
		if err != nil {
			return err
		}
		mrs, err := exec.NewSortMRS(exec.NewTableScan(tb), target, sortord.New("c1"), mkSortConfig(disk, sortBlocks, scale))
		if err != nil {
			return err
		}
		rsM, err := measure(disk, mrs)
		if err != nil {
			return err
		}
		if rsS.rows != rows || rsM.rows != rows {
			return fmt.Errorf("A3: row loss at segment %d", i)
		}
		t.add(fmt.Sprint(i), ms(rsS.elapsed), fmt.Sprint(rsS.io.RunTotal()), runShape(srs),
			ms(rsM.elapsed), fmt.Sprint(rsM.io.RunTotal()), runShape(mrs), sortRegime(mrs),
			fmt.Sprint(mrs.SortStats().SpilledSegs))
	}
	t.write(w)
	fmt.Fprintf(w, "paper: MRS run I/O is zero while segments fit in memory, then converges to SRS\n")
	return nil
}

// RunA4 reproduces Experiment A4 (Query 2): the merge-join + aggregate
// query run with full sorts (SRS) vs partial sorts (MRS). The paper
// measured 63s -> 25s on Postgres.
func RunA4(w io.Writer, scale Scale) error {
	section(w, "Experiment A4 (Query 2): count lineitems per (supplier, part)")
	disk := storage.NewDisk(0)
	cat := catalog.New(disk)
	cfg := workload.DefaultTPCH()
	cfg.Suppliers = scale.rows(100)
	cfg.PartsPerSupplier = scale.rows(60)
	if err := workload.BuildTPCH(cat, cfg); err != nil {
		return err
	}
	q2, err := workload.Query2(cat)
	if err != nil {
		return err
	}
	const sortBlocks = 32

	t := &table{header: []string{"variant", "rows", "time_ms", "first_row_ms", "total_io", "run_io", "est_cost"}}
	var rowsSeen int64 = -1
	for _, v := range []struct {
		name    string
		disable bool
	}{{"SRS (full sorts)", true}, {"MRS (partial sorts)", false}} {
		opts := core.DefaultOptions(core.HeuristicFavorable)
		opts.DisablePartialSort = v.disable
		opts.DisableHashJoin = true // the paper's plan is a merge join both times
		opts.DisableHashAgg = true
		opts.Model.MemoryBlocks = sortBlocks
		res, err := core.Optimize(q2, opts)
		if err != nil {
			return err
		}
		rs, err := buildAndMeasure(disk, res.Plan, sortBlocks, scale)
		if err != nil {
			return err
		}
		if rowsSeen == -1 {
			rowsSeen = rs.rows
		} else if rowsSeen != rs.rows {
			return fmt.Errorf("A4: plans disagree (%d vs %d rows)", rowsSeen, rs.rows)
		}
		t.add(v.name, fmt.Sprint(rs.rows), ms(rs.elapsed), ms(rs.firstOut),
			fmt.Sprint(rs.io.Total()), fmt.Sprint(rs.io.RunTotal()), fmt.Sprintf("%.0f", res.Plan.Cost.Total))
	}
	t.write(w)
	fmt.Fprintf(w, "paper: 63s with SRS vs 25s with MRS (same plan shape)\n")
	return nil
}

// RunExample1 reproduces §3's Example 1 (Figures 1 and 2): the estimated
// cost of the naïve full-sort plan vs the optimal plan that picks sort
// orders aligned with the clustering and covering indices. Paper: 530,345
// vs 290,410 I/Os (1.8x).
func RunExample1(w io.Writer, scale Scale) error {
	section(w, "Example 1 (Figures 1 and 2): naive vs order-aware merge-join plan")
	disk := storage.NewDisk(0)
	cat := catalog.New(disk)
	if err := workload.BuildExample1(cat, scale.rows(40_000), 3); err != nil {
		return err
	}
	q, err := workload.Example1Query(cat)
	if err != nil {
		return err
	}
	const sortBlocks = 64
	t := &table{header: []string{"plan", "est_cost", "time_ms", "first_row_ms", "total_io", "run_io", "rows"}}
	var counts []int64
	for _, v := range []struct {
		name string
		opts core.Options
	}{
		{"naive (PYRO, arbitrary orders)", core.DefaultOptions(core.HeuristicArbitrary)},
		{"order-aware (PYRO-O)", core.DefaultOptions(core.HeuristicFavorable)},
	} {
		v.opts.DisableHashJoin = true // both figures use sort-merge joins
		v.opts.Model.MemoryBlocks = sortBlocks
		res, err := core.Optimize(q, v.opts)
		if err != nil {
			return err
		}
		rs, err := buildAndMeasure(disk, res.Plan, sortBlocks, scale)
		if err != nil {
			return err
		}
		counts = append(counts, rs.rows)
		t.add(v.name, fmt.Sprintf("%.0f", res.Plan.Cost.Total), ms(rs.elapsed), ms(rs.firstOut),
			fmt.Sprint(rs.io.Total()), fmt.Sprint(rs.io.RunTotal()), fmt.Sprint(rs.rows))
	}
	t.write(w)
	if counts[0] != counts[1] {
		return fmt.Errorf("example1: plans disagree (%d vs %d rows)", counts[0], counts[1])
	}
	fmt.Fprintf(w, "paper: 530,345 vs 290,410 estimated I/Os (~1.8x)\n")
	return nil
}
