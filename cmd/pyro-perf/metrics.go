package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and renders them against a metric list.
type metricSet map[string]float64

// render returns defs' metrics with their units. A per-layer metric a
// workload has nothing to say about (pyro.q3_ms_p50 on sort_partial) reads
// 0.
func (m metricSet) render(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// column extracts one number per op.
func column(recs []opRec, f func(*opRec) float64) []float64 {
	out := make([]float64, len(recs))
	for i := range recs {
		out[i] = f(&recs[i])
	}
	return out
}

// median returns the median of xs (the mean of the middle pair for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(float64(len(s))*p)), 1)-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func medianOf(loads []loadTimes, f func(loadTimes) time.Duration) time.Duration {
	xs := make([]float64, len(loads))
	for i, l := range loads {
		xs[i] = float64(f(l))
	}
	return time.Duration(median(xs))
}

// ioPerOp returns the mean pages transferred and seeks per op. The sums
// are integers, so when every op did identical work (the single-client
// workloads) the means — and any device time priced from them — are exact
// however many ops the window held.
func ioPerOp(recs []opRec) (pages, seeks float64) {
	var total, seekTotal int64
	for i := range recs {
		total += recs[i].c.io.Total()
		seekTotal += recs[i].c.io.Seeks
	}
	n := float64(len(recs))
	return ratio(float64(total), n), ratio(float64(seekTotal), n)
}

// endToEndMetrics are what a user of the engine sees, from an untraced run.
func (r *run) endToEndMetrics(recs []opRec) metricSet {
	n := float64(len(recs))
	wall := column(recs, func(o *opRec) float64 { return ms(o.wall) })
	pages, seeks := ioPerOp(recs)
	return metricSet{
		"setup_s":          medianOf(r.loads, loadTimes.total).Seconds(),
		"query_ms_p50":     median(wall),
		"query_ms_p95":     percentile(wall, 0.95),
		"first_row_ms_p50": median(column(recs, func(o *opRec) float64 { return ms(o.firstRow) })),
		"ops_per_s":        ratio(n, r.measured.Seconds()),
		"io_pages":         pages,
		"device_ms_hdd":    hdd.at(pages, seeks),
		"modelled_ms_p50":  median(column(recs, func(o *opRec) float64 { return ms(o.wall) + o.ssdMs })),
		"alloc_mb_per_op":  ratio(float64(r.allocBytes)/1e6, n),
		"plan_regret":      r.regret,
	}
}

// perLayerMetrics are the traced run's numbers that come from spans at the
// API boundary and from the counters the engine returns; the probes add
// the rest.
func (r *run) perLayerMetrics(recs []opRec) metricSet {
	n := float64(len(recs))
	var traced, untraced []opRec
	for _, o := range recs {
		if o.traced {
			traced = append(traced, o)
		} else {
			untraced = append(untraced, o)
		}
	}
	wallMs := func(o *opRec) float64 { return ms(o.wall) }
	avg := func(f func(*opRec) float64) float64 { return mean(column(recs, f)) }
	sum := func(f func(*opRec) float64) float64 {
		total := 0.0
		for i := range recs {
			total += f(&recs[i])
		}
		return total
	}

	m := metricSet{
		"pyro.optimize_us_p50":     median(column(traced, func(o *opRec) float64 { return us(o.optimize) })),
		"pyro.open_ms_p50":         median(column(traced, func(o *opRec) float64 { return ms(o.open) })),
		"pyro.first_next_ms_p50":   median(column(traced, func(o *opRec) float64 { return ms(o.firstNext) })),
		"pyro.drain_ms_p50":        median(column(traced, func(o *opRec) float64 { return ms(o.drain) })),
		"pyro.close_us_p50":        median(column(traced, func(o *opRec) float64 { return us(o.closing) })),
		"pyro.rows_out":            avg(func(o *opRec) float64 { return float64(o.c.rows) }),
		"pyro.rows_per_s":          ratio(sum(func(o *opRec) float64 { return float64(o.c.rows) }), r.measured.Seconds()),
		"pyro.allocs_per_op":       ratio(float64(r.mallocs), n),
		"pyro.heap_inuse_peak_mb":  float64(r.heapPeak) / 1e6,
		"pyro.trace_overhead_frac": ratio(median(column(traced, wallMs)), median(column(untraced, wallMs))) - 1,
	}
	for si, sh := range r.w.shapes {
		var xs []float64
		for i := range recs {
			switch {
			case r.w.drawn && recs[i].shape == si:
				xs = append(xs, ms(recs[i].wall))
			case !r.w.drawn:
				xs = append(xs, ms(recs[i].queryWall[si]))
			}
		}
		m["pyro."+sh.name+"_ms_p50"] = median(xs)
	}

	pcB, pcA := r.before.PlanCache, r.after.PlanCache
	hits, misses := float64(pcA.Hits-pcB.Hits), float64(pcA.Misses-pcB.Misses)
	m["plancache.hits"] = hits
	m["plancache.misses"] = misses
	m["plancache.evictions"] = float64(pcA.Evictions - pcB.Evictions)
	m["plancache.hit_ratio"] = ratio(hits, hits+misses)

	gate := column(recs, func(o *opRec) float64 { return ms(o.gateWait) })
	grant := column(recs, func(o *opRec) float64 { return ms(o.grantWait) })
	m["govern.gate_wait_ms_p50"] = median(gate)
	m["govern.gate_wait_ms_p95"] = percentile(gate, 0.95)
	m["govern.gate_waits"] = float64(r.after.Admission.Waits - r.before.Admission.Waits)
	m["govern.gate_peak_live"] = float64(r.after.Admission.PeakLive)
	m["govern.grant_wait_ms_p50"] = median(grant)
	m["govern.grant_wait_ms_p95"] = percentile(grant, 0.95)
	m["govern.grant_waits"] = sum(func(o *opRec) float64 { return float64(o.grantWaits) })
	m["govern.granted_blocks_p50"] = median(column(recs, func(o *opRec) float64 { return ratio(float64(o.granted), float64(o.queries)) }))
	m["govern.shrinks"] = float64(r.after.Governor.Shrinks - r.before.Governor.Shrinks)
	m["govern.reclaimed_blocks"] = float64(r.after.Governor.ReclaimedBlocks - r.before.Governor.ReclaimedBlocks)
	m["govern.peak_granted_blocks"] = float64(r.after.Governor.PeakGrantedBlocks)

	pages := sum(func(o *opRec) float64 { return float64(o.c.io.Total()) })
	m["core.goals_explored"] = avg(func(o *opRec) float64 { return float64(o.c.goals) })
	m["core.plans_costed"] = avg(func(o *opRec) float64 { return float64(o.c.costed) })
	m["core.orders_tried"] = avg(func(o *opRec) float64 { return float64(o.c.orders) })
	m["core.phase2_improved"] = avg(func(o *opRec) float64 { return float64(o.c.phase2) })
	m["core.est_over_measured_pages"] = ratio(sum(func(o *opRec) float64 { return o.estCost }), pages)

	srt := func(f func(*sortSums) float64) float64 {
		return avg(func(o *opRec) float64 { return f(&o.c.sorts) })
	}
	m["xsort.comparisons"] = srt(func(s *sortSums) float64 { return float64(s.comparisons) })
	m["xsort.radix_passes"] = srt(func(s *sortSums) float64 { return float64(s.radixPasses) })
	m["xsort.radix_bucket_scans"] = srt(func(s *sortSums) float64 { return float64(s.radixScans) })
	m["xsort.runs_generated"] = srt(func(s *sortSums) float64 { return float64(s.runs) })
	m["xsort.merge_passes"] = srt(func(s *sortSums) float64 { return float64(s.mergePasses) })
	m["xsort.segments"] = srt(func(s *sortSums) float64 { return float64(s.segments) })
	m["xsort.spilled_segs"] = srt(func(s *sortSums) float64 { return float64(s.spilledSegs) })
	m["xsort.merge_bucket_skips"] = srt(func(s *sortSums) float64 { return float64(s.bucketSkips) })
	m["xsort.flat_run_pages"] = srt(func(s *sortSums) float64 { return float64(s.flatRunPages) })
	m["xsort.peak_mem_bytes"] = srt(func(s *sortSums) float64 { return float64(s.peakMem) })
	m["xsort.tuples_in"] = srt(func(s *sortSums) float64 { return float64(s.tuplesIn) })
	m["xsort.tuples_out"] = srt(func(s *sortSums) float64 { return float64(s.tuplesOut) })
	m["xsort.in_per_out"] = srt(func(s *sortSums) float64 { return ratio(float64(s.tuplesIn), float64(s.tuplesOut)) })
	m["xsort.spill_runs_serial"] = srt(func(s *sortSums) float64 { return float64(s.spillRunsSerial) })
	m["xsort.spill_runs_parallel"] = srt(func(s *sortSums) float64 { return float64(s.spillRunsParallel) })

	reads := avg(func(o *opRec) float64 { return float64(o.c.io.PageReads) })
	runReads := avg(func(o *opRec) float64 { return float64(o.c.io.RunPageReads) })
	runWrites := avg(func(o *opRec) float64 { return float64(o.c.io.RunPageWrites) })
	m["storage.page_reads"] = reads
	m["storage.page_writes"] = avg(func(o *opRec) float64 { return float64(o.c.io.PageWrites) })
	m["storage.run_page_reads"] = runReads
	m["storage.run_page_writes"] = runWrites
	m["storage.seeks"] = avg(func(o *opRec) float64 { return float64(o.c.io.Seeks) })
	m["storage.device_ms_ssd"] = ssd.at(ioPerOp(recs))
	m["storage.run_pages_per_data_page"] = ratio(runWrites, reads-runReads)
	m["storage.total_pages"] = float64(r.db.Disk().TotalPages())
	m["storage.live_temp_files_end"] = float64(len(r.db.Disk().LiveTempFiles()))
	m["storage.live_arenas_end"] = float64(r.db.Disk().LiveArenas())

	m["catalog.create_table_ms"] = ms(medianOf(r.loads, func(l loadTimes) time.Duration { return l.tables }))
	m["catalog.create_index_ms"] = ms(medianOf(r.loads, func(l loadTimes) time.Duration { return l.indexes }))
	return m
}

// environment is recorded with every results file so two files can be told
// apart before they are compared.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
}

func currentEnvironment() environment {
	return environment{
		Commit:     vcsRevision(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}
