package main

import "pyro"

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repo root carries the same two lists plus direction and bound; the smoke
// test pins the two in lockstep.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the engine sees; measured with tracing off.
// Two of ISSUE 11's twelve are not here. failed_frac: the benchmark
// contract already reports attempted/failed beside the metrics, and a
// metric that is always 0 cannot carry a relative bound. optimize_us_p50: a
// 30 µs call timed once per query swings by more than the largest bound
// the contract allows when the host is busy; it stays a per-layer metric
// (pyro.optimize_us_p50), and query_ms_* already include the optimizer.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_ms_p50", "ms"},
	{"query_ms_p95", "ms"},
	{"first_row_ms_p50", "ms"},
	{"ops_per_s", "1/s"},
	{"io_pages", "pages/op"},
	{"device_ms_hdd", "ms/op"},
	{"modelled_ms_p50", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"plan_regret", "ratio"},
}

// perLayer is measured by the traced run: spans and counters at the API
// boundary plus the layer probes. Names are <module>.<metric>.
var perLayer = []metricDef{
	{"pyro.optimize_us_p50", "us"},
	{"pyro.open_ms_p50", "ms"},
	{"pyro.first_next_ms_p50", "ms"},
	{"pyro.drain_ms_p50", "ms"},
	{"pyro.close_us_p50", "us"},
	{"pyro.rows_out", "count"},
	{"pyro.rows_per_s", "1/s"},
	{"pyro.mrs_cluster_ms_p50", "ms"},
	{"pyro.mrs_index_ms_p50", "ms"},
	{"pyro.srs_full_ms_p50", "ms"},
	{"pyro.mrs_bigseg_ms_p50", "ms"},
	{"pyro.q3_ms_p50", "ms"},
	{"pyro.q4_ms_p50", "ms"},
	{"pyro.fetch_ms_p50", "ms"},
	{"pyro.topk10_ms_p50", "ms"},
	{"pyro.topk100_ms_p50", "ms"},
	{"pyro.topk1000_ms_p50", "ms"},
	{"pyro.allocs_per_op", "count"},
	{"pyro.heap_inuse_peak_mb", "MB"},
	{"pyro.trace_overhead_frac", "ratio"},

	{"plancache.hits", "count"},
	{"plancache.misses", "count"},
	{"plancache.evictions", "count"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.hit_us_p50", "us"},
	{"plancache.miss_us_p50", "us"},

	{"govern.gate_wait_ms_p50", "ms"},
	{"govern.gate_wait_ms_p95", "ms"},
	{"govern.gate_waits", "count"},
	{"govern.gate_peak_live", "count"},
	{"govern.grant_wait_ms_p50", "ms"},
	{"govern.grant_wait_ms_p95", "ms"},
	{"govern.grant_waits", "count"},
	{"govern.granted_blocks_p50", "blocks"},
	{"govern.shrinks", "count"},
	{"govern.reclaimed_blocks", "blocks"},
	{"govern.peak_granted_blocks", "blocks"},
	{"govern.acquire_release_ns", "ns"},
	{"govern.gate_enter_leave_ns", "ns"},

	{"core.goals_explored", "count"},
	{"core.plans_costed", "count"},
	{"core.orders_tried", "count"},
	{"core.phase2_improved", "count"},
	{"core.est_over_measured_pages", "ratio"},
	{"core.optimize_q3_us", "us"},
	{"core.optimize_q4_us", "us"},
	{"core.optimize_scal8_us", "us"},
	{"core.build_us_p50", "us"},

	{"ford.afm_us", "us"},
	{"ordersel.twoapprox_us", "us"},
	{"ordersel.pathorder_us", "us"},

	{"exec.scan_mrows_per_s", "Mrows/s"},
	{"exec.indexscan_mrows_per_s", "Mrows/s"},
	{"exec.filter_mrows_per_s", "Mrows/s"},
	{"exec.project_mrows_per_s", "Mrows/s"},
	{"exec.mergejoin_mrows_per_s", "Mrows/s"},
	{"exec.hashjoin_mrows_per_s", "Mrows/s"},
	{"exec.groupagg_mrows_per_s", "Mrows/s"},
	{"exec.hashagg_mrows_per_s", "Mrows/s"},
	{"exec.fetch_us_per_row", "us"},
	{"exec.limit_close_pages", "pages"},

	{"xsort.comparisons", "count"},
	{"xsort.radix_passes", "count"},
	{"xsort.radix_bucket_scans", "count"},
	{"xsort.runs_generated", "count"},
	{"xsort.merge_passes", "count"},
	{"xsort.segments", "count"},
	{"xsort.spilled_segs", "count"},
	{"xsort.merge_bucket_skips", "count"},
	{"xsort.flat_run_pages", "pages"},
	{"xsort.peak_mem_bytes", "bytes"},
	{"xsort.tuples_in", "count"},
	{"xsort.tuples_out", "count"},
	{"xsort.in_per_out", "ratio"},
	{"xsort.spill_runs_serial", "count"},
	{"xsort.spill_runs_parallel", "count"},
	{"xsort.srs_inmem_ns_per_row", "ns"},
	{"xsort.srs_spill_ns_per_row", "ns"},
	{"xsort.mrs_inmem_ns_per_row", "ns"},
	{"xsort.mrs_spill_ns_per_row", "ns"},
	{"xsort.mrs_first_out_us", "us"},

	{"keys.encode_ns_per_key", "ns"},
	{"keys.encoded_bytes_per_key", "bytes"},

	{"storage.page_reads", "pages"},
	{"storage.page_writes", "pages"},
	{"storage.run_page_reads", "pages"},
	{"storage.run_page_writes", "pages"},
	{"storage.seeks", "count"},
	{"storage.device_ms_ssd", "ms/op"},
	{"storage.run_pages_per_data_page", "ratio"},
	{"storage.total_pages", "pages"},
	{"storage.live_temp_files_end", "count"},
	{"storage.live_arenas_end", "count"},
	{"storage.tuple_write_ns_per_row", "ns"},
	{"storage.tuple_read_ns_per_row", "ns"},
	{"storage.read_chunk_ns_per_row", "ns"},
	{"storage.entry_write_ns_per_entry", "ns"},
	{"storage.entry_read_ns_per_entry", "ns"},

	{"types.encode_ns_per_tuple", "ns"},
	{"types.decode_ns_per_tuple", "ns"},

	{"catalog.create_table_ms", "ms"},
	{"catalog.create_index_ms", "ms"},
}

// exactMetrics are end-to-end metrics derived only from the engine's
// deterministic counters: on a single-client workload two runs with the
// same seed must agree on them bit for bit.
var exactMetrics = map[string]bool{
	"io_pages":      true,
	"device_ms_hdd": true,
	"plan_regret":   true,
}

// device is a storage cost profile applied to a query's own I/O tap. These
// are constants of the benchmark, not knobs: changing one redefines every
// recorded baseline.
type device struct {
	pageMs, seekMs float64
}

var (
	// hdd is the paper's 2007-era disk at its 4 KiB block: ~40 MB/s
	// sequential transfer (0.10 ms per page) and an 8 ms average
	// positioning time.
	hdd = device{pageMs: 0.10, seekMs: 8}
	// ssd is a commodity flash device: ~400 MB/s (0.01 ms per page) and
	// 0.05 ms per random access.
	ssd = device{pageMs: 0.01, seekMs: 0.05}
)

// at prices pages transferred and seeks on the device.
func (d device) at(pages, seeks float64) float64 { return pages*d.pageMs + seeks*d.seekMs }

// ms prices one query's I/O on the device.
func (d device) ms(io pyro.IOStats) float64 { return d.at(float64(io.Total()), float64(io.Seeks)) }
