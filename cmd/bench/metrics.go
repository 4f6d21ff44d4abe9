package main

// metric declares one reported number. BENCHMARK.json at the repository
// root declares the same tables; TestBenchmarkJSON keeps the two in step.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Layer
	// metrics have none.
	Bound float64
}

// endToEnd lists what a user of the study sees, measured with tracing
// off. Failures are not a metric here: every result carries attempted
// and failed op counts, and any failure fails the run. Each bound is at
// least three times the interquartile spread, over its median, of ten
// runs on ten seeds on the reference machine (README.md).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"iter_per_s", "1/s", "higher", 0.15},
	{"op_s_p50", "s", "lower", 0.20},
	{"op_s_p90", "s", "lower", 0.15},
	{"alloc_mb_per_kiter", "MB", "lower", 0.06},
	{"allocs_per_iter", "count", "lower", 0.03},
	{"heap_peak_mb", "MB", "lower", 0.10},
}

// perLayer lists the traced run's layer metrics. Every one is reported
// on every workload: the time metrics are measured on each (in the op,
// or by a replay over the op's own data where the layer runs out of the
// harness's reach), and counts and fractions read 0 where a workload
// never enters the layer. README.md says which is which.
var perLayer = []metric{
	{"websim.build_ms", "ms", "lower", 0},
	{"serp.serve_us", "us", "lower", 0},
	{"serp.calls_per_iter", "count", "lower", 0},
	{"adtech.serve_us", "us", "lower", 0},
	{"adtech.calls_per_iter", "count", "lower", 0},
	{"advertiser.serve_us", "us", "lower", 0},
	{"advertiser.calls_per_iter", "count", "lower", 0},
	{"netsim.roundtrip_self_us", "us", "lower", 0},
	{"netsim.roundtrips_per_iter", "count", "lower", 0},
	{"netsim.faults_per_kreq", "count", "lower", 0},
	{"browser.nav_self_us", "us", "lower", 0},
	{"browser.navs_per_iter", "count", "lower", 0},
	{"browser.retries_per_nav", "count", "lower", 0},
	{"crawler.iter_self_us", "us", "lower", 0},
	{"crawler.useful_frac", "frac", "higher", 0},
	{"crawler.queue_wait_frac", "frac", "lower", 0},
	{"crawler.save_ms", "ms", "lower", 0},
	{"crawler.load_ms", "ms", "lower", 0},
	{"analysis.fold_us_per_iter", "us", "lower", 0},
	{"analysis.report_ms", "ms", "lower", 0},
	{"checkpoint.writes_per_op", "count", "lower", 0},
	{"checkpoint.kb_per_write", "kB", "lower", 0},
	{"sweep.pool_idle_frac", "frac", "lower", 0},
	{"filterlist.match_ns_per_req", "ns", "lower", 0},
	{"filterlist.reqs_per_iter", "count", "lower", 0},
	{"storage.jar_ns_per_op", "ns", "lower", 0},
	{"storage.ops_per_iter", "count", "lower", 0},
	{"tokens.classify_ms", "ms", "lower", 0},
	{"tokens.obs_per_iter", "count", "lower", 0},
	{"websim.share", "frac", "lower", 0},
	{"serp.share", "frac", "lower", 0},
	{"adtech.share", "frac", "lower", 0},
	{"advertiser.share", "frac", "lower", 0},
	{"netsim.share", "frac", "lower", 0},
	{"browser.share", "frac", "lower", 0},
	{"crawler.share", "frac", "lower", 0},
	{"analysis.share", "frac", "lower", 0},
	{"checkpoint.share", "frac", "lower", 0},
	{"sweep.share", "frac", "lower", 0},
	{"trace.unaccounted_frac", "frac", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
}

// extras lists numbers the printed table and the -out record carry
// beside the declared ones: the uncalibrated wall-clock times, and the
// traced layers that exist only on the workloads whose op runs them (a
// time that reads 0 on every run of a workload measures nothing, so
// these stay out of the declared per-layer set).
var extras = []metric{
	{"wall.setup_s", "s", "lower", 0},
	{"wall.iter_per_s", "1/s", "higher", 0},
	{"wall.op_s_p50", "s", "lower", 0},
	{"wall.op_s_p90", "s", "lower", 0},
	{"calib.kernel_ms", "ms", "lower", 0},
	{"crawler.queue_wait_us", "us", "lower", 0},
	{"analysis.merge_ms", "ms", "lower", 0},
	{"checkpoint.write_ms", "ms", "lower", 0},
	{"sweep.cell_ms", "ms", "lower", 0},
}

// value is one measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func lookup(table []metric, name string) (metric, bool) {
	for _, m := range table {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}
