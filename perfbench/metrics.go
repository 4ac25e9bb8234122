package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of balign sees; every workload reports
// all of them with --trace 0. An operation is one grid on the suite
// workloads and one request on the serve workloads, so grid wall time is
// p50_ms on a suite workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"alloc_mb_per_op", "MB"},
	{"goodput_ops", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
}

// perLayer are the single-layer metrics every workload reports with
// --trace 1. Times and counts are per operation unless the unit says
// otherwise; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	// Alignment (internal/core), busy seconds per operation.
	{"core.tryn_s", "s"},
	{"core.cost_s", "s"},
	{"core.greedy_s", "s"},
	{"core.exttsp_s", "s"},
	{"core.rewrite_s", "s"},
	{"core.procs", "count"},
	// Simulation side of the grid.
	{"icache.replay_s", "s"},
	{"trace.gen_s", "s"},
	{"trace.events", "count"},
	{"sim.stall_s", "s"},
	{"sim.peak_live_bytes", "bytes"},
	{"kernel.run_s", "s"},
	{"kernel.compile_s", "s"},
	{"kernel.events", "count"},
	{"kernel.ns_per_event.static", "ns"},
	{"kernel.ns_per_event.pht", "ns"},
	{"kernel.ns_per_event.btb", "ns"},
	{"kernel.ns_per_event.tagged", "ns"},
	// Grid phases and their attribution.
	{"workload.profile_s", "s"},
	{"sim.prep_s", "s"},
	{"sim.cells_s", "s"},
	{"sim.prep_other_s", "s"},
	{"sim.attributed_ratio", "ratio"},
	{"obs.overhead_s", "s"},
	// Serving (internal/serve).
	{"serve.key_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.admission_wait_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions", "count"},
	{"serve.align_p50_ms", "ms"},
	{"serve.align_p99_ms", "ms"},
	{"serve.simulate_p50_ms", "ms"},
	{"serve.simulate_p90_ms", "ms"},
	// Host speed: the reference's mean time (serve: echo round trip,
	// suites: fixedCompute on two goroutines), unscaled.
	{"host.ref_mean_ms", "ms"},
	// Memory.
	{"max_rss_mb", "MB"},
}

// metricsFor renders values for the given definitions; a definition with no
// value reads 0.
func metricsFor(defs []metricDef, values map[string]float64) map[string]Metric {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		out[d.name] = Metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}
