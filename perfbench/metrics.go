package main

// metricSpec names one reported metric and its unit. BENCHMARK.json lists
// the same names; metrics_test.go keeps the two in step.
type metricSpec struct {
	name, unit string
}

// endToEndMetrics are what a user of the runtime sees, from the untraced
// run. req_per_s counts the server's requests; a batch kernel's whole
// execution is its one request.
var endToEndMetrics = []metricSpec{
	{"wall_ms", "ms"},
	{"req_per_s", "1/s"},
	{"slowdown_vs_pthreads", "ratio"},
	{"alloc_mb", "MB"},
	{"rss_peak_mb", "MB"},
	{"setup_s", "s"},
}

// Every per-layer time metric must be measured on every workload, so that
// a time reading 0 means the layer got free, not that the workload never
// reaches it. timedOps are the sync calls all three workloads make; they
// get calls, p50, p99 and total time under core. Only kv-server calls the
// native barrier and the atomics, so countedOps get a call count only;
// their time is in core.self_ms and the kendo and block phases.
var (
	timedOps   = []op{opLock, opUnlock, opWait, opSignal, opJoin, opSpawn}
	countedOps = []op{opBarrier, opAtomic}
)

// perLayerMetrics are the traced run's metrics, named <layer>.<metric>
// after the repository's modules.
func perLayerMetrics() []metricSpec {
	var specs []metricSpec
	for _, o := range timedOps {
		specs = append(specs,
			metricSpec{"core." + o.String() + "_calls", "count"},
			metricSpec{"core." + o.String() + "_us_p50", "us"},
			metricSpec{"core." + o.String() + "_us_p99", "us"},
			metricSpec{"core." + o.String() + "_ms", "ms"},
		)
	}
	for _, o := range countedOps {
		specs = append(specs, metricSpec{"core." + o.String() + "_calls", "count"})
	}
	return append(specs,
		metricSpec{"core.self_ms", "ms"},
		metricSpec{"core.user_ms", "ms"},
		metricSpec{"core.monitor_wait_ms", "ms"},
		metricSpec{"core.collect_scanned", "count"},
		metricSpec{"core.collect_useful_ratio", "ratio"},
		metricSpec{"core.monitor_acquires", "count"},
		metricSpec{"core.rendezvous_ops", "count"},

		metricSpec{"kendo.turn_waits", "count"},
		metricSpec{"kendo.turn_wait_ms", "ms"},
		metricSpec{"kendo.turn_wait_us_p50", "us"},
		metricSpec{"kendo.turn_wait_us_p95", "us"},
		metricSpec{"kendo.turn_wait_us_p99", "us"},

		metricSpec{"mem.self_ms", "ms"},
		metricSpec{"mem.diff_ms", "ms"},
		metricSpec{"mem.plan_ms", "ms"},
		metricSpec{"mem.apply_ms", "ms"},
		metricSpec{"mem.lazy_flush_ms", "ms"},
		metricSpec{"mem.block_ms", "ms"},
		metricSpec{"mem.diff_bytes_scanned", "bytes"},
		metricSpec{"mem.diff_skip_ratio", "ratio"},
		metricSpec{"mem.bytes_propagated", "bytes"},
		metricSpec{"mem.coalesced_away_ratio", "ratio"},
		metricSpec{"mem.stores_with_copy", "count"},
		metricSpec{"mem.plan_reuse", "count"},

		metricSpec{"slicestore.slices_created", "count"},
		metricSpec{"slicestore.slices_merged", "count"},
		metricSpec{"slicestore.metadata_kb", "KB"},
		metricSpec{"slicestore.gc_passes", "count"},
		metricSpec{"slicestore.arena_reuse_ratio", "ratio"},
		metricSpec{"slicestore.arena_interned_kb", "KB"},

		metricSpec{"alloc.malloc_calls", "count"},
		metricSpec{"alloc.malloc_us_p50", "us"},

		metricSpec{"go.gc_cycles", "count"},
		metricSpec{"go.gc_pause_ms", "ms"},
		metricSpec{"go.mallocs", "count"},

		metricSpec{"pthreads.wall_ms", "ms"},
		metricSpec{"dthreads.wall_ms", "ms"},
		metricSpec{"trace.wall_ms", "ms"},
		metricSpec{"trace.overhead_ratio", "ratio"},
	)
}
