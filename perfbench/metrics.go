package main

// metric names one reported figure and its unit. BENCHMARK.json lists
// the same names; TestMetricListsMatchBenchmarkJSON keeps the two equal.
type metric struct {
	name string
	unit string
	// approximate marks a count that depends on timing (allocation, GC,
	// send grouping): a later change may cite it only where it repeats.
	approximate bool
	// timing marks a per-layer figure measured with a clock.
	timing bool
}

// endToEnd are the metrics a timed run (--trace 0) reports.
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "rss_mb_p90", unit: "MB"},
	{name: "iter_ms", unit: "ms"},
	{name: "miss_ms_p50", unit: "ms"},
	{name: "partial_ms_p50", unit: "ms"},
}

// perLayer are the metrics a traced run (--trace 1) reports. Every run
// reports all of them; a layer that is not on the workload's path did no
// work there and reads 0.
var perLayer = []metric{
	{name: "graph.load_ms", unit: "ms", timing: true},
	{name: "dp.build_ms", unit: "ms", timing: true},
	{name: "dp.warmup_ms", unit: "ms", timing: true},
	{name: "dp.leaf_ms_per_iter", unit: "ms", timing: true},
	{name: "dp.node_ms_per_iter", unit: "ms", timing: true},
	{name: "dp.kernel_direct_per_iter", unit: "count"},
	{name: "dp.kernel_aggregate_per_iter", unit: "count"},
	{name: "dp.batch_lanes", unit: "count"},
	{name: "dp.tiled_passes", unit: "count"},
	{name: "dp.tile_sweeps", unit: "count"},
	{name: "dp.peak_table_mb", unit: "MB"},
	{name: "dp.alloc_mb_per_iter", unit: "MB", approximate: true},
	{name: "dp.gc_per_iter", unit: "count", approximate: true},
	{name: "table.rows_per_iter", unit: "count"},
	{name: "table.arena_hits", unit: "count"},
	{name: "table.arena_misses", unit: "count"},
	{name: "table.arena_hit_ratio", unit: "ratio"},
	{name: "serve.hit_handler_ms_p50", unit: "ms", timing: true},
	{name: "serve.hit_transport_ms_p50", unit: "ms", timing: true},
	{name: "serve.partial_handler_ms_p50", unit: "ms", timing: true},
	{name: "serve.partial_transport_ms_p50", unit: "ms", timing: true},
	{name: "serve.miss_handler_ms_p50", unit: "ms", timing: true},
	{name: "serve.miss_transport_ms_p50", unit: "ms", timing: true},
	{name: "serve.hit_ms_p50", unit: "ms", timing: true},
	{name: "serve.miss_dp_ms_p50", unit: "ms", timing: true},
	{name: "serve.fresh_iterations", unit: "count/stream"},
	{name: "serve.cached_iterations", unit: "count/stream"},
	{name: "serve.cache_hits", unit: "count/stream"},
	{name: "serve.cache_partials", unit: "count/stream"},
	{name: "serve.cache_misses", unit: "count/stream"},
	{name: "serve.rejected", unit: "count"},
	{name: "shard.messages_per_op", unit: "count"},
	{name: "shard.comm_mb_per_op", unit: "MB"},
	{name: "shard.max_rank_rows", unit: "count"},
	{name: "shard.groups_per_op", unit: "count", approximate: true},
	{name: "shard.grouped_frames_per_op", unit: "count", approximate: true},
	{name: "shard.local_iter_ms", unit: "ms", timing: true},
	{name: "shard.redispatches", unit: "count"},
	{name: "shard.failures", unit: "count"},
	{name: "trace.overhead_pct", unit: "%", timing: true},
}

func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}
