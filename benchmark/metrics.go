package main

// metricDef is one row of BENCHMARK.json. The tables below are the single
// source of the metric names, units and directions the program prints; a
// test checks BENCHMARK.json against them.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndMetrics are what a user of the daemon sees, defined on every
// workload: `put` is the PUT phase, `get` the GET phase (reconstructing on
// node_degraded_partial), `range_get` the tail range read. Failed, refused
// or wrong-byte requests are not a metric here: they are the output's
// failed/attempted and fail the run.
//
// The issue's target bound was 10 %. This sandbox cannot hold it: the host
// slows by 10-20 % for spells of seconds (README, "Noise"), so every timed
// metric carries the largest bound the contract allows and the spreads
// observed are recorded in the README. space_amp is exact; its bound only
// absorbs the digit counts of the metadata JSON.
//
// The issue's patch_p50_ms is not here. A 64 KiB PATCH is a dozen small
// filesystem operations (journal create/rename/unlink, three in-place
// writes, metadata create/rename), and on this sandbox's discard-mounted
// ext4 its p50 flips between two regimes from run to run — 27-42 % spread
// over ten runs while every other metric of the same runs held 1-2 % — so
// no bound up to the contract's 25 % can hold it. As the issue prescribes
// for that case it is demoted, not loosened: node_degraded_partial still
// runs the PATCH phase and prints patch_p50_ms as reported only, and the
// ladder prices PATCH per layer (shardfile.patch_ms, store.patch_ms,
// http.patch_ms).
var endToEndMetrics = []metricDef{
	{"put_mbps", "MB/s", "higher", 0.25},
	{"put_p50_ms", "ms", "lower", 0.25},
	{"get_mbps", "MB/s", "higher", 0.25},
	{"get_p50_ms", "ms", "lower", 0.25},
	{"range_get_p50_ms", "ms", "lower", 0.25},
	{"cpu_s_per_gb", "s/GB", "lower", 0.25},
	{"space_amp", "ratio", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics are the traced run's and the ladder pass's numbers, by
// layer (the repo's package names). They carry no bound.
var perLayerMetrics = []metricDef{
	{name: "floor.memcpy_mbps", unit: "MB/s", better: "higher"},
	{name: "floor.sha256_mbps", unit: "MB/s", better: "higher"},
	{name: "floor.crc32c_mbps", unit: "MB/s", better: "higher"},
	{name: "floor.file_write_mbps", unit: "MB/s", better: "higher"},
	{name: "floor.fsync_ms", unit: "ms", better: "lower"},

	{name: "te.encode_mbps", unit: "MB/s", better: "higher"},
	{name: "te.xors_per_byte", unit: "count", better: "lower"},

	{name: "core.encode_mbps", unit: "MB/s", better: "higher"},
	{name: "core.verify_mbps", unit: "MB/s", better: "higher"},
	{name: "core.reconstruct1_mbps", unit: "MB/s", better: "higher"},
	{name: "core.reconstruct2_mbps", unit: "MB/s", better: "higher"},
	{name: "core.update_parity_mbps", unit: "MB/s", better: "higher"},
	{name: "core.decoder_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "ratio.core_over_te", unit: "ratio", better: "higher"},

	{name: "pipeline.encode_mbps", unit: "MB/s", better: "higher"},
	{name: "pipeline.decode_mbps", unit: "MB/s", better: "higher"},
	{name: "pipeline.decode_degraded_mbps", unit: "MB/s", better: "higher"},
	{name: "pipeline.put_read_stall_frac", unit: "ratio", better: "lower"},
	{name: "pipeline.put_kernel_stall_frac", unit: "ratio", better: "lower"},
	{name: "pipeline.put_write_stall_frac", unit: "ratio", better: "lower"},
	{name: "pipeline.get_read_stall_frac", unit: "ratio", better: "lower"},
	{name: "pipeline.get_kernel_stall_frac", unit: "ratio", better: "lower"},
	{name: "pipeline.get_write_stall_frac", unit: "ratio", better: "lower"},
	{name: "sched.task_overhead_us", unit: "us", better: "lower"},
	{name: "sched.queue_peak", unit: "count", better: "lower"},
	{name: "ratio.pipeline_over_core", unit: "ratio", better: "higher"},

	{name: "shardfile.write_mbps", unit: "MB/s", better: "higher"},
	{name: "shardfile.read_mbps", unit: "MB/s", better: "higher"},
	{name: "shardfile.read_degraded_mbps", unit: "MB/s", better: "higher"},
	{name: "shardfile.open_ms", unit: "ms", better: "lower"},
	{name: "shardfile.range_ms", unit: "ms", better: "lower"},
	{name: "shardfile.patch_ms", unit: "ms", better: "lower"},
	{name: "shardfile.scrub_mbps", unit: "MB/s", better: "higher"},
	{name: "ratio.shardfile_over_pipeline", unit: "ratio", better: "higher"},

	{name: "fs.files_created_per_put", unit: "count", better: "lower"},
	{name: "fs.writes_per_put", unit: "count", better: "lower"},
	{name: "fs.renames_per_put", unit: "count", better: "lower"},
	{name: "fs.bytes_written_per_user_byte", unit: "ratio", better: "lower"},
	{name: "fs.reads_per_get", unit: "count", better: "lower"},
	{name: "fs.bytes_read_per_user_byte", unit: "ratio", better: "lower"},
	{name: "fs.busy_ms_per_put", unit: "ms", better: "lower"},
	{name: "fs.busy_ms_per_get", unit: "ms", better: "lower"},

	{name: "store.put_mbps", unit: "MB/s", better: "higher"},
	{name: "store.get_mbps", unit: "MB/s", better: "higher"},
	{name: "store.patch_ms", unit: "ms", better: "lower"},
	{name: "store.put_self_ms", unit: "ms", better: "lower"},
	{name: "store.get_self_ms", unit: "ms", better: "lower"},
	{name: "store.small_put_us", unit: "us", better: "lower"},
	{name: "store.small_get_us", unit: "us", better: "lower"},
	{name: "store.delete_us", unit: "us", better: "lower"},
	{name: "store.slab_puts_per_flush", unit: "count", better: "higher"},
	{name: "store.requests_shed", unit: "count", better: "lower"},
	{name: "ratio.store_over_shardfile", unit: "ratio", better: "higher"},

	{name: "http.put_mbps", unit: "MB/s", better: "higher"},
	{name: "http.get_mbps", unit: "MB/s", better: "higher"},
	{name: "http.patch_ms", unit: "ms", better: "lower"},
	{name: "http.put_self_ms", unit: "ms", better: "lower"},
	{name: "http.get_self_ms", unit: "ms", better: "lower"},
	{name: "http.get_ttfb_ms", unit: "ms", better: "lower"},
	{name: "http.put_tail_ms", unit: "ms", better: "lower"},
	{name: "http.get_tail_ms", unit: "ms", better: "lower"},
	{name: "ratio.http_over_store", unit: "ratio", better: "higher"},

	{name: "peerstore.put_shard_ms", unit: "ms", better: "lower"},
	{name: "peerstore.put_shard_mbps", unit: "MB/s", better: "higher"},
	{name: "peerstore.get_shard_mbps", unit: "MB/s", better: "higher"},
	{name: "peerstore.put_meta_ms", unit: "ms", better: "lower"},
	{name: "peer.put_shard_ms", unit: "ms", better: "lower"},
	{name: "peer.get_shard_mbps", unit: "MB/s", better: "higher"},
	{name: "peer.put_meta_ms", unit: "ms", better: "lower"},
	{name: "peer.rpcs_per_put", unit: "count", better: "lower"},
	{name: "peer.rpcs_per_get", unit: "count", better: "lower"},
	{name: "peer.failures", unit: "count", better: "lower"},

	{name: "gateway.put_mbps", unit: "MB/s", better: "higher"},
	{name: "gateway.get_mbps", unit: "MB/s", better: "higher"},
	{name: "gateway.put_self_ms", unit: "ms", better: "lower"},
	{name: "gateway.get_self_ms", unit: "ms", better: "lower"},
	{name: "gateway.shard_phase_ms", unit: "ms", better: "lower"},
	{name: "gateway.meta_phase_ms", unit: "ms", better: "lower"},
	{name: "gateway.degraded_get_mbps", unit: "MB/s", better: "higher"},
	{name: "gateway.rebuild_mbps", unit: "MB/s", better: "higher"},
	{name: "gateway.repair_amplification", unit: "ratio", better: "lower"},
	{name: "ratio.gateway_over_store", unit: "ratio", better: "higher"},

	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "proc.goroutines_peak", unit: "count", better: "lower"},
	{name: "proc.allocs_per_op", unit: "count", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}
