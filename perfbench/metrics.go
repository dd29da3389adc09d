package main

// metricDef describes one reported metric. The end-to-end and per-layer
// tables below are the single source of the names the benchmark prints;
// a test holds them equal to BENCHMARK.json.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Moves lists the end-to-end metrics, each as "<metric> on
	// <workload>", that a change in this layer metric is predicted to
	// move. On every other workload the prediction is no change.
	Moves []string
}

// Workload names.
const (
	wLatestHot   = "latest-hot"
	wHistoryCold = "history-cold"
	wCommit2PC   = "commit-2pc"
)

// endToEnd are the bounded metrics a user of the library sees, printed
// with tracing off. They are the figures that stay steady when the host
// steals CPU from the benchmark's guest: CPU time per operation, median
// latencies, storage and memory footprint, and set-up CPU time.
var endToEnd = []metricDef{
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "read_p50_us", Unit: "us", Better: "lower"},
	{Name: "write_p50_us", Unit: "us", Better: "lower"},
	{Name: "scan_p50_us", Unit: "us", Better: "lower"},
	{Name: "space_amp", Unit: "ratio", Better: "lower"},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// unbounded are end-to-end metrics printed beside endToEnd but left out
// of BENCHMARK.json: wall-clock throughput, tail latency and peak memory
// follow the CPU the host steals from the guest, which changed them by
// 30% to 130% between runs of the same code, more than a bound can hold.
var unbounded = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "read_p99_us", Unit: "us", Better: "lower"},
	{Name: "write_p99_us", Unit: "us", Better: "lower"},
	{Name: "scan_p99_us", Unit: "us", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "setup_wall_s", Unit: "s", Better: "lower"},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
}

func on(metric, workload string) string { return metric + " on " + workload }

var allWorkloads = []string{wLatestHot, wHistoryCold, wCommit2PC}

func onAll(metric string) []string {
	var out []string
	for _, w := range allWorkloads {
		out = append(out, on(metric, w))
	}
	return out
}

// perLayer are the single-layer metrics, printed by the traced run.
var perLayer = []metricDef{
	// internal/txn, timed around DB.View / DB.Update.
	{Name: "txn.pin_us", Unit: "us", Better: "lower", Moves: []string{on("read_p50_us", wLatestHot)}},
	{Name: "txn.begin_us", Unit: "us", Better: "lower", Moves: []string{on("write_p99_us", wCommit2PC)}},
	{Name: "txn.begin_p99_us", Unit: "us", Better: "lower", Moves: []string{on("write_p99_us", wCommit2PC)}},
	{Name: "txn.commit_local_p50_us", Unit: "us", Better: "lower", Moves: []string{on("write_p50_us", wCommit2PC), on("ops_per_s", wCommit2PC)}},
	{Name: "txn.commit_local_p99_us", Unit: "us", Better: "lower", Moves: []string{on("write_p99_us", wCommit2PC)}},
	{Name: "txn.commit_2pc_p50_us", Unit: "us", Better: "lower", Moves: []string{on("write_p50_us", wCommit2PC), on("ops_per_s", wCommit2PC)}},
	{Name: "txn.commit_2pc_p99_us", Unit: "us", Better: "lower", Moves: []string{on("write_p99_us", wCommit2PC)}},
	{Name: "txn.restarts_per_update", Unit: "count", Better: "lower", Moves: []string{on("write_p99_us", wCommit2PC)}},
	{Name: "txn.engine_commit_p50_us", Unit: "us", Better: "lower", Moves: []string{on("write_p50_us", wCommit2PC)}},
	{Name: "txn.engine_commit_p99_us", Unit: "us", Better: "lower", Moves: []string{on("write_p99_us", wCommit2PC)}},
	{Name: "txn.aborts", Unit: "count", Better: "lower", Moves: []string{on("write_p99_us", wCommit2PC)}},

	// internal/core, timed around Tx.* inside the callback.
	{Name: "core.read_latest_us", Unit: "us", Better: "lower", Moves: []string{on("read_p50_us", wLatestHot)}},
	{Name: "core.read_version_us", Unit: "us", Better: "lower", Moves: []string{on("read_p50_us", wHistoryCold), on("read_p99_us", wHistoryCold)}},
	{Name: "core.asof_us", Unit: "us", Better: "lower", Moves: []string{on("read_p50_us", wHistoryCold), on("read_p99_us", wHistoryCold)}},
	{Name: "core.history_us", Unit: "us", Better: "lower", Moves: []string{on("scan_p50_us", wHistoryCold)}},
	{Name: "core.history_len", Unit: "count", Better: "lower", Moves: []string{on("scan_p50_us", wHistoryCold)}},
	{Name: "core.dprev_walk_mean", Unit: "count", Better: "lower", Moves: []string{on("scan_p50_us", wHistoryCold)}},
	{Name: "core.tprev_walk_mean", Unit: "count", Better: "lower", Moves: []string{on("scan_p50_us", wHistoryCold)}},
	{Name: "core.extent_item_us", Unit: "us", Better: "lower", Moves: []string{on("scan_p50_us", wCommit2PC)}},
	{Name: "core.new_version_us", Unit: "us", Better: "lower", Moves: []string{on("write_p50_us", wLatestHot), on("write_p50_us", wHistoryCold)}},
	{Name: "core.update_latest_us", Unit: "us", Better: "lower", Moves: []string{on("write_p50_us", wCommit2PC)}},
	{Name: "core.ids_per_lease", Unit: "count", Better: "higher", Moves: onAll("setup_s")},

	// internal/derefcache and internal/matcache, from db.Metrics().
	{Name: "derefcache.hit_ratio", Unit: "ratio", Better: "higher", Moves: []string{on("read_p50_us", wLatestHot)}},
	{Name: "derefcache.evictions", Unit: "count", Better: "lower", Moves: []string{on("read_p50_us", wLatestHot)}},
	{Name: "matcache.hit_ratio", Unit: "ratio", Better: "higher", Moves: []string{on("read_p50_us", wHistoryCold)}},
	{Name: "matcache.evictions", Unit: "count", Better: "lower", Moves: []string{on("read_p50_us", wHistoryCold)}},

	// internal/delta and the background compactor.
	{Name: "delta.chain_len_mean", Unit: "count", Better: "lower", Moves: []string{on("read_p99_us", wHistoryCold), on("space_amp", wHistoryCold)}},
	{Name: "delta.demotions", Unit: "count", Better: "higher", Moves: []string{on("read_p99_us", wHistoryCold), on("space_amp", wHistoryCold)}},
	{Name: "delta.bytes_saved", Unit: "bytes", Better: "higher", Moves: []string{on("read_p99_us", wHistoryCold), on("space_amp", wHistoryCold)}},
	{Name: "compact.passes", Unit: "count", Better: "lower", Moves: []string{on("ops_per_s", wHistoryCold), on("write_p99_us", wHistoryCold)}},
	{Name: "compact.objects", Unit: "count", Better: "lower", Moves: []string{on("ops_per_s", wHistoryCold), on("write_p99_us", wHistoryCold)}},
	{Name: "compact.busy_ms", Unit: "ms", Better: "lower", Moves: []string{on("ops_per_s", wHistoryCold), on("write_p99_us", wHistoryCold)}},
	{Name: "compact.p99_us", Unit: "us", Better: "lower", Moves: []string{on("ops_per_s", wHistoryCold), on("write_p99_us", wHistoryCold)}},

	// internal/storage: buffer pool and snapshot pages.
	{Name: "storage.pool_hit_ratio", Unit: "ratio", Better: "higher", Moves: []string{on("read_p99_us", wHistoryCold)}},
	{Name: "storage.pool_misses_per_op", Unit: "count", Better: "lower", Moves: []string{on("read_p99_us", wHistoryCold)}},
	{Name: "storage.pool_evictions", Unit: "count", Better: "lower", Moves: []string{on("read_p99_us", wHistoryCold)}},
	{Name: "storage.snapshot_pages_max", Unit: "pages", Better: "lower", Moves: []string{on("read_p99_us", wHistoryCold)}},

	// internal/wal.
	{Name: "wal.checkpoints", Unit: "count", Better: "lower", Moves: []string{on("write_p99_us", wCommit2PC), on("write_p99_us", wLatestHot)}},
	{Name: "wal.checkpoint_p99_us", Unit: "us", Better: "lower", Moves: []string{on("write_p99_us", wCommit2PC), on("write_p99_us", wLatestHot)}},

	// internal/btree and internal/codec (reached only through core),
	// from the traced window's CPU profile, plus the Go runtime.
	{Name: "cpu.btree_frac", Unit: "ratio", Better: "lower", Moves: onAll("cpu_us_per_op")},
	{Name: "cpu.codec_frac", Unit: "ratio", Better: "lower", Moves: onAll("cpu_us_per_op")},
	{Name: "cpu.gc_frac", Unit: "ratio", Better: "lower", Moves: onAll("cpu_us_per_op")},
	{Name: "go.allocs_per_op", Unit: "count", Better: "lower", Moves: onAll("cpu_us_per_op")},
	{Name: "go.bytes_per_op", Unit: "bytes", Better: "lower", Moves: onAll("cpu_us_per_op")},

	// Self time per layer, derived from the benchmark's call spans.
	{Name: "self.bench_us", Unit: "us", Better: "lower", Moves: onAll("ops_per_s")},
	{Name: "self.txn_us", Unit: "us", Better: "lower", Moves: onAll("ops_per_s")},
	{Name: "self.core_us", Unit: "us", Better: "lower", Moves: onAll("ops_per_s")},

	// The engine's own Options.Tracer events, traced window only.
	{Name: "trace.publish_us", Unit: "us", Better: "lower", Moves: []string{on("write_p50_us", wCommit2PC)}},
	{Name: "trace.dropped", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}
