package main

// The metric tables. BENCHMARK.json at the repository root lists the same
// names with the same units (the smoke test holds the two together); the
// README says what each measures and which end-to-end metric it should move.

type metricDef struct{ name, unit string }

// endToEnd is what a client of the system sees. Every one is defined, and
// never zero, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"live_heap_mb", "MiB"},
}

// perLayer comes from the traced run. A value of 0 means the workload does
// not enter the layer. The "client." rows are client-seen figures that cannot
// carry a regression bound: undefined on some workload, or — p99_us and
// reopen_s — not held to 0.10 by two sets of one commit.
var perLayer = []metricDef{
	{"server.roundtrip_us", "us"},
	{"server.self_us", "us"},
	{"server.queue_depth_max", "count"},
	{"server.shed", "count"},
	{"hql.parse_us", "us"},
	{"hql.exec_us", "us"},
	{"algebra.plan_us", "us"},
	{"algebra.select_us", "us"},
	{"algebra.join_us", "us"},
	{"algebra.probe_share", "ratio"},
	{"core.evaluate_cold_us", "us"},
	{"core.evaluate_warm_us", "us"},
	{"core.evals_per_read", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.cache_evictions", "count"},
	{"hierarchy.subsumes_ns", "ns"},
	{"catalog.apply_us", "us"},
	{"storage.applytx_us", "us"},
	{"storage.sync_wait_us", "us"},
	{"storage.wal_records", "count"},
	{"storage.wal_bytes", "B"},
	{"storage.fsyncs", "count"},
	{"storage.records_per_fsync", "count"},
	{"storage.checkpoint_ms", "ms"},
	{"storage.checkpoint_stall_max_us", "us"},
	{"storage.replay_records_per_s", "1/s"},
	{"view.catchup_us", "us"},
	{"view.delta_share", "ratio"},
	{"view.recomputes", "count"},
	{"view.rows_us", "us"},
	{"subwire.deliver_us", "us"},
	{"repl.shipped_bytes_per_write", "B"},
	{"repl.applied_records", "count"},
	{"proc.allocs_per_op", "count"},
	{"proc.cpu_us_per_op", "us"},
	{"proc.gc_pause_ms", "ms"},
	{"device.fsync_p50_us", "us"},
	{"trace.overhead_share", "ratio"},
	{"client.p99_us", "us"},
	{"client.reopen_s", "s"},
	{"client.read_p50_us", "us"},
	{"client.read_p99_us", "us"},
	{"client.write_p50_us", "us"},
	{"client.write_p99_us", "us"},
	{"client.wal_bytes_per_write", "B"},
	{"client.feed_visible_p50_us", "us"},
	{"client.feed_visible_p99_us", "us"},
	{"client.replica_visible_p50_us", "us"},
	{"client.failed_share", "ratio"},
}

// pick returns the listed metrics of a result, 0 where the run set none.
func pick(defs []metricDef, got map[string]metric) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := got[d.name]
		if !ok {
			m = metric{Unit: d.unit}
		}
		out[d.name] = m
	}
	return out
}
