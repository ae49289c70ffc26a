package main

// endToEndMetrics are the metrics every untraced run reports, on every
// workload. Each is measured by every workload: see README.md for what it
// means on each one.
var endToEndMetrics = []string{"setup_s", "wall_s", "peak_rss_mb"}

// perLayerMetrics are the metrics every traced run reports. A traced run
// measures the whole layer ladder whatever its workload, so the set does
// not depend on the workload; only trace.overhead and spec.* are measured
// on the workload's own inputs.
var perLayerMetrics = func() []string {
	names := []string{"graph.build_ms"}
	for _, f := range []string{"star", "tree", "grid", "gnp"} {
		for _, m := range []string{"decay.trial_ms", "radio.awake_slots", "radio.phys_rounds",
			"radio.ns_per_awake_slot", "radio.dense_speedup", "radio.shard_speedup"} {
			names = append(names, m+"."+f)
		}
	}
	for _, f := range []string{"cycle", "geometric", "gnp", "grid"} {
		for _, m := range []string{"core.trial_ms", "core.ns_per_lb_energy", "core.alloc_mb_per_trial"} {
			names = append(names, m+"."+f)
		}
	}
	names = append(names,
		"harness.parallel_eff",
		"spec.compile_ms", "spec.write_ms", "spec.artifact_kb",
		"dist.worker_ready_ms", "dist.overhead_ms_per_trial", "dist.tcp_overhead_ms_per_trial",
		"dist.leases", "dist.speculative_grants", "dist.revocations", "dist.dup_trial_ratio",
		"journal.overhead_ms_per_trial", "journal.append_us_p50", "journal.append_us_p99", "journal.replay_ms",
		"serve.admit_ms_p50", "serve.queue_ms_p50", "serve.queue_ms_p90", "serve.exec_ms_p50",
		"serve.hit_admit_ms_p50", "serve.fetch_ms_p50",
		"serve.cold_ms_p50", "serve.cold_ms_p90", "serve.hit_ms_p50", "serve.hit_ms_p99",
		"serve.executions", "serve.cache_hits", "serve.coalesced", "serve.rejected",
		"trace.overhead")
	for _, p := range []string{"radio", "decay", "graph", "core", "cluster", "vnet", "lbnet", "gc"} {
		names = append(names, "cpu."+p)
	}
	return names
}()
