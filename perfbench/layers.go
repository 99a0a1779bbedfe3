package main

// layerMetrics is every per-layer metric a traced run reports, with its
// unit. A workload that never calls a layer reports 0 for it: the layer
// did no work and spent no time.
var layerMetrics = []struct{ name, unit string }{
	{"dnswire.unpack_ns", "ns"},
	{"dnswire.unpack_allocs", "count"},
	{"dnswire.pack_ns", "ns"},
	{"dnswire.pack_allocs", "count"},
	{"dnsserver.self_us", "us"},
	{"dnsserver.allocs_per_q", "count"},
	{"dnsserver.shed", "count"},
	{"dnsserver.malformed", "count"},
	{"dnsserver.inflight_max", "count"},
	{"resolver.hit_self_us", "us"},
	{"resolver.hit_allocs", "count"},
	{"resolver.miss_self_us", "us"},
	{"resolver.miss_allocs", "count"},
	{"resolver.upstream_per_client", "ratio"},
	{"resolver.servfail_returned", "count"},
	{"ecscache.hit_ratio", "ratio"},
	{"ecscache.entries_per_name", "count"},
	{"ecscache.lookup_ns", "ns"},
	{"ecscache.insert_ns", "ns"},
	{"ecscache.evictions_per_insert", "ratio"},
	{"dnsclient.exchange_self_us", "us"},
	{"dnsclient.exchange_allocs", "count"},
	{"pipeline.exchange_us", "us"},
	{"pipeline.allocs_per_q", "count"},
	{"pipeline.retries", "count"},
	{"pipeline.timeouts", "count"},
	{"scanner.job_self_us", "us"},
	{"scanner.job_allocs", "count"},
	{"authority.handle_us", "us"},
	{"authority.allocs_per_q", "count"},
	{"traces.generate_s", "s"},
	{"cachesim.bounded_replay_ns_per_rec", "ns"},
	{"cachesim.blowup_ns_per_rec", "ns"},
	{"cachesim.cache_replay_ns_per_rec", "ns"},
	{"core.ext_evictions_s", "s"},
	{"core.ext_scale_s", "s"},
	{"stack.allocs_per_q", "count"},
	{"stack.layer_allocs_sum", "count"},
	{"recursor.fds_max", "count"},
	{"recursor.threads_max", "count"},
	{"recursor.rss_growth_mb", "MB"},
	{"authdns.fds_max", "count"},
	{"authdns.rss_growth_mb", "MB"},
	{"open.p50_ms", "ms"},
	{"open.p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.cpu_us_per_q", "us"},
	{"trace.qps", "1/s"},
	{"trace.overhead_pct", "%"},
}

// newTracedRun returns a run with every per-layer metric present at 0.
func newTracedRun() *run {
	r := newRun()
	for _, m := range layerMetrics {
		r.set(m.name, m.unit, 0)
	}
	return r
}

// setLayer sets a per-layer metric, keeping its declared unit.
func (r *run) setLayer(name string, v float64) {
	m, ok := r.res.Metrics[name]
	if !ok {
		panic("perfbench: undeclared layer metric " + name)
	}
	m.Value = v
	r.res.Metrics[name] = m
}
