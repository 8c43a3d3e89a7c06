package main

import "time"

// metricDef names one metric. All end-to-end metrics are better when
// lower.
type metricDef struct {
	name, unit string
	// bound is the driver's regression bound, as in BENCHMARK.json: the
	// share of the first median by which a second may be worse. It is
	// sized to what this benchmark measured across ten seeds on a shared
	// 2-core host (see README.md), not to what a quiet host would allow.
	bound float64
	// abs is the floor -compare puts under bound·median.
	abs float64
	// exact marks a host-independent metric: one value per workload and
	// seed. -compare runs both sides on one seed, so there it must repeat
	// to within abs alone; the driver compares across seeds, under bound.
	exact bool
}

var endToEnd = []metricDef{
	{name: "campaign_wall_s", unit: "s", bound: 0.25},
	{name: "cpu_s", unit: "s", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.15},
	{name: "setup_s", unit: "s", bound: 0.25, abs: 1},
	{name: "mfact_err_pct", unit: "%", bound: 0.25, abs: 0.05, exact: true},
	{name: "packet_err_pct", unit: "%", bound: 0.25, abs: 0.05, exact: true},
	{name: "flow_err_pct", unit: "%", bound: 0.25, abs: 0.05, exact: true},
	{name: "packetflow_err_pct", unit: "%", bound: 0.25, abs: 0.05, exact: true},
}

// failedShare is reported beside the end-to-end metrics but is not one
// of the driver's (it is 0 on every workload, and the driver reads
// failures from attempted/failed); any increase is a regression.
var failedShare = metricDef{name: "failed_share", unit: "share", exact: true}

// perLayer lists the traced run's metrics in report order.
var perLayer = func() []metricDef {
	m := func(name, unit string) metricDef { return metricDef{name: name, unit: unit} }
	out := []metricDef{
		m("spec.compile_ms", "ms"),
		m("workload.generate_ms", "ms"), m("workload.stamp_ms", "ms"), m("workload.trace_events", "count"),
		m("trace.encode_v3_ms", "ms"), m("trace.open_mapped_ms", "ms"), m("trace.bytes_v3", "B"),
		m("tracecache.acquire_miss_ms", "ms"), m("tracecache.publish_ms", "ms"), m("tracecache.acquire_hit_ms", "ms"),
		m("tracecache.hits", "count"), m("tracecache.misses", "count"), m("tracecache.bytes_written", "B"),
		m("machine.new_ms", "ms"),
	}
	for _, s := range schemeNames {
		out = append(out,
			m("scheme."+s+".run_ms", "ms"), m("scheme."+s+".events", "count"),
			m("scheme."+s+".ns_per_event", "ns"), m("scheme."+s+".allocs_per_event", "allocs/event"),
			m("scheme."+s+".unsupported", "count"), m("scheme."+s+".failed", "count"))
	}
	for _, s := range schemeNames[1:] {
		out = append(out, m("cost_ratio."+s+"_over_mfact", "x"))
	}
	for _, s := range schemeNames[1:] {
		out = append(out, m("simnet."+s+".ns_per_event", "ns"))
	}
	return append(out,
		m("des.engine.ns_per_event", "ns"),
		m("features.extract_ms", "ms"),
		m("core.checkpoint_append_ms", "ms"), m("core.results_save_ms", "ms"), m("core.results_load_ms", "ms"),
		m("core.render_ms", "ms"), m("core.figures_ms", "ms"),
		m("classifier.prediction_study_ms", "ms"),
		m("triage.train_ms", "ms"), m("triage.plan_ms", "ms"), m("triage.frontier_ms", "ms"),
		m("triage.escalated_share", "share"),
		m("core.pool_speedup_w2", "x"),
		m("harness.build_s", "s"), m("harness.traced_root_ms", "ms"), m("harness.unattributed_ms", "ms"),
		m("harness.trace_overhead_pct", "%"), m("harness.walk_vs_child_pct", "%"), m("harness.spin_ms", "ms"),
	)
}()

// layerMetrics reduces one traced walk to the per-layer metrics that
// come from its spans and counters. Times are sums over the manifest.
func layerMetrics(rec *recorder, out *walkOut) map[string]float64 {
	dur, self := totals(rec.spans)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	m := map[string]float64{
		"spec.compile_ms":       ms(dur["spec.compile"]),
		"workload.generate_ms":  ms(dur["probe.workload.generate"]),
		"workload.stamp_ms":     ms(dur["workload.materialize"] - dur["probe.workload.generate"]),
		"workload.trace_events": rec.counters["workload.trace_events"],
		"trace.encode_v3_ms":    ms(dur["probe.trace.encode_v3"]),
		"trace.open_mapped_ms":  ms(dur["probe.trace.open_mapped"]),
		"trace.bytes_v3":        rec.counters["trace.bytes_v3"],
		// A miss's self time is what is left once materialization is
		// taken out: encoding, checksumming, three fsyncs and renames.
		"tracecache.acquire_miss_ms":     ms(dur["tracecache.acquire_miss"]),
		"tracecache.publish_ms":          ms(self["tracecache.acquire_miss"]),
		"tracecache.acquire_hit_ms":      ms(dur["tracecache.acquire_hit"]),
		"tracecache.hits":                float64(out.cache.Hits),
		"tracecache.misses":              float64(out.cache.Misses),
		"tracecache.bytes_written":       float64(out.cache.BytesWritten),
		"machine.new_ms":                 ms(dur["machine.new"]),
		"features.extract_ms":            ms(dur["features.extract"]),
		"core.checkpoint_append_ms":      ms(dur["core.checkpoint_append"]),
		"core.results_save_ms":           ms(dur["core.results_save"]),
		"core.results_load_ms":           ms(dur["probe.core.results_load"]),
		"core.render_ms":                 ms(dur["core.render"]),
		"core.figures_ms":                ms(dur["core.figures"]),
		"classifier.prediction_study_ms": ms(dur["probe.classifier.prediction_study"]),
		"triage.train_ms":                ms(dur["triage.train"]),
		"triage.plan_ms":                 ms(dur["triage.plan"]),
		"triage.frontier_ms":             ms(dur["probe.triage.frontier"]),
		"harness.traced_root_ms":         ms(dur["campaign"]),
		// Time inside the root that no layer span covers: the walk's own
		// loop glue and the per-trace bookkeeping between layer calls.
		"harness.unattributed_ms": ms(self["campaign"] + self["trace"]),
	}
	for _, s := range schemeNames {
		run, events := dur["scheme."+s+".run"], rec.counters["scheme."+s+".events"]
		m["scheme."+s+".run_ms"] = ms(run)
		m["scheme."+s+".events"] = events
		m["scheme."+s+".unsupported"] = rec.counters["scheme."+s+".unsupported"]
		m["scheme."+s+".failed"] = rec.counters["scheme."+s+".failed"]
		if events > 0 {
			m["scheme."+s+".ns_per_event"] = float64(run) / events
			m["scheme."+s+".allocs_per_event"] = rec.counters["scheme."+s+".allocs"] / events
		}
	}
	for _, s := range schemeNames[1:] {
		if model := dur["scheme.mfact.run"]; model > 0 {
			m["cost_ratio."+s+"_over_mfact"] = float64(dur["scheme."+s+".run"]) / float64(model)
		}
	}
	return m
}
