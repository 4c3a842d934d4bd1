package main

// metricDef names one reported metric and its unit; BENCHMARK.json lists
// the same names and units (pinned by a test).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, from untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"edges_per_s", "edges/s"},
	{"rf", "ratio"},
	{"max_load", "ratio"},
	{"total_latency_s", "s"},
	{"alloc_mb", "MB"},
	{"lookup_p50_us", "us"},
	{"lookups_per_s", "1/s"},
}

// iterationLayers are the per-layer figures of one traced partitioning
// iteration (layerValues); perLayer adds the processing, serving and
// tracing figures measured once per graph or per lookup round.
var iterationLayers = []metricDef{
	{"stream.plan_s", "s"},
	{"stream.read_s", "s"},
	{"stream.batches", "count"},
	{"core.self_s", "s"},
	{"core.score_ops_per_edge", "ops/edge"},
	{"core.us_per_score_op", "us"},
	{"core.secondary_rescans", "count"},
	{"core.reassessments", "count"},
	{"core.promotions", "count"},
	{"core.demotions", "count"},
	{"core.refill_passes", "count"},
	{"scorepool.parallel_passes", "count"},
	{"scorepool.stolen_shards", "count"},
	{"scorepool.peak_helpers", "count"},
	{"vcache.peak_bytes", "bytes"},
	{"vcache.evicted", "count"},
	{"partition.self_s", "s"},
	{"runtime.spotlight_s", "s"},
	{"runtime.instance_skew", "ratio"},
	{"runtime.merge_s", "s"},
}

var perLayer = append(append([]metricDef(nil), iterationLayers...),
	metricDef{"engine.messages", "count"},
	metricDef{"engine.sim_s", "s"},
	metricDef{"serve.build_s", "s"},
	// The client-side lookup tail. It is reported here, without a bound,
	// because host contention moves it far more than the median: its
	// spread across seeds reached 0.42 on the 2-vCPU reference box.
	metricDef{"lookup_p99_us", "us"},
	metricDef{"serve.handler_p50_us", "us"},
	metricDef{"serve.handler_p99_us", "us"},
	metricDef{"serve.transport_p50_us", "us"},
	metricDef{"serve.requests", "count"},
	metricDef{"serve.errors", "count"},
	metricDef{"trace.overhead_pct", "%"},
	metricDef{"trace.lookup_overhead_pct", "%"},
)

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("e2ebench: undeclared metric " + name)
}
