package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (checked by TestMetricNamesMatchBenchmark).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of a measured run (--trace 0), each the
// median over the run's iterations.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"flows_per_s", "1/s", "higher"},
	{"heap_live_mb", "MB", "lower"},
}

// cpuPackages are the internal packages the CPU split attributes
// samples to; "runtime" takes samples with no sslab/internal frame and
// "other" any internal package not listed.
var cpuPackages = []string{
	"netsim", "trafficgen", "seedfork", "entropy", "bloom", "replay",
	"sscrypto", "reaction", "probesim", "gfw", "detector", "fleet",
	"stats", "socks", "experiment", "probe", "capture", "region",
	"ssproto", "metrics", "runtime", "other",
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = func() []metricDef {
	var out []metricDef
	for _, p := range cpuPackages {
		out = append(out, metricDef{"cpu." + p, "frac", "lower"})
	}
	return append(out, []metricDef{
		{"cpu.samples", "count", "higher"},

		{"netsim.wheel_ns_per_timer", "ns", "lower"},
		{"netsim.heap_ns_per_event", "ns", "lower"},
		{"netsim.batch_ns_per_flow", "ns", "lower"},
		{"netsim.scalar_ns_per_flow", "ns", "lower"},
		{"trafficgen.ns_per_packet", "ns", "lower"},
		{"entropy.ns_per_payload", "ns", "lower"},
		{"replay.ns_per_check", "ns", "lower"},
		{"replay.filter_kb", "KB", "lower"},
		{"detector.ns_per_flow", "ns", "lower"},
		{"reaction.ns_per_probe_stream", "ns", "lower"},
		{"reaction.ns_per_probe_aead", "ns", "lower"},

		{"netsim.wheel_cascades_per_timer", "ratio", "lower"},
		{"netsim.wheel_anchors", "count", "lower"},
		{"netsim.heap_peak", "count", "lower"},
		{"netsim.events_per_flow", "ratio", "lower"},
		{"gfw.probes_per_flow", "ratio", "lower"},
		{"gfw.recorded_per_flow", "ratio", "lower"},
		{"gfw.blocks", "count", "lower"},
		{"fleet.replacements", "count", "lower"},
		{"fleet.wakeups_per_flow", "ratio", "lower"},
		{"probesim.probes", "count", "higher"},

		{"fleet.user_hours_per_s", "1/s", "higher"},
		{"fleet.snapshot_s", "s", "lower"},
		{"fleet.restore_s", "s", "lower"},
		{"fleet.snapshot_mb", "MB", "lower"},
		{"fleet.report_s", "s", "lower"},
		{"fleet.slice_p50_s", "s", "lower"},
		{"fleet.slice_max_s", "s", "lower"},
		{"fleet.pool_speedup", "ratio", "higher"},
		{"experiment.shadowsocks_s", "s", "lower"},
		{"experiment.sink_s", "s", "lower"},
		{"experiment.matrix_s", "s", "lower"},
		{"experiment.probecost_s", "s", "lower"},

		{"gc.alloc_mb", "MB", "lower"},
		{"gc.cycles", "count", "lower"},
		{"trace.overhead_frac", "frac", "lower"},
		{"attributed_frac", "frac", "higher"},
	}...)
}()
