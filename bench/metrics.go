package main

// The benchmark's vocabulary. BENCHMARK.json at the repository root mirrors
// these tables (bench_test.go holds the two together); later issues cite a
// workload and a metric by the names below.

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlEngineScatter = "engine-scatter"
	wlWireClosed    = "wire-closed"
	wlWireOpen      = "wire-open"
	wlSimSkewed     = "sim-skewed"
)

var workloadNames = []string{wlEngineScatter, wlWireClosed, wlWireOpen, wlSimSkewed}

// metricDef names one reported number. bound and better are set on
// end-to-end metrics only: bound is the share of the baseline median by
// which a later change may worsen the metric.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is measured with tracing off and printed by a --trace 0 run. The
// timed metrics' bounds are the widest the run contract allows: on the
// 2-core sandbox a 20 s mean moves 3-17 % between runs of one binary
// (README, noise notes), and a bound must stay above that spread.
var endToEnd = []metricDef{
	{"pps", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"sim_throughput", "frac", "higher", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is printed by a --trace 1 run. A layer the workload does not
// touch reports 0 (the run contract wants every name on every workload).
var perLayer = []metricDef{
	// Set-up spans: medians over the set-up repetitions (compile and
	// construct over 20 extra repeats, so work moved into them shows).
	{name: "compiler.compile_ms", unit: "ms", better: "lower"},
	{name: "bytecode.compile_ms", unit: "ms", better: "lower"},
	{name: "workload.gen_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "core.predict_ms", unit: "ms", better: "lower"},
	{name: "equiv.verify_ms", unit: "ms", better: "lower"},
	{name: "dataplane.start_us", unit: "us", better: "lower"},
	{name: "server.start_ms", unit: "ms", better: "lower"},
	{name: "server.shutdown_ms", unit: "ms", better: "lower"},
	{name: "warmup_ms", unit: "ms", better: "lower"},

	// Ladder: ns per packet of each layer alone on the workload's program
	// and trace. banzai.process + dataplane.added + server.added equals
	// the top rung.
	{name: "ir.exec_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "bytecode.exec_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "banzai.process_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "dataplane.w1_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "dataplane.w2_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "dataplane.single_submit_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "dataplane.added_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "dataplane.scale_w2_over_w1", unit: "ratio", better: "higher"},
	{name: "screp.w1_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "screp.w2_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "screp.over_sharded", unit: "ratio", better: "lower"},
	{name: "server.wire_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "server.added_ns_per_pkt", unit: "ns", better: "lower"},

	// dataplane counts and waits over the traced region.
	{name: "dataplane.steers_per_pkt", unit: "count", better: "lower"},
	{name: "dataplane.parks_per_pkt", unit: "count", better: "lower"},
	{name: "dataplane.wasted_per_pkt", unit: "count", better: "lower"},
	{name: "dataplane.shard_moves_per_kpkt", unit: "count", better: "lower"},
	{name: "dataplane.window_inuse_mean", unit: "count", better: "lower"},
	{name: "dataplane.mailbox_depth_mean", unit: "count", better: "lower"},
	{name: "dataplane.parked_mean", unit: "count", better: "lower"},
	{name: "dataplane.tickets_pending_mean", unit: "count", better: "lower"},
	{name: "dataplane.tickets_depth_max", unit: "count", better: "lower"},
	{name: "dataplane.worker_busy_frac", unit: "frac", better: "lower"},
	{name: "dataplane.worker_imbalance", unit: "frac", better: "lower"},
	{name: "dataplane.lat_p99_us", unit: "us", better: "lower"},
	{name: "dataplane.span_ingress_wait_us", unit: "us", better: "lower"},
	{name: "dataplane.span_window_wait_us", unit: "us", better: "lower"},
	{name: "dataplane.span_admit_us", unit: "us", better: "lower"},
	{name: "dataplane.span_crossbar_us", unit: "us", better: "lower"},
	{name: "dataplane.span_exec_us", unit: "us", better: "lower"},
	{name: "dataplane.span_ticket_wait_us", unit: "us", better: "lower"},
	{name: "dataplane.span_egress_us", unit: "us", better: "lower"},
	{name: "dataplane.span_total_us", unit: "us", better: "lower"},
	{name: "dataplane.spans_dropped", unit: "count", better: "lower"},

	// server: the wire workloads only.
	{name: "server.lat_p99_us", unit: "us", better: "lower"},
	{name: "server.lat_p999_us", unit: "us", better: "lower"},
	{name: "server.ingress_depth_mean", unit: "count", better: "lower"},
	{name: "server.ingress_dropped", unit: "count", better: "lower"},
	{name: "server.decode_errors", unit: "count", better: "lower"},
	{name: "server.allocs_per_pkt", unit: "count", better: "lower"},
	{name: "server.alloc_bytes_per_pkt", unit: "bytes", better: "lower"},
	{name: "server.achieved_over_offered", unit: "frac", better: "higher"},
	{name: "trace.coverage_frac", unit: "frac", better: "higher"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},

	// tenant: wire-open only.
	{name: "tenant.a_pps", unit: "1/s", better: "higher"},
	{name: "tenant.b_pps", unit: "1/s", better: "higher"},
	{name: "tenant.a_lat_p50_us", unit: "us", better: "lower"},
	{name: "tenant.b_lat_p50_us", unit: "us", better: "lower"},
	{name: "tenant.quota_shed", unit: "count", better: "lower"},
	{name: "tenant.quota_inuse_mean", unit: "count", better: "lower"},
	{name: "tenant.swap_ms", unit: "ms", better: "lower"},
	{name: "tenant.versions_retained", unit: "count", better: "lower"},

	// core and sharding: sim-skewed only.
	{name: "core.host_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "core.host_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "core.cycles", unit: "count", better: "lower"},
	{name: "core.mean_latency_cycles", unit: "count", better: "lower"},
	{name: "core.p99_latency_cycles", unit: "count", better: "lower"},
	{name: "core.max_fifo_depth", unit: "count", better: "lower"},
	{name: "core.shard_moves", unit: "count", better: "lower"},
	{name: "core.wasted_visits", unit: "count", better: "lower"},
	{name: "core.c1_violating", unit: "count", better: "lower"},
	{name: "core.ideal_throughput", unit: "frac", better: "higher"},
	{name: "core.recirc_throughput", unit: "frac", better: "higher"},
	{name: "core.fullsweep_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "sharding.remap_us", unit: "us", better: "lower"},

	// process: deltas over the traced region.
	{name: "proc.cpu_us_per_pkt", unit: "us", better: "lower"},
	{name: "proc.ctxsw_per_kpkt", unit: "count", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.rss_peak_mb", unit: "mb", better: "lower"},
	{name: "proc.heap_inuse_mb", unit: "mb", better: "lower"},
	{name: "proc.goroutines", unit: "count", better: "lower"},
	{name: "proc.calib_ns_per_iter", unit: "ns", better: "lower"},
}
