package main

// metricDef names one reported metric and its unit. The end-to-end
// list is what a run prints with --trace 0, the per-layer list what it
// prints with --trace 1; BENCHMARK.json at the checkout root lists the
// same names (checked by TestCatalogueMatchesBenchmarkJSON).
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer metrics. Counts are per round (one round is a workload's
// fixed unit of work), so they repeat exactly on a deterministic
// workload however many rounds fit in a run. A layer a workload does
// not exercise reports 0.
var perLayer = []metricDef{
	{"error_rate", "ratio"},
	{"bench.op_samples", "count"},
	{"bench.op_tail_pct", "%"},
	{"bench.rounds", "count"},
	{"bench.wall_tail_s", "s"},
	{"bench.setup_samples", "count"},
	{"bench.setup_tail_s", "s"},
	{"trace.overhead", "ratio"},
	{"trace.spans", "count"},

	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.heap_high_water", "count"},
	{"sim.mcycles_per_s", "Mcycles/s"},
	{"sim.handoff_share", "ratio"},
	{"sim.heap_share", "ratio"},
	{"sim.share", "ratio"},
	{"power.share", "ratio"},
	{"coherence.transfers", "count"},
	{"coherence.rmws", "count"},
	{"coherence.watcher_wakes", "count"},
	{"coherence.share", "ratio"},
	{"futex.waits", "count"},
	{"futex.wakes", "count"},
	{"futex.timeouts", "count"},
	{"futex.share", "ratio"},
	{"sched.share", "ratio"},
	{"core.share", "ratio"},
	{"machine.share", "ratio"},
	{"workload.share", "ratio"},

	{"scenario.compile_ms", "ms"},
	{"experiments.profiles_s", "s"},
	{"experiments.specs_s", "s"},
	{"experiments.share", "ratio"},

	{"sweep.cell_p50_ms", "ms"},
	{"sweep.cell_max_ms", "ms"},
	{"sweep.busy_s", "s"},
	{"sweep.utilisation", "ratio"},
	{"sweep.share", "ratio"},

	{"results.encode_ms", "ms"},
	{"results.decode_ms", "ms"},
	{"results.query_ms", "ms"},
	{"results.bytes_per_run", "bytes"},
	{"results.share", "ratio"},

	{"serve.submit_p50_ms", "ms"},
	{"serve.submit_tail_ms", "ms"},
	{"serve.submit_samples", "count"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_tail_ms", "ms"},
	{"serve.hit_samples", "count"},
	{"serve.query_p50_ms", "ms"},
	{"serve.query_tail_ms", "ms"},
	{"serve.query_samples", "count"},
	{"serve.post_accept_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.handler_p50_ms.post_runs", "ms"},
	{"serve.handler_p50_ms.get_run", "ms"},
	{"serve.handler_p50_ms.slice", "ms"},
	{"serve.handler_p50_ms.project", "ms"},
	{"serve.handler_p50_ms.diff", "ms"},
	{"serve.handler_p50_ms.events", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.runs_simulated", "count"},
	{"serve.evictions", "count"},
	{"serve.simulate_share", "ratio"},
	{"serve.share", "ratio"},

	{"fleet.survey_ms", "ms"},
	{"fleet.leases", "count"},
	{"fleet.steals", "count"},
	{"fleet.chunks_merged", "count"},
	{"fleet.chunks_discarded", "count"},
	{"fleet.worker_busy_share", "ratio"},
	{"fleet.tail_idle_s", "s"},
	{"fleet.share", "ratio"},

	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_share", "ratio"},
	{"other.share", "ratio"},
}

// shareBuckets maps each profile bucket (profile.go) onto the
// per-layer metric that reports its share of CPU self time.
var shareBuckets = map[string]string{
	"handoff":     "sim.handoff_share",
	"heap":        "sim.heap_share",
	"sim":         "sim.share",
	"power":       "power.share",
	"coherence":   "coherence.share",
	"futex":       "futex.share",
	"sched":       "sched.share",
	"core":        "core.share",
	"machine":     "machine.share",
	"workload":    "workload.share",
	"experiments": "experiments.share",
	"sweep":       "sweep.share",
	"results":     "results.share",
	"serve":       "serve.share",
	"fleet":       "fleet.share",
	"gc":          "runtime.gc_share",
	"other":       "other.share",
}
