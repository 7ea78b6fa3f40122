package main

// metricDef names one metric with its unit and direction. BENCHMARK.json
// carries the same list; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is measured with tracing off. Every workload reports every one;
// on frontend a trial is one sequential guest execution of the fuzz
// campaigns. Bounds are what the median may worsen by before a change is a
// regression; they sit at about three times the spread seen between ten
// runs on ten seeds.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"wall_s", "s", lower, 0.25},
	{"trials_per_s", "1/s", higher, 0.25},
	{"allocs_per_trial", "allocs", lower, 0.20},
	{"bytes_per_trial", "B", lower, 0.20},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// perLayer is measured by the traced pass, from outside each layer, on the
// artifacts of the workload's first unit.
var perLayer = []metricDef{
	// core: one span per pipeline stage of the first unit.
	{Name: "core.fuzz.ns", Unit: "ns", Better: lower},
	{Name: "core.profile.ns", Unit: "ns", Better: lower},
	{Name: "core.identify.ns", Unit: "ns", Better: lower},
	{Name: "core.generate.ns", Unit: "ns", Better: lower},
	{Name: "core.exec.ns", Unit: "ns", Better: lower},
	{Name: "core.triage.ns", Unit: "ns", Better: lower},
	{Name: "core.exec.share", Unit: "ratio", Better: lower},
	{Name: "core.fold.ns_per_test", Unit: "ns", Better: lower},
	{Name: "core.feedback_plan.ns_per_test", Unit: "ns", Better: lower},
	{Name: "core.state_cold.overhead_pct", Unit: "%", Better: lower},
	{Name: "core.resume_warm.ns_per_campaign", Unit: "ns", Better: lower},
	// sched: the explorer and its policy.
	{Name: "sched.explore.ns_per_trial", Unit: "ns", Better: lower},
	{Name: "sched.explore.allocs_per_trial", Unit: "allocs", Better: lower},
	{Name: "sched.explore.bytes_per_trial", Unit: "B", Better: lower},
	{Name: "sched.replay.ns_per_trial", Unit: "ns", Better: lower},
	{Name: "sched.replay.allocs_per_trial", Unit: "allocs", Better: lower},
	{Name: "sched.policy.ns_per_trial", Unit: "ns", Better: lower},
	{Name: "sched.explore_self.ns_per_trial", Unit: "ns", Better: lower},
	{Name: "sched.incidental_delta.ns_per_trial", Unit: "ns", Better: lower},
	{Name: "sched.channel.ns_per_trial", Unit: "ns", Better: lower},
	{Name: "sched.trials_per_test", Unit: "count", Better: lower},
	{Name: "sched.steps_per_trial", Unit: "count", Better: lower},
	{Name: "sched.switches_per_trial", Unit: "count", Better: lower},
	{Name: "sched.exercised_ratio", Unit: "ratio", Better: higher},
	{Name: "sched.mutated_replay.ns_per_trial", Unit: "ns", Better: lower},
	// vm, exec, kernel: the guest.
	{Name: "vm.restore.ns_per_trial", Unit: "ns", Better: lower},
	{Name: "vm.handoff.ns_per_switch", Unit: "ns", Better: lower},
	{Name: "exec.pair_seq.ns_per_trial", Unit: "ns", Better: lower},
	{Name: "exec.pair_seq.ns_per_step", Unit: "ns", Better: lower},
	{Name: "exec.pair_seq.allocs_per_trial", Unit: "allocs", Better: lower},
	{Name: "exec.sequential.ns_per_test", Unit: "ns", Better: lower},
	{Name: "exec.profile.ns_per_test", Unit: "ns", Better: lower},
	{Name: "exec.profile.allocs_per_access", Unit: "allocs", Better: lower},
	{Name: "exec.boot.ns", Unit: "ns", Better: lower},
	{Name: "exec.clone.ns", Unit: "ns", Better: lower},
	{Name: "kernel.fsck.ns_per_trial", Unit: "ns", Better: lower},
	// detect: the oracles.
	{Name: "detect.hb.ns_per_trial", Unit: "ns", Better: lower},
	{Name: "detect.hb.ns_per_access", Unit: "ns", Better: lower},
	{Name: "detect.hb.allocs_per_trial", Unit: "allocs", Better: lower},
	{Name: "detect.lockset.ns_per_trial", Unit: "ns", Better: lower},
	{Name: "detect.torn.ns_per_trial", Unit: "ns", Better: lower},
	{Name: "detect.console.ns_per_trial", Unit: "ns", Better: lower},
	{Name: "detect.analyze.ns_per_trial", Unit: "ns", Better: lower},
	{Name: "detect.analyze.allocs_per_trial", Unit: "allocs", Better: lower},
	{Name: "detect.reports_per_trial", Unit: "count", Better: higher},
	// cover: the two coverage metrics and the fuzzer's edges.
	{Name: "cover.pairs.ns_per_trial", Unit: "ns", Better: lower},
	{Name: "cover.pairs.allocs_per_trial", Unit: "allocs", Better: lower},
	{Name: "cover.segments.ns_per_trial", Unit: "ns", Better: lower},
	{Name: "cover.segments.allocs_per_trial", Unit: "allocs", Better: lower},
	{Name: "cover.segments.merge_ns_per_test", Unit: "ns", Better: lower},
	{Name: "cover.edges.ns_per_test", Unit: "ns", Better: lower},
	// fuzz, trace, corpus: stage 1.
	{Name: "fuzz.generate.ns_per_prog", Unit: "ns", Better: lower},
	{Name: "fuzz.admit_ratio", Unit: "ratio", Better: higher},
	{Name: "fuzz.crash_ratio", Unit: "ratio", Better: lower},
	{Name: "trace.filter.ns_per_access", Unit: "ns", Better: lower},
	{Name: "corpus.codec.ns_per_prog", Unit: "ns", Better: lower},
	// pmc, cluster: stages 2 and 3.
	{Name: "pmc.identify.ns_per_profile", Unit: "ns", Better: lower},
	{Name: "pmc.identify.allocs_per_profile", Unit: "allocs", Better: lower},
	{Name: "pmc.identify.speedup_w2", Unit: "x", Better: higher},
	{Name: "pmc.incremental.ns_per_profile", Unit: "ns", Better: lower},
	{Name: "pmc.incremental.append1_ns", Unit: "ns", Better: lower},
	{Name: "pmc.codec.ns_per_pmc", Unit: "ns", Better: lower},
	{Name: "pmc.pmcs_per_profile", Unit: "count", Better: higher},
	{Name: "cluster.sinspair.ns_per_pmc", Unit: "ns", Better: lower},
	{Name: "cluster.all_strategies.ns", Unit: "ns", Better: lower},
	{Name: "cluster.order.ns", Unit: "ns", Better: lower},
	// triage: report to repro.
	{Name: "triage.minimize.ns_per_finding", Unit: "ns", Better: lower},
	{Name: "triage.replays_per_finding", Unit: "count", Better: lower},
	{Name: "triage.shrink_ratio", Unit: "ratio", Better: lower},
	{Name: "triage.repro_rate", Unit: "ratio", Better: higher},
	// par: the worker pool (speed-ups read 0 when nproc < 2).
	{Name: "par.exec.speedup_w2", Unit: "x", Better: higher},
	{Name: "par.map.ns_per_unit", Unit: "ns", Better: lower},
	// queue, store, obs: the control plane's layers.
	{Name: "queue.push.ns_per_job", Unit: "ns", Better: lower},
	{Name: "queue.local_cycle.ns_per_job", Unit: "ns", Better: lower},
	{Name: "queue.tcp_cycle.ns_per_job", Unit: "ns", Better: lower},
	{Name: "queue.job.bytes", Unit: "B", Better: lower},
	{Name: "queue.redeliveries", Unit: "count", Better: lower},
	{Name: "store.put.ns_per_object", Unit: "ns", Better: lower},
	{Name: "store.get.ns_per_object", Unit: "ns", Better: lower},
	{Name: "store.bytes_per_campaign", Unit: "B", Better: lower},
	{Name: "store.objects_per_campaign", Unit: "count", Better: lower},
	{Name: "store.warm_hits", Unit: "count", Better: higher},
	{Name: "obs.counter.ns", Unit: "ns", Better: lower},
	{Name: "obs.emit.ns", Unit: "ns", Better: lower},
	{Name: "obs.span.ns", Unit: "ns", Better: lower},
	// Quality guards and stage costs that are exact at a fixed seed: a
	// speed-up that moves one of the first two changed behaviour.
	{Name: "issues_found", Unit: "count", Better: higher},
	{Name: "segments_per_ktrial", Unit: "count", Better: higher},
	{Name: "fuzz_execs_per_s", Unit: "1/s", Better: higher},
	{Name: "identify_oneshot_s", Unit: "s", Better: lower},
	{Name: "identify_incr_s", Unit: "s", Better: lower},
	// Diagnostics of the traced pass itself.
	{Name: "probe_coverage_pct", Unit: "%", Better: higher},
	{Name: "trace_overhead_pct", Unit: "%", Better: lower},
}
