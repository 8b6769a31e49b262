package main

import (
	"sort"

	"dui/internal/robustness"
)

// metricDecl declares one metric: its name, unit, and which direction is
// better. BENCHMARK.json declares the same set; a test keeps them equal.
type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the lab sees, reported by every
// untraced run of every workload. What an op and a request are depends on
// the workload; see the README.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "op/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"rss_mib", "MiB", "lower"},
}

// perLayer returns the traced run's metrics. Every traced run reports all
// of them; a layer a workload never calls reports 0 there.
func perLayer() []metricDecl {
	var out []metricDecl
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDecl{n, unit, better})
		}
	}
	// matrix: the system packages and their guards, one row per arm.
	for _, sys := range robustness.SystemNames() {
		add("s", "lower", "system."+sys+".unguarded_s", "system."+sys+".guarded_s")
	}
	add("ms", "lower", "robustness.trial_p50_ms", "robustness.trial_p90_ms")
	add("count", "lower", "supervisor.checks")
	// matrix and fuzz: the trial runner and the campaign layer.
	add("ratio", "higher", "runner.parallel_eff")
	add("s", "lower", "campaign.overhead_s")
	// matrix, fuzz and service: the trial journal.
	add("us", "lower", "journal.append_us")
	// fuzz: generator, scenario builder, engine with its audits, shrinker.
	add("s", "lower", "fuzz.generate_s", "scenario.build_s", "scenario.run_s", "fuzz.shrink_s")
	add("count", "lower", "netsim.events")
	add("ns", "lower", "netsim.ns_per_event")
	add("count", "lower", "fuzz.findings", "fuzz.shrink_runs")
	// pop: the flow generator, the monitor bank, the shard merge.
	add("ns", "lower", "trace.ns_per_pkt", "blink.feed_ns_per_pkt")
	add("s", "lower", "popscale.merge_s")
	add("count", "lower", "pop.packets")
	// service: the campaign server's request phases and its result cache.
	add("ms", "lower",
		"campaign.submit_p50_ms", "campaign.submit_p90_ms",
		"campaign.queue_wait_p50_ms", "campaign.queue_wait_p90_ms",
		"campaign.exec_p50_ms", "campaign.result_p50_ms",
		"service.cold_p50_ms", "service.cold_p90_ms",
		"service.hit_p50_ms", "service.hit_p99_ms")
	add("us", "lower", "campaign.cache_get_us", "campaign.cache_put_us")
	add("ratio", "higher", "campaign.hit_share")
	// every workload: flat CPU share by package, and the cost of tracing.
	var pkgs []string
	for _, name := range cpuPackages {
		pkgs = append(pkgs, name)
	}
	sort.Strings(pkgs)
	for _, name := range pkgs {
		add("ratio", "lower", "cpu."+name+".share")
	}
	add("s", "lower", "trace_overhead_s")
	return out
}
