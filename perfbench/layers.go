package main

// metricDef is one metric with the direction an improvement moves it;
// BENCHMARK.json lists the same tables.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// Host time is split by phase, then by the innermost repro/internal
// package on each profiled stack (see profile.go). Each phase lists the
// layers that do its work; samples in any other package of that phase
// land in its "other" bucket.
var phaseLayers = map[string][]string{
	"setup": {"store", "workload", "hotset", "layout", "core", "engine", "gc", "other"},
	"run":   {"sim", "lock", "pisa", "wal", "engine", "twopc", "netsim", "store", "workload", "gc", "other"},
	"serve": {"server", "txnwire", "loadgen", "engine_loop", "gc", "other"},
}

// perLayer is the per-layer table, in print order. Counters of a layer
// a workload does not exercise read 0.
var perLayer = func() []metricDef {
	var ms []metricDef
	for _, phase := range []string{"setup", "run", "serve"} {
		for _, l := range phaseLayers[phase] {
			ms = append(ms, metricDef{phase + "." + l + ".cpu_s", "s", "lower"})
		}
	}
	return append(ms, []metricDef{
		{"trace.overhead_frac", "ratio", "lower"},

		{"store.rows", "count", "lower"},
		{"core.detect_cache_hits", "count", "higher"},
		{"core.detect_cache_misses", "count", "lower"},
		{"hotset.on_switch", "count", "higher"},
		{"layout.tuples", "count", "higher"},
		{"setup.heap_mb", "MB", "lower"},

		{"sim.events", "count", "lower"},
		{"sim.events_per_commit", "count", "lower"},
		{"lock.acquired", "count", "lower"},
		{"lock.conflicts", "count", "lower"},
		{"lock.waits", "count", "lower"},
		{"lock.aborts", "count", "lower"},
		{"pisa.txns", "count", "higher"},
		{"pisa.single_pass_frac", "ratio", "higher"},
		{"pisa.recircs", "count", "lower"},
		{"pisa.holder_passes", "count", "lower"},
		{"wal.switch_records", "count", "lower"},
		{"wal.cold_records", "count", "lower"},
		{"engine.commits_hot", "count", "higher"},
		{"engine.commits_warm", "count", "higher"},
		{"engine.commits_cold", "count", "higher"},
		{"engine.aborts", "count", "lower"},
		{"engine.commit_ratio", "ratio", "higher"},
		{"sim_p99_us", "us", "lower"},
		{"sim_speedup_x", "x", "higher"},

		{"client.send_us", "us", "lower"},
		{"client.gen_late_p99_us", "us", "lower"},
		{"server.sim_per_wall", "ratio", "higher"},
		{"server.retries", "count", "lower"},
		{"server.rejected", "count", "lower"},
		{"p50_ms.low", "ms", "lower"},
		{"p99_ms.low", "ms", "lower"},
		{"p50_ms.mid", "ms", "lower"},
		{"p99_ms.mid", "ms", "lower"},
		{"p99_ms.high", "ms", "lower"},
		{"max_rate_ktps", "ktxn/s", "higher"},
	}...)
}()
