package main

// metricSpec is one declared metric. The two lists mirror the
// end_to_end and per_layer entries of BENCHMARK.json (a test keeps
// them in step). Every workload reports every metric of the list its
// mode prints; README.md defines each metric per workload.
type metricSpec struct {
	name, unit string
}

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_ref", "ref"},
}

// perLayer metrics come from the traced run. A layer that does no work
// in a workload reports 0 there (serve's timed phase simulates
// nothing; broadcast and dense never touch the sweep layer).
var perLayer = []metricSpec{
	{"sim.rounds", "count"},
	{"sim.wakes", "count"},
	{"sim.txs", "count"},
	{"sim.phase_a_s", "s"},
	{"sim.phase_b_s", "s"},
	{"sim.clock_s", "s"},
	{"sim.phase_a_ns_per_wake", "ns"},
	{"sim.phase_b_ns_per_round", "ns"},
	{"core.build_s", "s"},
	{"go.mallocs", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.heap_bytes_per_device", "bytes"},
	{"proc.peak_rss_mb", "MB"},
	{"experiment.cells", "count"},
	{"experiment.cell_s_p50", "s"},
	{"experiment.cell_s_max", "s"},
	{"sweep.grid_ms_p50", "ms"},
	{"sweep.key_us_p50", "us"},
	{"sweep.get_us_p50", "us"},
	{"sweep.run_ms_p50", "ms"},
	{"sweep.cache_bytes_per_req", "bytes"},
	{"sweep.hit_ratio", "ratio"},
	{"sweep.errors", "count"},
	{"serve.http_ms_p50", "ms"},
	{"wall.op_ms_p50", "ms"},
	{"wall.ops_per_s", "1/s"},
	{"op.tail_ms", "ms"},
	{"op.tail_pct", "percentile"},
	{"op.samples", "count"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_pct", "%"},
}

// unitOf returns the declared unit of a metric; an undeclared name is
// a benchmark bug and panics.
func unitOf(name string) string {
	for _, l := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range l {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// zeroLayers reports 0 for every per-layer metric, so a traced run
// only sets the layers its workload exercises.
func zeroLayers(e *env) {
	for _, m := range perLayer {
		e.set(m.name, 0)
	}
}
