package main

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names; the smoke test checks the two agree.
type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics, measured untraced. "op" is one
// record-and-encode on record, and one recording taken from its bytes
// to a verified reproduction on diagnose and always-on.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"steps_per_s", "steps/s"},
	{"sketch_bytes_per_kstep", "B"},
	{"ok_frac", "ratio"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the --trace 1 metrics, named <module>.<quantity>.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sched.ns_per_step", "ns"},
		{"sched.handoffs_per_step", "ratio"},
		{"sched.fastpath_frac", "ratio"},
		{"sched.allocs_per_step", "allocs"},
		{"sketch.ns_per_event.sync", "ns"},
		{"sketch.ns_per_event.rw", "ns"},
		{"trace.encode_ns_per_entry", "ns"},
		{"trace.decode_ns_per_entry", "ns"},
		{"trace.window_entries_frac", "ratio"},
		{"race.ns_per_event", "ns"},
		{"race.pairs_per_kevent", "pairs"},
		{"core.search_ms_p50", "ms"},
		{"core.search_ms_p90", "ms"},
		{"core.reproduce_ms_p50", "ms"},
		{"core.attempt_ms_p50", "ms"},
		{"core.steps_per_attempt", "steps"},
		{"core.divergence_frac", "ratio"},
		{"core.flips_per_attempt", "flips"},
		{"core.ring_record_ns_per_step", "ns"},
		{"core.restore_ms_p50", "ms"},
		{"search.useful_frac", "ratio"},
		{"search.directed_frac", "ratio"},
		{"search.attempts_per_repro", "attempts"},
		{"exec.worker_util", "ratio"},
		{"exec.occupancy_mean", "workers"},
		{"gc.alloc_bytes_per_op", "B"},
		{"obs.trace_overhead_frac", "ratio"},
	}
	for _, m := range cpuModules {
		defs = append(defs, metricDef{"cpu_share." + m, "ratio"})
	}
	return defs
}()

// metricSet collects values for one list of metric definitions; every
// defined metric starts at 0, the value for a layer the workload does
// not exercise.
type metricSet struct {
	units map[string]string
	m     map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	s := &metricSet{units: map[string]string{}, m: map[string]metric{}}
	for _, d := range defs {
		s.units[d.name] = d.unit
		s.m[d.name] = metric{0, d.unit}
	}
	return s
}

// put sets a defined metric; an undefined name is a programming error.
func (s *metricSet) put(name string, v float64) {
	unit, ok := s.units[name]
	if !ok {
		panic("reprobench: undefined metric " + name)
	}
	s.m[name] = metric{v, unit}
}
