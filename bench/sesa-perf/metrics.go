package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef declares one reported metric. The tables below, with
// microBenches in micro.go, are the single source of the benchmark's metric
// names; BENCHMARK.json at the repository root must declare exactly the
// same set (schema_test.go checks it).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off and reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"job_ms_p50", "ms", "lower"},
	{"job_ms_p90", "ms", "lower"},
	{"mem_mb", "MiB", "lower"},
}

// allocsName is the allocation twin of a microbenchmark metric: the name
// without its time-unit suffix, plus "_allocs".
func allocsName(name string) string {
	for _, suf := range []string{"_ns_per_inst", "_ns_warm", "_ns", "_us"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf) + "_allocs"
		}
	}
	return name + "_allocs"
}

// perLayer are the traced run's metrics, named <layer>.<name> after the
// package they measure. Host times are per pass of the workload.
var perLayer = append([]metricDef{
	{"trace.build_s", "s", "lower"},
	{"trace.insts", "count", "lower"},

	{"runner.jobs", "count", "higher"},
	{"runner.failed", "count", "lower"},
	{"runner.overhead_s", "s", "lower"},

	{"sim.machines", "count", "lower"},
	{"sim.new_s", "s", "lower"},
	{"sim.steps", "count", "lower"},
	{"sim.loop_s", "s", "lower"},
	{"sim.accounted_frac", "ratio", "higher"},
	{"sim.minst_per_s", "Minst/s", "higher"},
	{"sim.mcycles_per_s", "Mcycles/s", "higher"},

	{"core.tick_s", "s", "lower"},
	{"core.ticks", "count", "lower"},
	{"core.ticks_progressed", "count", "lower"},
	{"core.tick_useful_ratio", "ratio", "higher"},
	{"core.tick_ns", "ns", "lower"},
	{"core.callback_s", "s", "lower"},
	{"core.callbacks", "count", "lower"},

	{"mem.handle_s", "s", "lower"},

	{"sched.deliver_s", "s", "lower"},
	{"sched.self_s", "s", "lower"},
	{"sched.events", "count", "lower"},
	{"sched.batches", "count", "lower"},
	{"sched.skip_s", "s", "lower"},
	{"sched.jumps", "count", "lower"},
	{"sched.skipped_cycles", "count", "higher"},
	{"sched.skip_ratio", "ratio", "higher"},

	// Simulated counters: deterministic for a seed, so a speed change
	// must leave every one of them identical.
	{"core.retired_insts", "count", "higher"},
	{"core.reexec_ratio", "ratio", "lower"},
	{"core.squashes", "count", "lower"},
	{"core.gate_stall_cycles", "count", "lower"},
	{"core.sq_searches", "count", "lower"},
	{"mem.l1_misses", "count", "lower"},
	{"mem.l1_miss_ratio", "ratio", "lower"},
	{"mem.l3_misses", "count", "lower"},
	{"mem.mem_accesses", "count", "lower"},
	{"mem.invals_sent", "count", "lower"},
	{"mem.upgrades", "count", "lower"},
	{"mem.owner_forwards", "count", "lower"},
	{"mem.evictions", "count", "lower"},
	{"noc.control_msgs", "count", "lower"},
	{"noc.data_msgs", "count", "lower"},
	{"noc.flits", "count", "lower"},

	{"fuzz.generate_s", "s", "lower"},
	{"checker.enumerate_s", "s", "lower"},
	{"checker.calls", "count", "lower"},
	{"axiomatic.enumerate_s", "s", "lower"},
	{"axiomatic.calls", "count", "lower"},
	{"litmus.witness_s", "s", "lower"},
	{"litmus.runs", "count", "lower"},

	{"runtime.alloc_mb", "MiB", "lower"},
	{"runtime.mallocs", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},

	{"cpu.core", "%", "lower"},
	{"cpu.core.issue", "%", "lower"},
	{"cpu.core.retire", "%", "lower"},
	{"cpu.core.drainSB", "%", "lower"},
	{"cpu.core.dispatch", "%", "lower"},
	{"cpu.core.snoop", "%", "lower"},
	{"cpu.predictor", "%", "lower"},
	{"cpu.mem", "%", "lower"},
	{"cpu.sched", "%", "lower"},
	{"cpu.noc", "%", "lower"},
	{"cpu.sim", "%", "lower"},
	{"cpu.sim.new", "%", "lower"},
	{"cpu.trace", "%", "lower"},
	{"cpu.checker", "%", "lower"},
	{"cpu.axiomatic", "%", "lower"},
	{"cpu.runtime", "%", "lower"},
	{"cpu.other", "%", "lower"},

	{"host.calib_ms", "ms", "lower"},
	{"trace_overhead_frac", "ratio", "lower"},
}, microMetrics()...)

// metricSet collects measured values by name.
type metricSet map[string]float64

// result is the benchmark's machine-readable verdict, printed as the last
// line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every declared metric of defs in a human-readable table,
// then the result line. A declared metric the run did not measure is a bug
// in the benchmark, reported as an error.
func report(w io.Writer, defs []metricDef, got metricSet, notes map[string]string, attempted, failed int) error {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	var missing []string
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		line := fmt.Sprintf("%-30s %16.6g %-10s", d.name, v, d.unit)
		if n := notes[d.name]; n != "" {
			line += " " + n
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
