package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"sesa/internal/stats"
)

// profileDir holds the traced runs' CPU profiles; it is under the build
// directory so it stays inside the checkout and out of version control.
const profileDir = ".bench_build/profiles"

// runTraced splits the budget between an untraced reference phase, whose CPU
// profile and runtime counters it records, and a traced phase through the
// replica; then it runs the microbenchmarks and buckets the profile. Every
// traced result must equal the untraced one.
func (b *bench) runTraced(budget time.Duration, setupS float64, spansPath string) int {
	half := budget / 2
	if err := os.MkdirAll(profileDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "sesa-perf:", err)
		return 1
	}
	profPath := filepath.Join(profileDir, fmt.Sprintf("cpu-%s-%d.pprof", b.w.name, b.seed))
	f, err := os.Create(profPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sesa-perf:", err)
		return 1
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "sesa-perf:", err)
		return 1
	}
	rt0 := readRuntime()
	failed0 := b.v.failed
	untraced := measure(half, 2, b.untracedPass, nil, b.v)
	failedU := b.v.failed - failed0
	rt1 := readRuntime()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "sesa-perf:", err)
		return 1
	}

	var total tally
	spans := &spanLog{origin: time.Now()}
	traced := measure(half, 2, func() pass { return b.tracedPass(&total, spans) }, nil, b.v)

	micro, warnings, err := runMicro()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sesa-perf:", err)
		return 1
	}
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, "warning:", w)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sesa-perf:", err)
		return 1
	}
	cpu, err := profileShares(exe, profPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sesa-perf:", err)
		return 1
	}
	if spansPath != "" {
		if err := spans.write(spansPath, b); err != nil {
			fmt.Fprintln(os.Stderr, "sesa-perf:", err)
			return 1
		}
	}

	got := b.layerMetrics(untraced, traced, &total, rt1.sub(rt0), failedU)
	got["trace.build_s"], got["trace.insts"] = 0, 0
	if !b.w.isFuzz() {
		got["trace.build_s"], got["trace.insts"] = setupS, float64(b.in.insts)
	}
	got["host.calib_ms"] = float64(refNominal) / b.hostScale(untraced) / 1e6
	for _, m := range []metricSet{cpu, micro} {
		for k, v := range m {
			got[k] = v
		}
	}
	notes := map[string]string{
		"trace_overhead_frac": fmt.Sprintf("%d untraced, %d traced passes", len(untraced), len(traced)),
	}
	return b.finish(perLayer, got, notes)
}

// layerMetrics derives the per-layer metrics. Host times and counts are per
// pass; the simulated counters repeat exactly in every pass.
func (b *bench) layerMetrics(untraced, traced []pass, total *tally, rt runtimeSample, failedU int) metricSet {
	nu, nt := float64(len(untraced)), float64(len(traced))
	secs := func(timer int) float64 { return float64(total.ns[timer]) / 1e9 / nt }
	count := func(c int) float64 { return float64(total.n[c]) / nt }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	runU := median(passWalls(untraced))
	var overhead float64
	for _, p := range untraced {
		overhead += p.wall.Seconds()
		for _, o := range p.ops {
			overhead -= o.wall.Seconds()
		}
	}
	deliver, handle, callback := secs(tDeliver), secs(tHandle), secs(tCallback)
	tick, skip, loop := secs(tTick), secs(tSkip), secs(tLoop)
	loopSelf := loop - deliver - tick - skip
	return metricSet{
		"runner.jobs":       float64(len(untraced[0].ops)),
		"runner.failed":     float64(failedU) / nu,
		"runner.overhead_s": overhead / nu,

		"sim.machines":       count(cMachines),
		"sim.new_s":          secs(tNew),
		"sim.steps":          count(cSteps),
		"sim.loop_s":         loopSelf,
		"sim.accounted_frac": ratio(secs(tNew)+deliver+tick+skip+loopSelf, mean(passWalls(traced))),
		"sim.minst_per_s":    count(cRetired) / runU / 1e6,
		"sim.mcycles_per_s":  count(cCycles) / runU / 1e6,

		"core.tick_s":            tick,
		"core.ticks":             count(cTicks),
		"core.ticks_progressed":  count(cProgressed),
		"core.tick_useful_ratio": ratio(count(cProgressed), count(cTicks)),
		"core.tick_ns":           ratio(tick*1e9, count(cTicks)),
		"core.callback_s":        callback,
		"core.callbacks":         count(cCallbacks),

		"mem.handle_s": handle - callback,

		"sched.deliver_s":      deliver,
		"sched.self_s":         deliver - handle,
		"sched.events":         count(cEvents),
		"sched.batches":        count(cBatches),
		"sched.skip_s":         skip,
		"sched.jumps":          count(cJumps),
		"sched.skipped_cycles": count(cSkipped),
		"sched.skip_ratio":     ratio(count(cSkipped), count(cCycles)),

		"core.retired_insts":     count(cRetired),
		"core.reexec_ratio":      ratio(count(cReexec), count(cRetired)),
		"core.squashes":          count(cSquashes),
		"core.gate_stall_cycles": count(cGateStall),
		"core.sq_searches":       count(cSQSearches),
		"mem.l1_misses":          count(cL1Misses),
		"mem.l1_miss_ratio":      ratio(count(cL1Misses), count(cL1Hits)+count(cL1Misses)),
		"mem.l3_misses":          count(cL3Misses),
		"mem.mem_accesses":       count(cMemAccesses),
		"mem.invals_sent":        count(cInvals),
		"mem.upgrades":           count(cUpgrades),
		"mem.owner_forwards":     count(cOwnerFwd),
		"mem.evictions":          count(cEvictions),
		"noc.control_msgs":       count(cCtrlMsgs),
		"noc.data_msgs":          count(cDataMsgs),
		"noc.flits":              count(cFlits),

		"fuzz.generate_s":       secs(tGenerate),
		"checker.enumerate_s":   secs(tChecker),
		"checker.calls":         count(cCheckerCalls),
		"axiomatic.enumerate_s": secs(tAxiomatic),
		"axiomatic.calls":       count(cAxiomaticCalls),
		"litmus.witness_s":      secs(tWitness),
		"litmus.runs":           count(cLitmusRuns),

		"runtime.alloc_mb":    rt.allocBytes / (1 << 20) / nu,
		"runtime.mallocs":     rt.mallocs / nu,
		"runtime.gc_cycles":   rt.gcCycles / nu,
		"runtime.gc_cpu_frac": ratio(rt.gcCPU, rt.totalCPU-rt.idleCPU),

		"trace_overhead_frac": median(passWalls(traced))/runU - 1,
	}
}

// tracedPass re-executes every job through the replica, adding each job's
// layer tally to total and recording its span.
func (b *bench) tracedPass(total *tally, spans *spanLog) pass {
	var p pass
	idx := spans.beginPass()
	start := time.Now()
	if b.w.isFuzz() {
		opt := fuzzOptions(b.seed)
		for i := 0; i < b.w.programs; i++ {
			var t tally
			seed := fuzzProgramBase + uint64(i)
			t0 := time.Now()
			rep, err := tracedProgram(seed, opt, &t)
			o := fuzzOutcome(seed, rep, err, time.Since(t0))
			p.ops = append(p.ops, o)
			total.add(&t)
			spans.job(idx, i, o.name, t0, o.wall, &t)
		}
	} else {
		type done struct {
			st  *stats.Machine
			err error
			t0  time.Time
			d   time.Duration
			t   tally
		}
		results := make([]done, len(b.jobs))
		for i, j := range b.jobs {
			r := &results[i]
			r.t0 = time.Now()
			r.st, r.err = tracedJob(j, b.in.cache, &r.t)
			r.d = time.Since(r.t0)
		}
		for i := range results {
			r := &results[i]
			o := sweepOutcome(b.jobs[i], r.st, r.err, r.d, b.in)
			p.ops = append(p.ops, o)
			total.add(&r.t)
			spans.job(idx, i, o.name, r.t0, r.d, &r.t)
		}
	}
	p.wall = time.Since(start)
	spans.endPass(idx, start, p.wall)
	return p
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, mallocs, gcCycles, gcCPU, totalCPU, idleCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeSample{v[0], v[1], v[2], v[3], v[4], v[5]}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.mallocs - b.mallocs, a.gcCycles - b.gcCycles,
		a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.idleCPU - b.idleCPU}
}

// span is one traced interval: the workload's traced phase, a pass, a job,
// or a job's build or run phase. Calls inside a job are not spans; they are
// aggregated into (count, total ns) per layer on the job's span.
type span struct {
	ID      string              `json:"id"`
	Parent  string              `json:"parent,omitempty"`
	Name    string              `json:"name"`
	StartUs int64               `json:"start_us"`
	DurUs   int64               `json:"dur_us"`
	Layers  map[string][2]int64 `json:"layers,omitempty"`
}

// spanLog keeps the traced phase's spans in memory until exit.
type spanLog struct {
	origin time.Time
	passes int
	endUs  int64
	spans  []span
}

func (l *spanLog) us(t time.Time) int64 { return t.Sub(l.origin).Microseconds() }

func (l *spanLog) beginPass() int {
	l.passes++
	return l.passes - 1
}

func (l *spanLog) endPass(idx int, start time.Time, d time.Duration) {
	l.endUs = l.us(start.Add(d))
	l.spans = append(l.spans, span{ID: fmt.Sprintf("p%d", idx), Parent: "w", Name: "pass",
		StartUs: l.us(start), DurUs: d.Microseconds()})
}

// job records a job span; a sweep job also gets build and run children,
// split at the machine-construction time its tally measured.
func (l *spanLog) job(pass, i int, name string, start time.Time, d time.Duration, t *tally) {
	id := fmt.Sprintf("p%d.j%d", pass, i)
	l.spans = append(l.spans, span{ID: id, Parent: fmt.Sprintf("p%d", pass), Name: name,
		StartUs: l.us(start), DurUs: d.Microseconds(), Layers: t.layers()})
	if t.n[cLitmusRuns] > 0 {
		return // a fuzz job interleaves many machine builds and runs
	}
	build := time.Duration(t.ns[tNew])
	l.spans = append(l.spans,
		span{ID: id + ".build", Parent: id, Name: "build", StartUs: l.us(start), DurUs: build.Microseconds()},
		span{ID: id + ".run", Parent: id, Name: "run", StartUs: l.us(start.Add(build)), DurUs: (d - build).Microseconds()})
}

// layers is a job tally as (count, total ns) per layer boundary.
func (t *tally) layers() map[string][2]int64 {
	all := map[string][2]int64{
		"sim.new":             {int64(t.n[cMachines]), t.ns[tNew]},
		"sim.loop":            {int64(t.n[cSteps]), t.ns[tLoop]},
		"sched.deliver":       {int64(t.n[cBatches]), t.ns[tDeliver]},
		"mem.handle":          {int64(t.n[cEvents]), t.ns[tHandle]},
		"core.callback":       {int64(t.n[cCallbacks]), t.ns[tCallback]},
		"core.tick":           {int64(t.n[cTicks]), t.ns[tTick]},
		"sched.skip":          {int64(t.n[cJumps]), t.ns[tSkip]},
		"fuzz.generate":       {1, t.ns[tGenerate]},
		"checker.enumerate":   {int64(t.n[cCheckerCalls]), t.ns[tChecker]},
		"axiomatic.enumerate": {int64(t.n[cAxiomaticCalls]), t.ns[tAxiomatic]},
		"litmus.witness":      {int64(t.n[cLitmusRuns]), t.ns[tWitness]},
	}
	for k, v := range all {
		if v[1] == 0 {
			delete(all, k)
		}
	}
	return all
}

func (l *spanLog) write(path string, b *bench) error {
	all := append([]span{{ID: "w", Name: b.w.name, DurUs: l.endUs}}, l.spans...)
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{b.w.name, b.seed, all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
