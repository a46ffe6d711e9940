package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"sesa/internal/config"
	"sesa/internal/obs"
	"sesa/internal/report"
	"sesa/internal/sim"
	"sesa/internal/trace"
)

// freshRunOne is the job runner before workers kept their machines: it
// builds a new machine for every job. It is the reference the reusing
// runner must reproduce.
func freshRunOne(ctx context.Context, cache *trace.Cache, i int, j Job) Result {
	res := Result{Job: j, Index: i}
	if err := trace.CheckInstPerCore(j.InstPerCore); err != nil {
		res.Err = err
		return res
	}

	var cfg config.Config
	if j.Config != nil {
		cfg = *j.Config
	} else {
		cfg = config.Default(j.Model)
	}
	cfg.Model = j.Model
	cfg.StepMode = j.StepMode

	var w trace.Workload
	if cache != nil {
		w = cache.Workload(j.Profile, cfg.Cores, j.InstPerCore, j.Seed)
	} else {
		w = trace.Build(j.Profile, cfg.Cores, j.InstPerCore, j.Seed)
	}

	m, err := sim.New(cfg, w.Name)
	if err != nil {
		res.Err = err
		return res
	}
	res.Stats = m.Stats
	if len(w.Programs) > cfg.Cores {
		res.Err = fmt.Errorf("runner: workload %s has %d programs but machine has %d cores",
			w.Name, len(w.Programs), cfg.Cores)
		return res
	}
	for c, prog := range w.Programs {
		if err := m.SetProgram(c, prog); err != nil {
			res.Err = err
			return res
		}
	}
	if j.Trace != nil {
		res.Trace = obs.New(cfg.Cores, *j.Trace)
		m.AttachTracer(res.Trace)
	}
	if err := m.RunContext(ctx, j.DefaultMaxCycles()); err != nil {
		res.Err = err
	}
	res.Char = m.Stats.Characterize()
	return res
}

// reuseJobs mixes every kind of job a worker's machine can pass between:
// two profiles under all seven models on the default 8-core machine, a
// 2-core small machine between two default-shape jobs, a job cut short by
// its cycle bound followed by a full job of its shape, a traced job and a
// histogram job each followed by plain jobs, and a naive-stepper job.
func reuseJobs(t *testing.T) []Job {
	t.Helper()
	lookup := func(name string) trace.Profile {
		p, ok := trace.Lookup(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		return p
	}
	barnes, mcf, x264 := lookup("barnes"), lookup("505.mcf"), lookup("x264")
	small := config.Small(2, config.X86)
	opts := &obs.Options{BufCap: obs.DefaultBufCap, MetricsInterval: 500}
	hists := &obs.Options{Hists: true}
	var jobs []Job
	for _, p := range []trace.Profile{barnes, mcf} {
		for _, m := range config.AllModels() {
			jobs = append(jobs, Job{Profile: p, Model: m, InstPerCore: 800, Seed: 42})
		}
	}
	return append(jobs,
		Job{Profile: x264, Model: config.SLFSoSKey370, InstPerCore: 800, Seed: 3, Config: &small},
		Job{Profile: x264, Model: config.X86, InstPerCore: 800, Seed: 3},
		Job{Profile: barnes, Model: config.RCP370, InstPerCore: 800, Seed: 5, MaxCycles: 1000},
		Job{Profile: barnes, Model: config.RCP370, InstPerCore: 800, Seed: 5},
		Job{Profile: x264, Model: config.SLFSpec370, InstPerCore: 800, Seed: 7, Trace: opts},
		Job{Profile: x264, Model: config.SLFSpec370, InstPerCore: 800, Seed: 7},
		Job{Profile: mcf, Model: config.NoSpec370, InstPerCore: 800, Seed: 9, Trace: hists},
		Job{Profile: mcf, Model: config.NoSpec370, InstPerCore: 800, Seed: 9},
		Job{Profile: barnes, Model: config.Louvre370, InstPerCore: 800, Seed: 11, StepMode: config.StepNaive},
		Job{Profile: barnes, Model: config.SLFSoS370, InstPerCore: 800, Seed: 11, Config: &small},
	)
}

// resultBytes renders everything a result reports that must not depend on
// the machine it ran on: the statistics as JSON, the characterization, the
// error, and the exported trace and histograms.
func resultBytes(t *testing.T, r Result) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(r.Stats); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "char %+v\nerr %v\n", r.Char, r.Err)
	if r.Trace != nil {
		runs := []obs.Run{{Name: r.Job.Name(), Tracer: r.Trace}}
		if err := obs.WriteChrome(&b, runs); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteKanata(&b, runs); err != nil {
			t.Fatal(err)
		}
		if m := r.Trace.Metrics(); m != nil {
			for _, s := range m.Samples {
				fmt.Fprintf(&b, "%+v\n", s)
			}
		}
	}
	if hs := r.Trace.Hists(); hs != nil {
		rep := report.HistReport{Runs: []report.HistRun{report.NewHistRun(r.Job.Name(), hs)}}
		if err := rep.WriteText(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestReusedMachineEqualsFresh: a worker that resets its machine between
// jobs reports, for every job of a mixed list, exactly what a new machine
// per job reports, with one worker (every job on the machines one goroutine
// keeps, in order) and with three (each worker's jobs in whatever order the
// scheduler hands them out).
func TestReusedMachineEqualsFresh(t *testing.T) {
	jobs := reuseJobs(t)
	cache := trace.NewCache()
	want := make([]string, len(jobs))
	for i, j := range jobs {
		want[i] = resultBytes(t, freshRunOne(context.Background(), cache, i, j))
	}
	timedOut := 0
	for _, workers := range []int{1, 3} {
		results, _ := Pool{Workers: workers, Cache: cache}.Run(jobs)
		for i, r := range results {
			if got := resultBytes(t, r); got != want[i] {
				t.Errorf("%d workers, job %d (%s): result differs from a new machine's:\n%s\nwant:\n%s",
					workers, i, r.Job.Name(), got, want[i])
			}
			if r.TimedOut() {
				timedOut++
			} else if r.Err != nil {
				t.Errorf("%d workers, job %d (%s): %v", workers, i, r.Job.Name(), r.Err)
			}
		}
	}
	if timedOut != 2 {
		t.Errorf("%d timed-out results, want the bounded job's once per pool", timedOut)
	}
}

// TestReusedMachineAllocBudget: once a worker has built its machine, a
// further job of the same shape resets it instead of building another, so
// it allocates little beyond its result. Building a new machine per job
// allocated about 1.4 MiB per job of this list (barnes, n=1000, eight
// cores); reuse brings that to about 2 KiB, the job's new Stats and its
// result.
func TestReusedMachineAllocBudget(t *testing.T) {
	const perJobBudget = 64 << 10
	p, ok := trace.Lookup("barnes")
	if !ok {
		t.Fatal("barnes profile missing")
	}
	var jobs []Job
	for _, m := range config.AllModels() {
		jobs = append(jobs, Job{Profile: p, Model: m, InstPerCore: 1000, Seed: 42})
	}
	cache := trace.NewCache()
	pool := Pool{Workers: 1, Cache: cache}
	alloc := func(jobs []Job) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		results, _ := pool.Run(jobs)
		runtime.ReadMemStats(&after)
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(jobs) // generate the trace into the cache
	one, all := alloc(jobs[:1]), alloc(jobs)
	perJob := (all - min(one, all)) / uint64(len(jobs)-1)
	t.Logf("first job %d KiB, each further job %d KiB", one>>10, perJob>>10)
	if perJob > perJobBudget {
		t.Errorf("each further same-shape job allocated %d KiB, budget %d KiB", perJob>>10, perJobBudget>>10)
	}
}
