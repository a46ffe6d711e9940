// Package runner fans independent simulation jobs across a worker pool.
//
// Every sesa.Machine is fully self-contained — per-machine event queue,
// seeded jitter, per-core predictors and statistics — and the workload traces
// it replays are immutable, so a sweep of (model × workload × seed) jobs is
// embarrassingly parallel. The runner exploits that: jobs are distributed
// over a pool of goroutines and results are collected positionally, so the
// result slice is in job order and bit-identical no matter how many workers
// ran the sweep (Workers=1 reproduces the historical serial path exactly).
//
// Each worker keeps one machine and resets it between jobs of the same
// shape (cores, core and memory configuration) instead of building one per
// job: a sweep's jobs would otherwise allocate a machine's pages, tables and
// arena each, about 2 MiB per Fig. 10 job, all garbage after it. Isolation
// between a worker's jobs rests on sim.Machine.Reset leaving a machine
// indistinguishable from a new one, with its own Stats and no tracer.
//
// A failed job (most commonly a machine exceeding its cycle bound) does not
// abort the sweep: it becomes a Result with Err set, and its partial
// statistics — including the cycle count at which it was cut off — remain
// available for failure-row reporting.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sesa/internal/config"
	"sesa/internal/obs"
	"sesa/internal/report"
	"sesa/internal/sim"
	"sesa/internal/stats"
	"sesa/internal/trace"
)

// Job is one experiment: a workload run to completion on one machine model.
type Job struct {
	// Workload, when non-nil, is the programs the job runs; it bypasses
	// the trace cache, and Profile, InstPerCore and Seed are unused.
	Workload *trace.Workload
	// Profile is the workload to generate (or fetch from the trace cache).
	Profile trace.Profile
	// Model selects the consistency-model implementation.
	Model config.Model
	// InstPerCore scales the generated trace.
	InstPerCore int
	// Seed seeds the trace generator.
	Seed uint64
	// Config optionally overrides the machine configuration (its Model
	// field is overwritten with Job.Model). Nil uses config.Default(Model).
	Config *config.Config
	// StepMode selects the machine's clock stepper; like Model it is
	// applied over Config. The zero value is the default two-level skip
	// clock, whose output is byte-identical to naive stepping.
	StepMode config.StepMode
	// MaxCycles bounds the run; 0 applies the default bound of 200 cycles
	// per instruction of the longest program plus 2M, the liveness bound
	// the benchmark harnesses have always used.
	MaxCycles uint64
	// Trace, when non-nil, attaches an observability tracer to the job's
	// machine: events, interval metrics and latency histograms, as the
	// options ask. Each job gets a private tracer (machines are
	// single-threaded, a parallel sweep must not share one), returned in
	// Result.Trace, so what it records is identical no matter how many
	// workers ran the sweep.
	Trace *obs.Options
}

// Name identifies the job in progress reports: workload (or profile and
// seed) plus model.
func (j Job) Name() string {
	if j.Workload != nil {
		return fmt.Sprintf("%s/%s", j.Workload.Name, j.Model)
	}
	return fmt.Sprintf("%s/%s/seed%d", j.Profile.Name, j.Model, j.Seed)
}

// DefaultMaxCycles is the cycle bound applied when Job.MaxCycles is zero.
func (j Job) DefaultMaxCycles() uint64 {
	if j.MaxCycles != 0 {
		return j.MaxCycles
	}
	n := j.InstPerCore
	if j.Workload != nil {
		n = 0
		for _, p := range j.Workload.Programs {
			n = max(n, len(p))
		}
	}
	return uint64(n)*200 + 2_000_000
}

// Result is the outcome of one job, in the same position as its job.
type Result struct {
	Job   Job
	Index int
	// Stats is the machine statistics; non-nil even when Err is set (a
	// timed-out machine reports the cycles it consumed before the cut).
	Stats *stats.Machine
	// Char is the Table IV characterization derived from Stats.
	Char stats.Characterization
	// Err records a per-job failure; the sweep continues past it.
	Err error
	// Wall is the job's wall-clock duration (excluded from any
	// deterministic output — it varies run to run).
	Wall time.Duration
	// Trace holds the job's recorded events, metrics and histograms when
	// Job.Trace was set; it holds only what the options asked for, so its
	// Metrics or Hists may be nil. Export happens after the sweep, in job
	// order, so trace files are byte-identical no matter how many workers
	// ran.
	Trace *obs.Tracer
}

// TimedOut reports whether the job failed by exceeding its cycle bound.
func (r *Result) TimedOut() bool {
	var te *sim.TimeoutError
	return errors.As(r.Err, &te)
}

// Canceled reports whether the job was cut short (or never started) because
// the sweep's context was canceled. A canceled result is non-deterministic —
// the cut lands wherever the host scheduler put it — so result caches must
// never store one.
func (r *Result) Canceled() bool {
	return errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded)
}

// Failure is the result's row in status and results documents; call it only
// when Err is set.
func (r *Result) Failure() JobFailure {
	return JobFailure{Index: r.Index, Name: r.Job.Name(), Error: r.Err.Error(),
		TimedOut: r.TimedOut(), Canceled: r.Canceled()}
}

// CyclesPerSecond is the job's host-side simulation throughput: simulated
// cycles delivered per wall-clock second. Like Wall it is non-deterministic
// and must stay out of byte-identical table output.
func (r *Result) CyclesPerSecond() float64 {
	if r.Stats == nil || r.Wall <= 0 {
		return 0
	}
	return float64(r.Stats.Cycles) / r.Wall.Seconds()
}

// InstsPerSecond is the job's retired-instruction throughput per wall-clock
// second.
func (r *Result) InstsPerSecond() float64 {
	if r.Stats == nil || r.Wall <= 0 {
		return 0
	}
	return float64(r.Stats.Total().RetiredInsts) / r.Wall.Seconds()
}

// Pool runs sweeps.
type Pool struct {
	// Workers is the pool size; 0 or negative means runtime.GOMAXPROCS(0).
	// 1 runs every job inline on the calling goroutine, reproducing the
	// serial path.
	Workers int
	// Cache deduplicates trace generation across jobs. Nil means each job
	// generates its own trace (the historical behaviour).
	Cache *trace.Cache
	// Progress, when non-nil, receives live sweep updates at job boundaries
	// (for /metrics and sesa-serve's status document). It never affects
	// results.
	Progress *Progress
	// OnJobSpan, when non-nil, receives each job's execution window right
	// after the job finishes — the telemetry hook behind sweep timelines.
	// Like Progress it fires at job boundaries only (never inside a
	// machine), never affects results, and costs one nil check when unset.
	OnJobSpan func(i int, name string, start, end time.Time)
}

// workers resolves the effective pool size.
func (p Pool) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the jobs and returns results in job order plus the sweep
// summary. Results are deterministic: result[i] depends only on jobs[i], so
// any worker count produces identical statistics.
func (p Pool) Run(jobs []Job) ([]Result, report.SweepSummary) {
	return p.RunContext(context.Background(), jobs)
}

// RunContext is Run with cooperative cancellation. When ctx is canceled
// mid-sweep, every running machine stops at its next cancellation poll
// (sim.Machine.RunContext) and every job not yet started fails immediately,
// so the pool's workers are freed within a poll interval rather than
// finishing the sweep. Canceled jobs come back as Results whose Err wraps
// the context's cause (Result.Canceled reports them), with partial
// statistics for machines that were mid-run. An uncanceled context
// reproduces Run exactly.
func (p Pool) RunContext(ctx context.Context, jobs []Job) ([]Result, report.SweepSummary) {
	start := time.Now()
	results := make([]Result, len(jobs))
	n := p.workers()
	p.Progress.begin(len(jobs))
	// Each worker keeps the machine of its last job in m (runOne).
	if n <= 1 || len(jobs) <= 1 {
		var m *sim.Machine
		for i := range jobs {
			results[i] = p.runJob(ctx, i, jobs[i], &m)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var m *sim.Machine
				for i := range idx {
					results[i] = p.runJob(ctx, i, jobs[i], &m)
				}
			}()
		}
		for i := range jobs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	return results, Summarize(results, n, time.Since(start), p.Cache)
}

// runJob wraps runOne with progress notifications (nil-safe no-ops when the
// pool has no Progress attached). A job picked up after the sweep's context
// was canceled fails without touching a machine, so a canceled sweep drains
// its remaining queue in microseconds.
func (p Pool) runJob(ctx context.Context, i int, j Job, m **sim.Machine) Result {
	if err := ctx.Err(); err != nil {
		if cause := context.Cause(ctx); cause != err {
			err = fmt.Errorf("%w (%w)", err, cause)
		}
		r := Result{Job: j, Index: i,
			Err: fmt.Errorf("runner: sweep canceled before job ran: %w", err)}
		p.Progress.jobDone(&r)
		return r
	}
	p.Progress.jobStarted(i, j.Name())
	start := time.Now()
	r := p.runOne(ctx, i, j, m)
	end := time.Now()
	r.Wall = end.Sub(start)
	if p.OnJobSpan != nil {
		p.OnJobSpan(i, j.Name(), start, end)
	}
	p.Progress.jobDone(&r)
	return r
}

// runOne executes a single job on the calling goroutine. A generated trace
// whose instruction count no trace can have fails without building one.
//
// The job runs on the worker's machine *m, reset, when the job has its
// shape (sim.Machine.Fits), and otherwise on a new machine, which *m then
// keeps for the next job. A reset machine is indistinguishable from a new
// one and starts with its own Stats and no tracer or histogram set, so the
// result depends only on the job, whatever ran on the machine before.
func (p Pool) runOne(ctx context.Context, i int, j Job, m **sim.Machine) Result {
	res := Result{Job: j, Index: i}
	cfg := config.Default(j.Model)
	if j.Config != nil {
		cfg = *j.Config
	}
	cfg.Model = j.Model
	cfg.StepMode = j.StepMode

	var w trace.Workload
	if j.Workload != nil {
		w = *j.Workload
	} else if err := trace.CheckInstPerCore(j.InstPerCore); err != nil {
		res.Err = err
		return res
	} else if p.Cache != nil {
		w = p.Cache.Workload(j.Profile, cfg.Cores, j.InstPerCore, j.Seed)
	} else {
		w = trace.Build(j.Profile, cfg.Cores, j.InstPerCore, j.Seed)
	}
	if len(w.Programs) > cfg.Cores {
		res.Err = fmt.Errorf("runner: workload %s has %d programs but machine has %d cores",
			w.Name, len(w.Programs), cfg.Cores)
		return res
	}

	mach := *m
	var err error
	if mach != nil && mach.Fits(cfg) {
		err = mach.Reset(cfg, w.Name)
	} else if mach, err = sim.New(cfg, w.Name); err == nil {
		*m = mach
	}
	if err != nil {
		res.Err = err
		return res
	}
	res.Stats = mach.Stats
	for c, prog := range w.Programs {
		if err := mach.SetProgram(c, prog); err != nil {
			res.Err = err
			return res
		}
	}
	if j.Trace != nil {
		res.Trace = obs.New(cfg.Cores, *j.Trace)
		mach.AttachTracer(res.Trace)
	}
	if err := mach.RunContext(ctx, j.DefaultMaxCycles()); err != nil {
		res.Err = err
	}
	res.Char = mach.Stats.Characterize()
	return res
}

// Summarize aggregates the sweep-level quantities of a result set run by
// the given number of workers in the given wall time. cache, when non-nil,
// supplies the trace-cache counters.
func Summarize(results []Result, workers int, wall time.Duration, cache *trace.Cache) report.SweepSummary {
	s := report.SweepSummary{Workers: workers, WallSeconds: wall.Seconds()}
	for i := range results {
		tally(&s, &results[i])
	}
	if cache != nil {
		s.TraceCacheHits, s.TraceCacheMisses = cache.Stats()
	}
	s.CyclesPerSec = s.CyclesPerSecond()
	s.InstsPerSec = s.InstsPerSecond()
	return s
}

// tally counts one finished job into s: the job, its failure if any, and
// the simulated work it did. Summarize and Progress both count through it.
func tally(s *report.SweepSummary, r *Result) {
	s.Jobs++
	if r.Err != nil {
		s.Failed++
		if r.TimedOut() {
			s.TimedOut++
		}
		if r.Canceled() {
			s.Canceled++
		}
	}
	if r.Stats != nil {
		s.SimCycles += r.Stats.Cycles
		s.SimInsts += r.Stats.Total().RetiredInsts
	}
}
