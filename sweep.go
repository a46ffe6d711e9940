package sesa

import (
	"context"
	"fmt"

	"sesa/internal/report"
	"sesa/internal/runner"
	"sesa/internal/telemetry"
	"sesa/internal/trace"
)

// SweepJob is one experiment of a sweep: a workload profile run on one
// machine model.
type SweepJob = runner.Job

// SweepResult is the outcome of one sweep job, positionally matched to it.
type SweepResult = runner.Result

// SweepSummary aggregates a sweep's wall-clock and simulated throughput.
type SweepSummary = report.SweepSummary

// BenchmarkJob builds the sweep job for a named Table IV benchmark, the
// job RunBenchmark runs.
func BenchmarkJob(name string, model Model, instPerCore int, seed uint64) (SweepJob, error) {
	p, ok := LookupProfile(name)
	if !ok {
		return SweepJob{}, fmt.Errorf("sesa: unknown benchmark %q", name)
	}
	return SweepJob{Profile: p, Model: model, InstPerCore: instPerCore, Seed: seed}, nil
}

// RunSweep fans the jobs across `workers` goroutines (0 means GOMAXPROCS)
// and returns results in job order plus the sweep summary. Traces are
// generated once per (profile, cores, n, seed) in the process-wide cache and
// replayed read-only by every model. Results are bit-identical for any
// worker count: workers=1 reproduces the serial path.
//
// A failed job (e.g. a machine exceeding its cycle bound) does not abort the
// sweep; it is returned with Err set and partial statistics.
func RunSweep(jobs []SweepJob, workers int) ([]SweepResult, SweepSummary) {
	return RunSweepMonitored(jobs, workers, nil)
}

// RunSweepContext is RunSweep with cooperative cancellation: when ctx is
// canceled, running machines stop at their next cancellation poll and queued
// jobs fail immediately, freeing the workers mid-sweep. Canceled jobs come
// back as results whose Err wraps the context's cause (errors.Is with
// context.Canceled matches; SweepResult.Canceled reports them) with partial
// statistics. An uncanceled context reproduces RunSweep exactly.
func RunSweepContext(ctx context.Context, jobs []SweepJob, workers int) ([]SweepResult, SweepSummary) {
	pool := runner.Pool{Workers: workers, Cache: trace.Shared()}
	return pool.RunContext(ctx, jobs)
}

// SweepProgress tracks a live sweep for the -status-addr endpoint: jobs
// done/running/failed, retired instructions, simulated cycles and ETA.
type SweepProgress = runner.Progress

// NewSweepProgress returns an empty tracker to pass to RunSweepMonitored and
// ServeStatus.
func NewSweepProgress() *SweepProgress { return runner.NewProgress() }

// ServeStatus starts the live-introspection HTTP server on addr and returns
// the bound address. /metrics serves p as the unlabeled sesa_sweep_*
// families in Prometheus text format, beside /healthz and /debug/pprof/.
func ServeStatus(addr string, p *SweepProgress) (string, error) {
	reg := telemetry.NewRegistry()
	runner.RegisterSweepMetrics(reg, func() []runner.LabeledProgress {
		return []runner.LabeledProgress{{Progress: p}}
	})
	return runner.ServeStatus(addr, runner.StatusHandler(reg))
}

// RunSweepMonitored is RunSweep with live progress reporting: the tracker is
// updated at job boundaries and never affects results (nil is allowed and
// reproduces RunSweep).
func RunSweepMonitored(jobs []SweepJob, workers int, p *SweepProgress) ([]SweepResult, SweepSummary) {
	pool := runner.Pool{Workers: workers, Cache: trace.Shared(), Progress: p}
	return pool.Run(jobs)
}
