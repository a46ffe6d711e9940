// Package fleet is the distributed sweep fabric: a coordinator that shards
// design-space sweeps into job batches and a pull-based worker that leases,
// executes and reports them over HTTP/JSON.
//
// The protocol is built around one invariant: a sweep executed by any fleet
// produces byte-identical output to the same sweep run single-host. Three
// properties deliver it:
//
//   - jobs are deterministic: a runner.Job's observable result depends only
//     on the job, never on the host, worker count or wall clock;
//   - results are job-order-indexed: every wire result carries its sweep
//     index and lands positionally in the coordinator's result slice, so
//     placement and completion order are invisible;
//   - aggregation is exact: statistics are sums and internal/hist merges
//     are lossless, and the wire encoding round-trips both without losing
//     a bucket or a counter.
//
// Failure handling is lease-based, in the spirit of every pull-model batch
// scheduler: a worker that goes silent for a lease TTL forfeits its batches,
// which are re-leased to the next worker to ask (bounded by MaxAttempts);
// a worker completing a batch it technically lost is still accepted under
// first-write-wins — its results are the same bytes any other worker would
// have produced. Duplicate execution wastes cycles, never correctness.
//
// The coordinator side is mounted by sesa-serve under /v1/fleet/; the
// worker side is cmd/sesa-worker (or any process embedding Worker).
package fleet

import (
	"errors"
	"fmt"
	"time"

	"sesa/internal/config"
	"sesa/internal/hist"
	"sesa/internal/runner"
	"sesa/internal/sim"
	"sesa/internal/stats"
	"sesa/internal/trace"
)

// WireJob is the serialized form of one runner.Job, mirroring the sweep
// service's job spec: everything the job's observable result depends on,
// spelled with the parseable model name rather than an internal enum value,
// so the two sides need only agree on the protocol, not on binary layout.
// The clock stepper does not travel: both steppers produce identical
// results, and workers run the default skip clock.
type WireJob struct {
	Profile     string `json:"profile"`
	Model       string `json:"model"`
	InstPerCore int    `json:"inst_per_core"`
	Seed        uint64 `json:"seed"`
	MaxCycles   uint64 `json:"max_cycles,omitempty"`
	Hists       bool   `json:"hists,omitempty"`
}

// EncodeJob serializes a runner job. Jobs with a custom Config are not
// encodable — the sweep service never produces one (wire jobs resolve
// against config.Default on both sides).
func EncodeJob(j runner.Job) (WireJob, error) {
	if j.Config != nil {
		return WireJob{}, errors.New("fleet: jobs with custom configs are not wire-encodable")
	}
	if j.Trace != nil {
		return WireJob{}, errors.New("fleet: traced jobs are not wire-encodable")
	}
	return WireJob{
		Profile:     j.Profile.Name,
		Model:       j.Model.String(),
		InstPerCore: j.InstPerCore,
		Seed:        j.Seed,
		MaxCycles:   j.MaxCycles,
		Hists:       j.Hists,
	}, nil
}

// Resolve validates the wire job and translates it into a runner job. It is
// the inverse of EncodeJob — the resolved job produces the same content
// address and the same results as the original — and also the sweep
// service's validator for submitted jobs.
func (w WireJob) Resolve() (runner.Job, error) {
	p, ok := trace.Lookup(w.Profile)
	if !ok {
		return runner.Job{}, fmt.Errorf("fleet: unknown profile %q", w.Profile)
	}
	model, err := config.ParseModel(w.Model)
	if err != nil {
		return runner.Job{}, fmt.Errorf("fleet: job %q: %w", w.Profile, err)
	}
	if w.InstPerCore <= 0 {
		return runner.Job{}, fmt.Errorf("fleet: job %q: inst_per_core must be positive, got %d",
			w.Profile, w.InstPerCore)
	}
	return runner.Job{
		Profile:     p,
		Model:       model,
		InstPerCore: w.InstPerCore,
		Seed:        w.Seed,
		MaxCycles:   w.MaxCycles,
		Hists:       w.Hists,
	}, nil
}

// WireTimeout carries the fields of a sim.TimeoutError so the coordinator
// can rebuild the typed error — Result.TimedOut and the failure-row error
// string must come out exactly as a local run's would.
type WireTimeout struct {
	MaxCycles uint64 `json:"max_cycles"`
	Model     string `json:"model"`
	Workload  string `json:"workload"`
}

// WireResult is the serialized outcome of one job: the deterministic slice
// of a runner.Result (statistics, characterization, histograms, error)
// plus the worker-side wall clock for throughput reporting. Index is the
// job's position in the sweep's job list — results are positional, which
// is what makes fleet output placement-independent.
type WireResult struct {
	Index int `json:"index"`
	// Stats and Char round-trip exactly: all-integer counters and float64s
	// that encoding/json prints with shortest round-trip precision.
	Stats *stats.Machine         `json:"stats,omitempty"`
	Char  stats.Characterization `json:"char"`
	// Error/Timeout rebuild Result.Err; canceled results are never shipped
	// (they are not deterministic, so a worker abandons them instead).
	Error   string       `json:"error,omitempty"`
	Timeout *WireTimeout `json:"timeout,omitempty"`
	// Hists is the job's latency-histogram set (lossless wire encoding).
	Hists *hist.Set `json:"hists,omitempty"`
	// WallSeconds is the worker-side execution time — informational only,
	// excluded from all deterministic output.
	WallSeconds float64 `json:"wall_seconds"`
}

// EncodeResult serializes a job outcome for the completion report.
func EncodeResult(r runner.Result) WireResult {
	w := WireResult{
		Index:       r.Index,
		Stats:       r.Stats,
		Char:        r.Char,
		Hists:       r.Hists,
		WallSeconds: r.Wall.Seconds(),
	}
	if r.Err != nil {
		w.Error = r.Err.Error()
		var te *sim.TimeoutError
		if errors.As(r.Err, &te) {
			w.Timeout = &WireTimeout{MaxCycles: te.MaxCycles, Model: te.Model, Workload: te.Workload}
		}
	}
	return w
}

// wireError is a decoded remote failure: it preserves the exact error
// string the worker observed and, for timeouts, unwraps to the rebuilt
// sim.TimeoutError so errors.As classification works as if the job had run
// locally.
type wireError struct {
	msg     string
	timeout *sim.TimeoutError
}

func (e *wireError) Error() string { return e.msg }

func (e *wireError) Unwrap() error {
	if e.timeout == nil {
		return nil
	}
	return e.timeout
}

// Decode rebuilds the runner result, rebinding the coordinator's own job
// record (job identity never travels back — the coordinator is
// authoritative for what it asked).
func (w WireResult) Decode(j runner.Job) runner.Result {
	r := runner.Result{
		Job:   j,
		Index: w.Index,
		Stats: w.Stats,
		Char:  w.Char,
		Hists: w.Hists,
		Wall:  time.Duration(w.WallSeconds * float64(time.Second)),
	}
	if w.Error != "" || w.Timeout != nil {
		we := &wireError{msg: w.Error}
		if w.Timeout != nil {
			we.timeout = &sim.TimeoutError{
				MaxCycles: w.Timeout.MaxCycles, Model: w.Timeout.Model, Workload: w.Timeout.Workload,
			}
			if we.msg == "" {
				we.msg = we.timeout.Error()
			}
		}
		r.Err = we
	}
	return r
}

// AbandonedError is the terminal failure of a batch that exhausted its
// lease attempts: its jobs are failed rather than recirculated forever.
// Abandonment depends on which workers died, so results carrying it are
// operational — never cached, never part of the deterministic surface.
type AbandonedError struct {
	Batch    string
	Attempts int
}

func (e *AbandonedError) Error() string {
	return fmt.Sprintf("fleet: batch %s abandoned after %d lease attempts", e.Batch, e.Attempts)
}

// IsAbandoned reports whether err records fleet abandonment (for the result
// cache to refuse).
func IsAbandoned(err error) bool {
	var ae *AbandonedError
	return errors.As(err, &ae)
}

// Protocol messages. Every request carries the worker id minted at
// registration; an id the coordinator does not know is answered with HTTP
// 410 Gone, telling the worker to re-register (it survives coordinator
// restarts that way).

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	Name string `json:"name,omitempty"`
	// Cores is the worker's parallel job capacity (its runner pool size).
	Cores int `json:"cores"`
}

// RegisterResponse assigns the worker its identity and cadences.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseSeconds is the lease TTL; HeartbeatSeconds the renewal cadence
	// the worker should use (TTL/3).
	LeaseSeconds     float64 `json:"lease_seconds"`
	HeartbeatSeconds float64 `json:"heartbeat_seconds"`
}

// LeaseRequest asks for one batch of work.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
}

// LeaseResponse grants a batch (the HTTP layer answers 204 No Content when
// nothing is pending).
type LeaseResponse struct {
	BatchID string `json:"batch_id"`
	SweepID string `json:"sweep_id"`
	// Start is the sweep index of Jobs[0]; job k's sweep index is Start+k
	// (batches are contiguous spans of the job list).
	Start int       `json:"start"`
	Jobs  []WireJob `json:"jobs"`
}

// HeartbeatRequest renews the worker's leases.
type HeartbeatRequest struct {
	WorkerID string   `json:"worker_id"`
	Batches  []string `json:"batches,omitempty"`
}

// HeartbeatResponse lists batches the worker should abandon: their sweep
// was canceled, or their lease was forfeited and reassigned.
type HeartbeatResponse struct {
	Cancel []string `json:"cancel,omitempty"`
}

// WireSpan is one worker-side timeline span shipped back with a completion
// report: the batch-execute window and each job's execution window. Times
// are relative to the moment the worker began executing the batch — the
// coordinator anchors them at its own lease-grant timestamp when stitching
// the sweep timeline, so the protocol needs no cross-host clock sync (skew
// shifts a worker's block as a whole, never spans within it). Spans are
// operational data: informational only, excluded from all deterministic
// output, and an empty list is always valid (older workers simply ship
// none).
type WireSpan struct {
	// Name is a telemetry.Stage* constant ("worker-execute" or "job").
	Name string `json:"name"`
	// Job and Index identify the job for per-job spans (Index is the
	// sweep index, like WireResult.Index).
	Job   string `json:"job,omitempty"`
	Index int    `json:"index,omitempty"`
	// StartSeconds is the offset from the batch execution start.
	StartSeconds float64 `json:"start_seconds"`
	DurSeconds   float64 `json:"dur_seconds"`
}

// CompleteRequest reports a finished batch.
type CompleteRequest struct {
	WorkerID string       `json:"worker_id"`
	BatchID  string       `json:"batch_id"`
	Results  []WireResult `json:"results"`
	// Spans carries the worker-side timeline of the batch (see WireSpan).
	Spans []WireSpan `json:"spans,omitempty"`
}

// CompleteResponse acknowledges a completion. Accepted counts results that
// were recorded; a duplicate completion (the batch was finished by another
// holder first) reports Duplicate with Accepted 0 — first write wins.
type CompleteResponse struct {
	Accepted  int  `json:"accepted"`
	Duplicate bool `json:"duplicate,omitempty"`
}

// DeregisterRequest announces a graceful departure; the coordinator
// immediately requeues anything the worker still holds.
type DeregisterRequest struct {
	WorkerID string `json:"worker_id"`
}
