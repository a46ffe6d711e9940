package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"sesa/internal/config"
	"sesa/internal/runner"
	"sesa/internal/telemetry"
)

// ErrUnknownWorker rejects a request carrying a worker id the coordinator
// never minted (or forgot across a restart); the HTTP layer maps it to 410
// Gone and the worker re-registers.
var ErrUnknownWorker = fmt.Errorf("fleet: unknown worker id")

// run is one sweep in flight through the fabric: the authoritative job
// slice, the positional result slice filling in as completions arrive, and
// the progress tracker mirroring what a local pool would report.
type run struct {
	id       string
	jobs     []runner.Job
	wire     []WireJob
	results  []runner.Result
	jobDone  []bool
	left     int
	canceled bool
	closed   bool          // finished has been (or is being) closed
	finished chan struct{} // closed when left reaches 0 (or the run is canceled)
	progress *runner.Progress
	timeline *telemetry.Timeline // nil-safe; spans of the sweep's fleet life
	onResult func(i int, r runner.Result)
}

// batch is one lease unit: a contiguous span of a run's job list.
type batch struct {
	id         string
	run        *run
	span       runner.Span
	attempts   int    // times leased so far
	worker     string // current holder ("" while pending)
	workerName string // holder's -name label (survives holder deletion, for telemetry)
	leasedAt   time.Time
	expires    time.Time
	canceled   bool
}

// settled reports whether every job in the span already has a result
// (completed by some holder, or failed by abandonment/cancellation).
func (b *batch) settled() bool {
	for i := b.span.Start; i < b.span.End; i++ {
		if !b.run.jobDone[i] {
			return false
		}
	}
	return true
}

// workerState is the coordinator's ledger for one registered worker.
type workerState struct {
	id        string
	name      string
	cores     int
	leased    map[string]*batch
	completed int
	failed    int
	retried   int
	lastSeen  time.Time
	draining  bool
}

// Coordinator decomposes sweeps into batches and runs the lease protocol.
// One coordinator serves many sequential sweeps (sesa-serve runs one sweep
// at a time, but nothing here assumes that — concurrent RunJobs calls
// interleave their batches in the pending queue).
type Coordinator struct {
	opts config.Fleet
	log  *slog.Logger        // never nil (telemetry.Discard when unset)
	reg  *telemetry.Registry // nil-safe no-op when unset

	mu      sync.Mutex
	workers map[string]*workerState
	runs    map[string]*run
	batches map[string]*batch // every live run's batches, by id
	pending []*batch          // FIFO; expired re-leases go to the front
	wseq    int
	bseq    int

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewCoordinator builds a coordinator and starts its lease-expiry scanner.
// tel (may be nil) supplies the structured logger and the metrics registry
// the lease-lifecycle counters land in.
func NewCoordinator(opts config.Fleet, tel *telemetry.T) (*Coordinator, error) {
	opts = opts.WithDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		opts:    opts,
		log:     tel.Component("fleet.coordinator"),
		reg:     tel.Registry(),
		workers: make(map[string]*workerState),
		runs:    make(map[string]*run),
		batches: make(map[string]*batch),
		stop:    make(chan struct{}),
	}
	c.registerGauges()
	c.wg.Add(1)
	go c.expiryLoop()
	return c, nil
}

// registerGauges installs the scrape-time families derived from live
// coordinator state: queue depth, in-flight jobs, registered workers and
// per-worker heartbeat age. They cost nothing until /metrics is read.
func (c *Coordinator) registerGauges() {
	c.reg.GaugeFunc("sesa_fleet_queue_depth",
		"Lease batches waiting to be granted.", func() []telemetry.Sample {
			c.mu.Lock()
			defer c.mu.Unlock()
			return []telemetry.Sample{{Value: float64(len(c.pending))}}
		})
	c.reg.GaugeFunc("sesa_fleet_inflight_jobs",
		"Jobs inside currently leased batches that have no result yet.", func() []telemetry.Sample {
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			for _, b := range c.batches {
				if b.worker == "" || b.canceled {
					continue
				}
				for i := b.span.Start; i < b.span.End; i++ {
					if !b.run.jobDone[i] {
						n++
					}
				}
			}
			return []telemetry.Sample{{Value: float64(n)}}
		})
	c.reg.GaugeFunc("sesa_fleet_workers",
		"Currently registered fleet workers.", func() []telemetry.Sample {
			c.mu.Lock()
			defer c.mu.Unlock()
			return []telemetry.Sample{{Value: float64(len(c.workers))}}
		})
	c.reg.GaugeFunc("sesa_fleet_worker_heartbeat_age_seconds",
		"Seconds since each worker's last register/lease/heartbeat/complete call.",
		func() []telemetry.Sample {
			c.mu.Lock()
			defer c.mu.Unlock()
			now := time.Now()
			out := make([]telemetry.Sample, 0, len(c.workers))
			for _, w := range c.workers {
				out = append(out, telemetry.Sample{
					Labels: [][2]string{{"worker", w.name}},
					Value:  now.Sub(w.lastSeen).Seconds(),
				})
			}
			return out
		})
}

// counter is the event-time increment helper: per-worker series are labeled
// with the worker's -name label (stable across re-registration), not the
// minted id, so a restarted worker keeps its series.
func (c *Coordinator) counter(name, help, workerName string) *telemetry.Counter {
	if workerName == "" {
		return c.reg.Counter(name, help)
	}
	return c.reg.Counter(name, help, "worker", workerName)
}

// Close stops the expiry scanner. In-flight RunJobs calls are the caller's
// to cancel (sesa-serve cancels every sweep context before closing).
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// expiryLoop reclaims batches whose lease expired without renewal. The scan
// cadence is a quarter TTL (bounded to stay responsive in tests with
// millisecond TTLs and cheap with long ones).
func (c *Coordinator) expiryLoop() {
	defer c.wg.Done()
	tick := c.opts.LeaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			c.expire(now)
		}
	}
}

// expire forfeits every lease older than its deadline: the batch goes back
// to the front of the pending queue (or its jobs fail once the attempt
// budget is spent), and the holder's failed counter grows.
func (c *Coordinator) expire(now time.Time) {
	c.mu.Lock()
	var notify []func()
	for id, b := range c.batches {
		if b.worker == "" || b.canceled || now.Before(b.expires) {
			continue
		}
		if w := c.workers[b.worker]; w != nil {
			delete(w.leased, id)
			w.failed++
		}
		c.counter("sesa_fleet_leases_expired_total",
			"Leases forfeited by TTL expiry without renewal.", b.workerName).Inc()
		b.run.timeline.Add(telemetry.Span{
			Name: telemetry.StageExpired, Cat: "coordinator", Batch: b.id,
			Worker: b.workerName, Attempt: b.attempts,
			Start: b.leasedAt, Dur: now.Sub(b.leasedAt),
		})
		c.log.Warn("lease expired, requeueing batch",
			telemetry.KeySweep, b.run.id, telemetry.KeyBatch, b.id,
			telemetry.KeyWorker, b.workerName, telemetry.KeyAttempt, b.attempts)
		b.worker = ""
		notify = append(notify, c.requeueLocked(b)...)
	}
	c.mu.Unlock()
	for _, fn := range notify {
		fn()
	}
}

// requeueLocked puts a forfeited batch back in circulation, or abandons it
// once MaxAttempts leases have been burned. It returns progress/result
// notifications to invoke outside the lock.
func (c *Coordinator) requeueLocked(b *batch) []func() {
	if b.settled() || b.run.canceled {
		return nil
	}
	if b.attempts >= c.opts.MaxAttempts {
		c.reg.Counter("sesa_fleet_batches_abandoned_total",
			"Batches failed outright after exhausting their lease attempts.").Inc()
		c.log.Error("batch abandoned after exhausting lease attempts",
			telemetry.KeySweep, b.run.id, telemetry.KeyBatch, b.id,
			telemetry.KeyAttempt, b.attempts)
		return c.failBatchLocked(b, &AbandonedError{Batch: b.id, Attempts: b.attempts})
	}
	// Front of the queue: a reassigned batch is the sweep's oldest
	// outstanding work, and latency to re-place it bounds worker-loss
	// recovery time.
	c.pending = append([]*batch{b}, c.pending...)
	return nil
}

// failBatchLocked settles every unfinished job in the batch with err.
func (c *Coordinator) failBatchLocked(b *batch, err error) []func() {
	r := b.run
	var notify []func()
	for i := b.span.Start; i < b.span.End; i++ {
		if r.jobDone[i] {
			continue
		}
		res := runner.Result{Job: r.jobs[i], Index: i, Err: err}
		notify = append(notify, c.settleJobLocked(r, i, res)...)
	}
	return notify
}

// settleJobLocked records job i's result exactly once and returns the
// notifications (progress, cache hook, completion signal) to run unlocked.
func (c *Coordinator) settleJobLocked(r *run, i int, res runner.Result) []func() {
	if r.jobDone[i] {
		return nil
	}
	r.jobDone[i] = true
	r.results[i] = res
	r.left--
	notify := []func(){func() {
		r.progress.JobDone(&r.results[i])
		if r.onResult != nil {
			r.onResult(i, r.results[i])
		}
	}}
	if r.left == 0 && !r.closed {
		r.closed = true
		done := r.finished
		notify = append(notify, func() { close(done) })
	}
	return notify
}

// RunJobs distributes jobs across the fleet and blocks until every job has
// a result or ctx is canceled. Results come back in job order, satisfying
// the same contract as runner.Pool.RunContext: results[i] depends only on
// jobs[i], so output is byte-identical to a local run. progress (may be
// nil) is driven exactly like a local pool would: Begin now, JobStarted at
// lease time, JobDone per completion. tl (may be nil) receives the sweep's
// fleet timeline: shard/lease/report spans recorded here plus the
// worker-execute and per-job spans shipped back in completion reports.
// onResult (may be nil) fires once per settled job, in completion order —
// the coordinator's cache hook.
func (c *Coordinator) RunJobs(ctx context.Context, sweepID string, jobs []runner.Job,
	progress *runner.Progress, tl *telemetry.Timeline,
	onResult func(i int, r runner.Result)) ([]runner.Result, error) {
	wire := make([]WireJob, len(jobs))
	for i, j := range jobs {
		w, err := EncodeJob(j)
		if err != nil {
			return nil, fmt.Errorf("fleet: job %d (%s): %w", i, j.Name(), err)
		}
		wire[i] = w
	}
	progress.Begin(len(jobs))
	r := &run{
		id:       sweepID,
		jobs:     jobs,
		wire:     wire,
		results:  make([]runner.Result, len(jobs)),
		jobDone:  make([]bool, len(jobs)),
		left:     len(jobs),
		finished: make(chan struct{}),
		progress: progress,
		timeline: tl,
		onResult: onResult,
	}
	shardStart := time.Now()
	c.mu.Lock()
	if _, dup := c.runs[sweepID]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("fleet: sweep %s already running", sweepID)
	}
	c.runs[sweepID] = r
	batches := 0
	for _, sp := range runner.Decompose(len(jobs), c.opts.BatchSize) {
		c.bseq++
		b := &batch{id: fmt.Sprintf("b-%06d", c.bseq), run: r, span: sp}
		c.batches[b.id] = b
		c.pending = append(c.pending, b)
		batches++
	}
	c.mu.Unlock()
	tl.Add(telemetry.Span{
		Name: telemetry.StageShard, Cat: "coordinator",
		Start: shardStart, Dur: time.Since(shardStart),
	})
	c.log.Info("sweep sharded across fleet",
		telemetry.KeySweep, sweepID, "jobs", len(jobs), "batches", batches)

	if len(jobs) == 0 {
		close(r.finished)
	}
	select {
	case <-r.finished:
	case <-ctx.Done():
		c.cancelRun(r, ctx)
		<-r.finished
	}
	c.release(r)
	return r.results, nil
}

// cancelRun marks the run canceled, drops its pending batches, flags its
// leased batches for worker-side abandonment (delivered on the next
// heartbeat or lease renewal) and fails every unfinished job with the
// context's error — mirroring the local pool's canceled-before-ran results.
func (c *Coordinator) cancelRun(r *run, ctx context.Context) {
	err := ctx.Err()
	if cause := context.Cause(ctx); cause != nil && cause != err {
		err = fmt.Errorf("%w (%w)", err, cause)
	}
	cerr := fmt.Errorf("runner: sweep canceled before job ran: %w", err)

	c.mu.Lock()
	if r.canceled {
		c.mu.Unlock()
		return
	}
	r.canceled = true
	kept := c.pending[:0]
	for _, b := range c.pending {
		if b.run == r {
			continue
		}
		kept = append(kept, b)
	}
	c.pending = kept
	var notify []func()
	for _, b := range c.batches {
		if b.run != r {
			continue
		}
		b.canceled = true
		notify = append(notify, c.failBatchLocked(b, cerr)...)
	}
	if !r.closed {
		r.closed = true
		done := r.finished
		notify = append(notify, func() { close(done) })
	}
	c.mu.Unlock()
	c.log.Info("sweep canceled, dropping its batches", telemetry.KeySweep, r.id)
	for _, fn := range notify {
		fn()
	}
}

// release forgets a finished run's bookkeeping (its batches stay known just
// long enough for stragglers' completions to be answered as duplicates —
// they are removed here, so a late completion gets Duplicate: true via the
// missing-batch path).
func (c *Coordinator) release(r *run) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.runs, r.id)
	for id, b := range c.batches {
		if b.run == r {
			delete(c.batches, id)
			for _, w := range c.workers {
				delete(w.leased, id)
			}
		}
	}
	kept := c.pending[:0]
	for _, b := range c.pending {
		if b.run != r {
			kept = append(kept, b)
		}
	}
	c.pending = kept
}

// Register admits a worker and mints its id.
func (c *Coordinator) Register(req RegisterRequest) RegisterResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wseq++
	w := &workerState{
		id:       fmt.Sprintf("w-%06d", c.wseq),
		name:     req.Name,
		cores:    req.Cores,
		leased:   make(map[string]*batch),
		lastSeen: time.Now(),
	}
	c.workers[w.id] = w
	c.reg.Counter("sesa_fleet_registrations_total",
		"Worker registrations accepted (re-registrations included).").Inc()
	c.log.Info("worker registered",
		telemetry.KeyWorker, w.name, "worker_id", w.id, "cores", w.cores)
	return RegisterResponse{
		WorkerID:         w.id,
		LeaseSeconds:     c.opts.LeaseTTL.Seconds(),
		HeartbeatSeconds: c.opts.HeartbeatEvery().Seconds(),
	}
}

// Lease hands the worker the oldest pending batch, or ok=false when none is
// runnable. Leasing marks every job in the batch as started in the sweep's
// progress view.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, bool, error) {
	c.mu.Lock()
	w := c.workers[req.WorkerID]
	if w == nil {
		c.mu.Unlock()
		return LeaseResponse{}, false, ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	if w.draining {
		c.mu.Unlock()
		return LeaseResponse{}, false, nil
	}
	var b *batch
	for len(c.pending) > 0 {
		cand := c.pending[0]
		c.pending = c.pending[1:]
		if cand.canceled || cand.run.canceled || cand.settled() {
			continue
		}
		b = cand
		break
	}
	if b == nil {
		c.mu.Unlock()
		return LeaseResponse{}, false, nil
	}
	if b.attempts > 0 {
		w.retried++
	}
	b.attempts++
	b.worker = w.id
	b.workerName = w.name
	b.leasedAt = time.Now()
	b.expires = b.leasedAt.Add(c.opts.LeaseTTL)
	w.leased[b.id] = b
	c.counter("sesa_fleet_leases_granted_total",
		"Lease batches granted to workers.", w.name).Inc()
	c.log.Debug("lease granted",
		telemetry.KeySweep, b.run.id, telemetry.KeyBatch, b.id,
		telemetry.KeyWorker, w.name, telemetry.KeyAttempt, b.attempts,
		"jobs", b.span.Len())
	resp := LeaseResponse{
		BatchID: b.id,
		SweepID: b.run.id,
		Start:   b.span.Start,
		Jobs:    append([]WireJob(nil), b.run.wire[b.span.Start:b.span.End]...),
	}
	r := b.run
	span := b.span
	c.mu.Unlock()

	for i := span.Start; i < span.End; i++ {
		r.progress.JobStarted(i, r.jobs[i].Name())
	}
	return resp, true, nil
}

// Heartbeat renews the worker's leases and reports which batches it should
// abandon (sweep canceled, or lease forfeited and no longer this worker's).
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[req.WorkerID]
	if w == nil {
		return HeartbeatResponse{}, ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	var resp HeartbeatResponse
	for _, id := range req.Batches {
		b := c.batches[id]
		if b == nil || b.canceled || b.run.canceled || b.worker != w.id {
			resp.Cancel = append(resp.Cancel, id)
			continue
		}
		b.expires = time.Now().Add(c.opts.LeaseTTL)
		c.counter("sesa_fleet_leases_renewed_total",
			"Lease renewals applied by worker heartbeats.", w.name).Inc()
	}
	return resp, nil
}

// Complete records a finished batch's results. First write wins per job:
// results for jobs already settled (a reassigned batch finished twice) are
// dropped — both copies are byte-identical, so dropping loses nothing. A
// batch the coordinator no longer tracks is acknowledged as a duplicate.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	reportStart := time.Now()
	c.mu.Lock()
	w := c.workers[req.WorkerID]
	if w == nil {
		c.mu.Unlock()
		return CompleteResponse{}, ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	b := c.batches[req.BatchID]
	if b == nil {
		c.mu.Unlock()
		c.counter("sesa_fleet_duplicate_completions_total",
			"Completion reports for batches already settled or released.", w.name).Inc()
		return CompleteResponse{Duplicate: true}, nil
	}
	if b.worker == w.id {
		delete(w.leased, req.BatchID)
		b.worker = ""
	}
	r := b.run
	if b.canceled || r.canceled {
		c.mu.Unlock()
		return CompleteResponse{}, nil
	}
	accepted := 0
	failed := 0
	dup := b.settled()
	var notify []func()
	for _, wr := range req.Results {
		i := wr.Index
		if i < b.span.Start || i >= b.span.End {
			c.mu.Unlock()
			return CompleteResponse{}, fmt.Errorf(
				"fleet: batch %s: result index %d outside span [%d,%d)",
				req.BatchID, i, b.span.Start, b.span.End)
		}
		if r.jobDone[i] {
			continue
		}
		res := wr.Decode(r.jobs[i])
		if res.Canceled() {
			// Canceled results are not deterministic; a well-behaved
			// worker never ships one, and the coordinator refuses any.
			continue
		}
		accepted++
		if res.Err != nil {
			failed++
		}
		notify = append(notify, c.settleJobLocked(r, i, res)...)
	}
	if accepted > 0 {
		w.completed++
	}
	tl, anchor, attempt := r.timeline, b.leasedAt, b.attempts
	batchID, sweepID, workerName := b.id, r.id, w.name
	c.mu.Unlock()

	if accepted > 0 {
		c.counter("sesa_fleet_batches_completed_total",
			"Batches whose completion report was accepted.", workerName).Inc()
		if failed > 0 {
			c.counter("sesa_fleet_batches_failed_total",
				"Accepted batches containing at least one failed job.", workerName).Inc()
		}
		// Stitch the worker's spans into the sweep timeline, anchored at
		// the lease grant so no cross-host clock sync is needed.
		tl.Add(telemetry.Span{
			Name: telemetry.StageLease, Cat: "coordinator", Batch: batchID,
			Worker: workerName, Attempt: attempt,
			Start: anchor, Dur: reportStart.Sub(anchor),
		})
		for _, ws := range req.Spans {
			tl.Add(telemetry.Span{
				Name: ws.Name, Cat: "worker", Batch: batchID, Worker: workerName,
				Job: ws.Job, Index: ws.Index,
				Start: anchor.Add(time.Duration(ws.StartSeconds * float64(time.Second))),
				Dur:   time.Duration(ws.DurSeconds * float64(time.Second)),
			})
		}
		tl.Add(telemetry.Span{
			Name: telemetry.StageReport, Cat: "coordinator", Batch: batchID,
			Worker: workerName, Start: reportStart, Dur: time.Since(reportStart),
		})
		c.log.Debug("batch completed",
			telemetry.KeySweep, sweepID, telemetry.KeyBatch, batchID,
			telemetry.KeyWorker, workerName, "accepted", accepted, "failed", failed)
	} else if dup {
		c.counter("sesa_fleet_duplicate_completions_total",
			"Completion reports for batches already settled or released.", workerName).Inc()
		c.log.Debug("duplicate completion dropped (first write won)",
			telemetry.KeySweep, sweepID, telemetry.KeyBatch, batchID,
			telemetry.KeyWorker, workerName)
	}
	for _, fn := range notify {
		fn()
	}
	return CompleteResponse{Accepted: accepted, Duplicate: dup && accepted == 0}, nil
}

// Deregister retires a worker: anything it still holds goes straight back
// to the pending queue (without burning an attempt — a graceful departure
// is not a failure), and its row leaves the status table.
func (c *Coordinator) Deregister(req DeregisterRequest) error {
	c.mu.Lock()
	w := c.workers[req.WorkerID]
	if w == nil {
		c.mu.Unlock()
		return ErrUnknownWorker
	}
	w.draining = true
	var notify []func()
	for id, b := range w.leased {
		delete(w.leased, id)
		b.worker = ""
		b.attempts-- // give the abandoned lease back its attempt
		if b.attempts < 0 {
			b.attempts = 0
		}
		c.counter("sesa_fleet_leases_refunded_total",
			"Leases handed back by gracefully deregistering workers.", w.name).Inc()
		notify = append(notify, c.requeueLocked(b)...)
	}
	delete(c.workers, req.WorkerID)
	c.log.Info("worker deregistered",
		telemetry.KeyWorker, w.name, "worker_id", w.id,
		"completed_batches", w.completed)
	c.mu.Unlock()
	for _, fn := range notify {
		fn()
	}
	return nil
}

// WorkerStatus is one fleet worker's row in GET /v1/fleet/workers: how much
// work the coordinator has entrusted to it and what came back.
type WorkerStatus struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// Cores is the worker's advertised parallel job capacity.
	Cores int `json:"cores"`
	// Leased counts batches currently held under lease; Completed, Failed
	// and Retried are cumulative: batches the worker finished, leases it
	// lost to expiry, and re-leased batches (a prior holder lost them) it
	// picked up.
	Leased    int `json:"leased"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Retried   int `json:"retried"`
	// LastHeartbeatSeconds is the age of the worker's most recent
	// register/lease/heartbeat/complete call.
	LastHeartbeatSeconds float64 `json:"last_heartbeat_seconds"`
	// Draining marks a worker that announced it is deregistering.
	Draining bool `json:"draining,omitempty"`
}

// WorkerStatus snapshots the per-worker rows, ordered by worker id
// (registration order).
func (c *Coordinator) WorkerStatus() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	rows := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		rows = append(rows, WorkerStatus{
			ID:                   w.id,
			Name:                 w.name,
			Cores:                w.cores,
			Leased:               len(w.leased),
			Completed:            w.completed,
			Failed:               w.failed,
			Retried:              w.retried,
			LastHeartbeatSeconds: now.Sub(w.lastSeen).Seconds(),
			Draining:             w.draining,
		})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].ID < rows[b].ID })
	return rows
}
