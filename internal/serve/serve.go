// Package serve implements sesa-serve, the sweep-as-a-service daemon: a
// long-running HTTP/JSON front end over the parallel experiment runner.
//
// Clients POST a sweep (a list of benchmark jobs) to /v1/sweeps, poll its
// status, fetch its Table IV rows and summary, and DELETE it to cancel —
// including mid-run, which frees the runner's workers within a cancellation
// poll via the context plumbed through runner.Pool and sim.Machine.
// Operators watch the daemon through one metrics surface, /metrics, and one
// document per sweep, /v1/sweeps/{id}.
//
// The daemon sits on three load-shedding mechanisms a batch simulation
// service needs:
//
//   - a bounded admission queue: at most MaxQueued sweeps wait behind the
//     running one; submissions past the bound get 429 with Retry-After, so
//     overload is explicit back-pressure instead of unbounded memory;
//   - a content-addressed result cache: every completed job is stored under
//     the canonical hash of (config, profile, n, seed, cycle bound), so a
//     resubmitted experiment is served from memory without re-simulation —
//     byte-identical, because jobs are deterministic;
//   - graceful drain: Drain stops admission (503), lets the queue finish
//     within the caller's deadline, then cancels whatever still runs and
//     flushes results.
//
// Sweeps execute one at a time in submission order, each fanned across
// MaxWorkers runner goroutines; results are therefore exactly what
// sesa-bench would print for the same jobs.
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sesa/internal/report"
	"sesa/internal/runner"
	"sesa/internal/telemetry"
	"sesa/internal/trace"
)

// Defaults for the zero values of Options.
const (
	DefaultMaxQueued = 16
	DefaultMaxCached = 4096
)

// Options configures a Server.
type Options struct {
	// MaxWorkers is the runner pool size for each running sweep; 0 means
	// GOMAXPROCS.
	MaxWorkers int
	// MaxQueued bounds the admission queue (sweeps waiting behind the
	// running one); 0 means DefaultMaxQueued, negative means no queueing
	// (every submission that cannot run from cache alone is 429).
	MaxQueued int
	// MaxCached bounds the content-addressed result cache in jobs; 0 means
	// DefaultMaxCached, negative disables caching.
	MaxCached int
	// ResultsDir, when non-empty, receives one <id>.json results document
	// per finished sweep — the flush half of graceful drain.
	ResultsDir string
	// Log receives the daemon's structured records; nil discards them.
	Log *slog.Logger
}

// sweepState is the lifecycle of one submitted sweep.
type sweepState string

const (
	stateQueued    sweepState = "queued"
	stateRunning   sweepState = "running"
	stateCanceling sweepState = "canceling"
	stateDone      sweepState = "done"
	stateCanceled  sweepState = "canceled"
)

// terminal reports whether the state is final.
func (s sweepState) terminal() bool { return s == stateDone || s == stateCanceled }

// sweep is one submitted sweep's full lifecycle record. Mutable fields are
// guarded by the server mutex; results/summary/cacheHits are written once
// (before done is closed) and read-only afterwards.
type sweep struct {
	id    string
	title string
	state sweepState
	jobs  []runner.Job
	keys  []string // jobs[i]'s content address

	progress *runner.Progress
	timeline *telemetry.Timeline     // span record of the sweep's path through the service
	admitted time.Time               // when submit enqueued it (feeds the queue span)
	runCtx   context.Context         // set when the dispatcher picks the sweep up
	cancel   context.CancelCauseFunc // non-nil while running
	done     chan struct{}           // closed on terminal state

	results   []runner.Result
	summary   report.SweepSummary
	cacheHits int
}

// Server is the sweep-as-a-service daemon state: admission queue, dispatcher
// and result cache.
type Server struct {
	opts  Options
	cache *resultCache
	log   *slog.Logger        // never nil: discards when Options.Log is nil
	reg   *telemetry.Registry // backs GET /metrics

	// lifeCtx parents every sweep's run context; Close cancels it.
	lifeCtx  context.Context
	lifeStop context.CancelCauseFunc

	mu       sync.Mutex
	seq      int
	sweeps   map[string]*sweep
	queue    []*sweep
	running  *sweep
	last     *sweep // most recently finished (stays in the metric window)
	draining bool
	stopped  bool

	wake chan struct{} // nudges the dispatcher, capacity 1
	wg   sync.WaitGroup
}

// New builds a Server and starts its dispatcher. Callers own the HTTP
// listener; mount Handler on it. Shut down with Drain (graceful) or Close
// (immediate).
func New(o Options) *Server {
	if o.MaxQueued == 0 {
		o.MaxQueued = DefaultMaxQueued
	}
	if o.MaxCached == 0 {
		o.MaxCached = DefaultMaxCached
	}
	ctx, stop := context.WithCancelCause(context.Background())
	s := &Server{
		opts:     o,
		cache:    newResultCache(o.MaxCached),
		log:      cmp.Or(o.Log, telemetry.Discard()).With(telemetry.KeyComponent, "serve"),
		reg:      telemetry.NewRegistry(),
		lifeCtx:  ctx,
		lifeStop: stop,
		sweeps:   make(map[string]*sweep),
		wake:     make(chan struct{}, 1),
	}
	s.registerMetrics()
	s.wg.Add(1)
	go s.dispatch()
	return s
}

// registerMetrics installs the daemon's scrape-time families. All of them
// sample live state only when /metrics is actually read, so an unscraped
// registry costs nothing; all callbacks take the server mutex, which Render
// guarantees is not nested inside the registry lock.
func (s *Server) registerMetrics() {
	s.reg.GaugeFunc("sesa_serve_queue_depth",
		"Sweeps waiting in the admission queue.", func() []telemetry.Sample {
			s.mu.Lock()
			defer s.mu.Unlock()
			return []telemetry.Sample{{Value: float64(len(s.queue))}}
		})
	s.reg.GaugeFunc("sesa_cache_entries",
		"Jobs held in the content-addressed result cache.", func() []telemetry.Sample {
			_, _, size := s.cache.stats()
			return []telemetry.Sample{{Value: float64(size)}}
		})
	s.reg.CounterFunc("sesa_cache_hits_total",
		"Result-cache hits.", func() []telemetry.Sample {
			hits, _, _ := s.cache.stats()
			return []telemetry.Sample{{Value: float64(hits)}}
		})
	s.reg.CounterFunc("sesa_cache_misses_total",
		"Result-cache misses.", func() []telemetry.Sample {
			_, misses, _ := s.cache.stats()
			return []telemetry.Sample{{Value: float64(misses)}}
		})
	runner.RegisterSweepMetrics(s.reg, s.metricSweeps)
}

// metricSweeps is the bounded window the per-sweep families report, each
// sweep labeled sweep="sw-NNNNNN": queued and running sweeps plus the most
// recently finished one. Terminal sweeps age out of the export (their last
// state remains queryable via the API), so series cardinality never grows
// with daemon uptime.
func (s *Server) metricSweeps() []runner.LabeledProgress {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []runner.LabeledProgress
	add := func(sw *sweep) {
		out = append(out, runner.LabeledProgress{
			Labels: [][2]string{{telemetry.KeySweep, sw.id}}, Progress: sw.progress})
	}
	if s.last != nil && s.last.progress != nil {
		add(s.last)
	}
	if s.running != nil && s.running != s.last {
		add(s.running)
	}
	for _, sw := range s.queue {
		if sw.state == stateQueued {
			add(sw)
		}
	}
	return out
}

// submit admits a resolved sweep: either completes it synchronously when
// every job is cached (a resubmission returns instantly, without touching
// the queue), or enqueues it. It returns the sweep, or an admissionError
// carrying the HTTP status to serve.
func (s *Server) submit(title string, jobs []runner.Job) (*sweep, error) {
	admStart := time.Now()
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = jobKey(j)
	}

	// Fast path outside the queue: an all-cached sweep costs no simulation,
	// so it must not wait behind queued work nor count against the bound.
	if cached, ok := s.allCached(keys, jobs); ok {
		sw := &sweep{title: title, jobs: jobs, keys: keys, done: make(chan struct{})}
		sw.results = cached
		sw.cacheHits = len(jobs)
		sw.summary = runner.Summarize(cached, 0, 0, trace.Shared())
		sw.state = stateDone
		close(sw.done)
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.draining || s.stopped {
			return nil, errDraining
		}
		sw.id = s.nextIDLocked()
		sw.timeline = telemetry.NewTimeline(sw.id)
		sw.timeline.Add(telemetry.Span{
			Name: telemetry.StageAdmission, Cat: "coordinator", Index: -1,
			Start: admStart, Dur: time.Since(admStart),
		})
		s.sweeps[sw.id] = sw
		s.flush(sw)
		s.log.Info("sweep served entirely from cache",
			telemetry.KeySweep, sw.id, "jobs", len(jobs))
		return sw, nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.stopped {
		return nil, errDraining
	}
	if len(s.queue) >= max(s.opts.MaxQueued, 0) {
		retry := s.retryAfterLocked()
		s.log.Warn("sweep rejected, admission queue full",
			"jobs", len(jobs), "queued", len(s.queue), "retry_after_seconds", retry)
		return nil, &admissionError{retryAfter: retry}
	}
	sw := &sweep{
		title:    title,
		state:    stateQueued,
		jobs:     jobs,
		keys:     keys,
		progress: runner.NewProgress(),
		admitted: time.Now(),
		done:     make(chan struct{}),
	}
	sw.id = s.nextIDLocked()
	sw.timeline = telemetry.NewTimeline(sw.id)
	sw.timeline.Add(telemetry.Span{
		Name: telemetry.StageAdmission, Cat: "coordinator", Index: -1,
		Start: admStart, Dur: sw.admitted.Sub(admStart),
	})
	s.sweeps[sw.id] = sw
	s.queue = append(s.queue, sw)
	s.log.Info("sweep admitted",
		telemetry.KeySweep, sw.id, "jobs", len(jobs), "queue_position", len(s.queue))
	s.nudge()
	return sw, nil
}

// nextIDLocked mints a unique sweep id. The sequence number keeps ids unique
// and orderable; it is not a content address (identical resubmissions get
// fresh ids — deduplication happens per job, in the result cache).
func (s *Server) nextIDLocked() string {
	s.seq++
	return fmt.Sprintf("sw-%06d", s.seq)
}

// allCached returns the rebound cached results when every key hits. It probes
// without recording misses first, so a partially-cached sweep does not skew
// the miss counter before the dispatcher does its real lookups.
func (s *Server) allCached(keys []string, jobs []runner.Job) ([]runner.Result, bool) {
	s.cache.mu.Lock()
	for _, k := range keys {
		if _, ok := s.cache.entries[k]; !ok {
			s.cache.mu.Unlock()
			return nil, false
		}
	}
	s.cache.mu.Unlock()
	out := make([]runner.Result, len(jobs))
	for i := range jobs {
		r, ok := s.cache.get(keys[i], i, jobs[i])
		if !ok {
			// Evicted between probe and get: fall back to the queue.
			return nil, false
		}
		out[i] = r
	}
	return out, true
}

// retryAfterLocked estimates seconds until a queue slot frees: the running
// sweep's ETA when known, else one second per queued sweep.
func (s *Server) retryAfterLocked() int {
	if s.running != nil && s.running.progress != nil {
		if eta := s.running.progress.Counters().ETASeconds; eta > 0 {
			return int(eta) + 1
		}
	}
	return len(s.queue) + 1
}

// nudge wakes the dispatcher without blocking.
func (s *Server) nudge() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// dispatch is the single dispatcher goroutine: it pops queued sweeps in
// submission order and runs each to a terminal state.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		sw := s.next()
		if sw == nil {
			return
		}
		s.runSweep(sw)
	}
}

// next blocks until a sweep is runnable (skipping ones canceled while
// queued) or the server stops.
func (s *Server) next() *sweep {
	for {
		s.mu.Lock()
		for len(s.queue) > 0 {
			sw := s.queue[0]
			s.queue = s.queue[1:]
			if sw.state != stateQueued {
				continue
			}
			sw.state = stateRunning
			ctx, cancel := context.WithCancelCause(s.lifeCtx)
			sw.runCtx = ctx
			sw.cancel = cancel
			s.running = sw
			s.mu.Unlock()
			return sw
		}
		stopped := s.stopped
		s.mu.Unlock()
		if stopped {
			return nil
		}
		// Wait for work or shutdown; the loop top re-checks both. lifeCtx
		// is only canceled after stopped is set, so this cannot spin.
		select {
		case <-s.wake:
		case <-s.lifeCtx.Done():
		}
	}
}

// runSweep executes one sweep: cached jobs are served from the store, the
// rest go through the runner pool under the sweep's cancelable context, and
// fresh deterministic results are stored back.
func (s *Server) runSweep(sw *sweep) {
	start := time.Now()
	ctx := sw.runCtx
	sw.timeline.Add(telemetry.Span{
		Name: telemetry.StageQueue, Cat: "coordinator", Index: -1,
		Start: sw.admitted, Dur: start.Sub(sw.admitted),
	})

	results := make([]runner.Result, len(sw.jobs))
	var toRun []runner.Job
	var toRunIdx []int
	hits := 0
	for i, j := range sw.jobs {
		if r, ok := s.cache.get(sw.keys[i], i, j); ok {
			results[i] = r
			hits++
			continue
		}
		toRun = append(toRun, j)
		toRunIdx = append(toRunIdx, i)
	}
	s.log.Info("sweep started", telemetry.KeySweep, sw.id,
		"jobs", len(sw.jobs), "cached", hits)

	workers := s.opts.MaxWorkers
	if len(toRun) > 0 {
		// The daemon's pool is the timeline's worker "local".
		execStart := time.Now()
		pool := runner.Pool{Workers: workers, Cache: trace.Shared(), Progress: sw.progress,
			OnJobSpan: func(k int, name string, js, je time.Time) {
				sw.timeline.Add(telemetry.Span{
					Name: telemetry.StageJob, Cat: "worker",
					Job: name, Index: toRunIdx[k], Start: js, Dur: je.Sub(js),
				})
			}}
		ran, _ := pool.RunContext(ctx, toRun)
		sw.timeline.Add(telemetry.Span{
			Name: telemetry.StageExecute, Cat: "worker", Index: -1,
			Start: execStart, Dur: time.Since(execStart),
		})
		for k, r := range ran {
			i := toRunIdx[k]
			r.Index = i
			results[i] = r
			s.cache.put(sw.keys[i], r)
		}
	}

	canceled := ctx.Err() != nil
	aggStart := time.Now()
	sum := runner.Summarize(results, workers, time.Since(start), trace.Shared())

	s.mu.Lock()
	sw.results = results
	sw.summary = sum
	sw.cacheHits = hits
	if canceled {
		sw.state = stateCanceled
	} else {
		sw.state = stateDone
	}
	sw.cancel(nil)
	sw.cancel = nil
	s.running = nil
	s.last = sw
	s.flush(sw)
	state := sw.state
	s.mu.Unlock()
	sw.timeline.Add(telemetry.Span{
		Name: telemetry.StageAggregate, Cat: "coordinator", Index: -1,
		Start: aggStart, Dur: time.Since(aggStart),
	})
	s.log.Info("sweep finished", telemetry.KeySweep, sw.id, "state", string(state),
		"jobs", len(sw.jobs), "failed", sum.Failed, "cached", hits,
		"wall_seconds", sum.WallSeconds)
	close(sw.done)
}

// flush writes a finished sweep's results document to ResultsDir (caller
// holds the server mutex; errors are logged, never reported to clients —
// the in-memory results remain authoritative).
func (s *Server) flush(sw *sweep) {
	if s.opts.ResultsDir == "" {
		return
	}
	doc := resultsDoc(sw)
	path := filepath.Join(s.opts.ResultsDir, sw.id+".json")
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(buf, '\n'), 0o644)
	}
	if err != nil {
		s.log.Error("flushing sweep results failed",
			telemetry.KeySweep, sw.id, "path", path, "error", err)
	}
}

// cancelSweep transitions a sweep toward canceled. Queued sweeps cancel
// immediately; running ones get their context canceled and finish as
// canceled once the pool's workers stop (within one cancellation poll).
func (s *Server) cancelSweep(sw *sweep, cause error) (sweepState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch sw.state {
	case stateQueued:
		sw.state = stateCanceled
		sw.results = nil
		sw.summary = report.SweepSummary{Jobs: len(sw.jobs), Canceled: len(sw.jobs), Failed: len(sw.jobs)}
		// Drop it from the admission queue so its slot frees immediately —
		// admission counts queue length, and a canceled sweep must not hold
		// a slot until the dispatcher would have skipped it.
		for i, q := range s.queue {
			if q == sw {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		close(sw.done)
		return stateCanceled, nil
	case stateRunning:
		sw.state = stateCanceling
		sw.cancel(cause)
		return stateCanceling, nil
	case stateCanceling:
		return stateCanceling, nil
	default:
		return sw.state, fmt.Errorf("serve: sweep %s already %s", sw.id, sw.state)
	}
}

// stateOf snapshots a sweep's state under the lock.
func (s *Server) stateOf(sw *sweep) sweepState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sw.state
}

// lookup finds a sweep by id.
func (s *Server) lookup(id string) (*sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

// idle reports whether no sweep is queued or running.
func (s *Server) idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running != nil {
		return false
	}
	for _, sw := range s.queue {
		if sw.state == stateQueued {
			return false
		}
	}
	return true
}

// Drain performs the graceful SIGTERM sequence: stop admitting (submissions
// get 503), let queued and running sweeps finish, and — if ctx expires
// first — cancel whatever is still going and wait for it to stop. Results of
// every finished sweep have already been flushed to ResultsDir as they
// completed. Drain returns when the dispatcher is idle.
func (s *Server) Drain(ctx context.Context) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for !s.idle() {
		select {
		case <-ctx.Done():
			// Grace expired: hard-cancel the rest, then wait for the
			// dispatcher to report each as canceled (fast — workers stop at
			// the next cancellation poll).
			s.cancelAll(errors.New("serve: drain deadline expired"))
			for !s.idle() {
				time.Sleep(5 * time.Millisecond)
			}
			s.stop()
			return
		case <-tick.C:
		}
	}
	s.stop()
}

// Close shuts the server down immediately: cancel everything, stop the
// dispatcher, wait for it to exit.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancelAll(errors.New("serve: server closed"))
	s.stop()
}

// cancelAll cancels every queued and running sweep.
func (s *Server) cancelAll(cause error) {
	s.mu.Lock()
	targets := make([]*sweep, 0, len(s.queue)+1)
	if s.running != nil {
		targets = append(targets, s.running)
	}
	targets = append(targets, s.queue...)
	s.mu.Unlock()
	for _, sw := range targets {
		_, _ = s.cancelSweep(sw, cause)
	}
}

// stop terminates the dispatcher and waits for it.
func (s *Server) stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	s.lifeStop(errors.New("serve: server stopped"))
	s.nudge()
	s.wg.Wait()
}
