package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"sesa/internal/obs"
)

// Span stage names, covering a job's full path through the distributed
// sweep fabric. Coordinator-side stages carry Cat "coordinator"; stages
// measured on a worker's clock and shipped back carry Cat "worker".
const (
	StageAdmission = "admission"      // submit handling: parse, cache probe, enqueue
	StageQueue     = "queue"          // admitted → dispatcher picks the sweep up
	StageShard     = "shard"          // job list decomposed into lease batches
	StageLease     = "lease"          // batch granted → completion report recorded
	StageExpired   = "lease-expired"  // batch granted → lease forfeited by TTL
	StageExecute   = "worker-execute" // worker-side batch execution window
	StageJob       = "job"            // one job's execution window on a worker
	StageReport    = "report"         // coordinator processing a completion report
	StageAggregate = "aggregate"      // all results in → summary built and stored
)

// Span is one timed stage of a sweep's life, attributed with the shared
// telemetry keys. Spans are operational data — wall-clock, host-dependent —
// and are never part of the deterministic result surface.
type Span struct {
	Name    string        // a Stage* constant
	Cat     string        // "coordinator" or "worker": whose clock measured it
	Sweep   string        // sweep id
	Batch   string        // lease batch id, when stage is batch-scoped
	Worker  string        // fleet worker name, when a worker was involved
	Job     string        // job name, for StageJob spans
	Index   int           // sweep job index, for StageJob spans (-1 otherwise)
	Attempt int           // lease attempt ordinal, for lease-scoped spans
	Start   time.Time     // coordinator-clock start (worker spans are anchored at lease grant)
	Dur     time.Duration // measured duration
}

// DefaultMaxSpans bounds a timeline's memory: a span is ~100 bytes, so the
// default caps a sweep's timeline around 13 MB. Per-job spans dominate, so
// the bound is effectively a job-count ceiling far above any real sweep.
const DefaultMaxSpans = 1 << 17

// Timeline collects the spans of one sweep. All methods are safe for
// concurrent use and no-ops on a nil receiver, so span recording sites
// never branch on whether a timeline was requested.
type Timeline struct {
	mu      sync.Mutex
	sweep   string
	max     int
	spans   []Span
	dropped int
}

// NewTimeline builds a timeline for the sweep, bounded at DefaultMaxSpans.
func NewTimeline(sweep string) *Timeline {
	return &Timeline{sweep: sweep, max: DefaultMaxSpans}
}

// Add records one span; the sweep attribute is filled in. Past the span
// bound the record is counted as dropped instead of growing without limit
// (WriteChrome reports the dropped count so a truncated timeline is never
// mistaken for a complete one).
func (t *Timeline) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.max {
		t.dropped++
		return
	}
	s.Sweep = t.sweep
	t.spans = append(t.spans, s)
}

// Spans snapshots the recorded spans (copied; in recording order).
func (t *Timeline) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Dropped reports how many spans the bound discarded.
func (t *Timeline) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteChrome renders the timeline as a Chrome trace-event JSON document,
// loadable in Perfetto (ui.perfetto.dev), through the same obs.ChromeWriter
// that renders pipeline traces.
//
// Layout: pid 0 is the coordinator — tid 0 carries the sweep lifecycle
// (admission, queue, shard, aggregate), tid 1 the completion-report
// processing, and each lease batch gets its own track so concurrent leases
// render side by side. Each fleet worker is one process (named after the
// worker), with one track per batch-local job slot so a batch's parallel
// jobs stack visibly. Worker spans were measured on the worker's clock and
// are anchored at the coordinator's lease-grant time, so cross-host clock
// skew shifts a worker's block as a whole without distorting spans within
// it. One microsecond of trace time is one microsecond of wall clock,
// zeroed at the earliest recorded span.
func (t *Timeline) WriteChrome(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("telemetry: no timeline recorded")
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	sweep, dropped := t.sweep, t.dropped
	t.mu.Unlock()

	var zero time.Time
	for i := range spans {
		if zero.IsZero() || spans[i].Start.Before(zero) {
			zero = spans[i].Start
		}
	}
	ts := func(at time.Time) int64 { return at.Sub(zero).Microseconds() }

	// Stable track assignment: batches sorted by id on the coordinator;
	// workers sorted by name, one job track per batch-local slot.
	const (
		tidLifecycle = 0
		tidReports   = 1
		tidBatchBase = 2
	)
	batchTid := map[string]int{}
	var batchIDs []string
	workerPid := map[string]int{}
	var workerNames []string
	jobSlots := map[string]int{} // worker -> max concurrent-slot count seen
	seenBatch := map[string]bool{}
	for i := range spans {
		s := &spans[i]
		if s.Cat == "coordinator" && s.Batch != "" && !seenBatch[s.Batch] {
			seenBatch[s.Batch] = true
			batchIDs = append(batchIDs, s.Batch)
		}
		if s.Cat == "worker" && s.Worker != "" && workerPid[s.Worker] == 0 {
			workerPid[s.Worker] = -1 // mark; numbered after the sort
			workerNames = append(workerNames, s.Worker)
		}
	}
	sort.Strings(batchIDs)
	for i, id := range batchIDs {
		batchTid[id] = tidBatchBase + i
	}
	sort.Strings(workerNames)
	for i, name := range workerNames {
		workerPid[name] = 1 + i
	}
	// Job slots: within one batch, the k-th job span gets track k+1 (track 0
	// is the batch-execute row). Batches on one worker are sequential, so
	// reusing slots across batches never overlaps.
	slot := map[string]int{} // worker+batch -> next slot
	jobTid := make([]int, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Name != StageJob {
			continue
		}
		key := s.Worker + "\x00" + s.Batch
		slot[key]++
		jobTid[i] = slot[key]
		if slot[key] > jobSlots[s.Worker] {
			jobSlots[s.Worker] = slot[key]
		}
	}

	cw := obs.NewChromeWriter(w)
	cw.Meta(0, -1, "process_name", "coordinator ("+sweep+")")
	cw.Meta(0, tidLifecycle, "thread_name", "sweep lifecycle")
	cw.Meta(0, tidReports, "thread_name", "reports")
	for _, id := range batchIDs {
		cw.Meta(0, batchTid[id], "thread_name", "batch "+id)
	}
	for _, name := range workerNames {
		pid := workerPid[name]
		cw.Meta(pid, -1, "process_name", "worker "+name)
		cw.Meta(pid, 0, "thread_name", "batches")
		for k := 1; k <= jobSlots[name]; k++ {
			cw.Meta(pid, k, "thread_name", fmt.Sprintf("job slot %d", k-1))
		}
	}
	for i := range spans {
		s := &spans[i]
		pid, tid := 0, tidLifecycle
		switch {
		case s.Cat == "worker":
			pid = workerPid[s.Worker]
			if s.Name == StageJob {
				tid = jobTid[i]
			} else {
				tid = 0
			}
		case s.Name == StageReport:
			tid = tidReports
		case s.Batch != "":
			tid = batchTid[s.Batch]
		}
		writeSpan(cw, pid, tid, s, ts(s.Start))
	}
	if dropped > 0 {
		cw.Event("{\"name\":\"%d spans dropped (timeline bound)\",\"cat\":\"coordinator\",\"ph\":\"i\",\"s\":\"g\",\"ts\":0,\"pid\":0,\"tid\":0}", dropped)
	}
	return cw.Close()
}

// writeSpan emits one span as a complete event.
func writeSpan(cw *obs.ChromeWriter, pid, tid int, s *Span, ts int64) {
	name := s.Name
	if s.Name == StageJob && s.Job != "" {
		name = s.Job
	}
	dur := s.Dur.Microseconds()
	if dur < 1 {
		dur = 1 // Perfetto hides zero-width slices; round sub-µs stages up
	}
	args := fmt.Sprintf("\"sweep\":%q", s.Sweep)
	if s.Batch != "" {
		args += fmt.Sprintf(",\"batch\":%q", s.Batch)
	}
	if s.Worker != "" {
		args += fmt.Sprintf(",\"worker\":%q", s.Worker)
	}
	if s.Name == StageJob {
		args += fmt.Sprintf(",\"index\":%d", s.Index)
	}
	if s.Attempt > 0 {
		args += fmt.Sprintf(",\"attempt\":%d", s.Attempt)
	}
	cw.Event("{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"tid\":%d,\"args\":{%s}}",
		name, s.Cat, ts, dur, pid, tid, args)
}
