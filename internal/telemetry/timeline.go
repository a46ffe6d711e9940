package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"

	"sesa/internal/obs"
)

// Span stage names, covering a sweep's path through the service.
// Lifecycle stages carry Cat "coordinator"; the pool's execution window
// and its jobs carry Cat "worker".
const (
	StageAdmission = "admission"      // submit handling: parse, cache probe, enqueue
	StageQueue     = "queue"          // admitted → dispatcher picks the sweep up
	StageExecute   = "worker-execute" // the runner pool's execution window
	StageJob       = "job"            // one job's execution window
	StageAggregate = "aggregate"      // all results in → summary built and stored
)

// Span is one timed stage of a sweep's life. Spans are operational data —
// wall-clock, host-dependent — and are never part of the deterministic
// result surface.
type Span struct {
	Name  string        // a Stage* constant
	Cat   string        // "coordinator" (lifecycle) or "worker" (execution)
	Sweep string        // sweep id
	Job   string        // job name, for StageJob spans
	Index int           // sweep job index, for StageJob spans (-1 otherwise)
	Start time.Time     // start of the stage
	Dur   time.Duration // measured duration
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
// Layout: pid 0 is the coordinator, whose tid 0 carries the sweep
// lifecycle (admission, queue, aggregate). pid 1 is worker "local", the
// daemon's runner pool, present once a worker span is recorded: tid 0
// carries the worker-execute window and the k-th recorded job gets tid k+1,
// so a sweep's parallel jobs stack visibly. The coordinator's tid 1 track
// ("reports") stays empty; it and the "batches" name of the worker's tid 0
// keep the document's layout stable for existing trace readers. One
// microsecond of trace time is one microsecond of wall clock, zeroed at
// the earliest recorded span.
func (t *Timeline) WriteChrome(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("telemetry: no timeline recorded")
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	sweep, dropped := t.sweep, t.dropped
	t.mu.Unlock()

	var zero time.Time
	worker, jobs := false, 0
	for i := range spans {
		s := &spans[i]
		if zero.IsZero() || s.Start.Before(zero) {
			zero = s.Start
		}
		if s.Cat == "worker" {
			worker = true
			if s.Name == StageJob {
				jobs++
			}
		}
	}

	cw := obs.NewChromeWriter(w)
	cw.Meta(0, -1, "process_name", "coordinator ("+sweep+")")
	cw.Meta(0, 0, "thread_name", "sweep lifecycle")
	cw.Meta(0, 1, "thread_name", "reports")
	if worker {
		cw.Meta(1, -1, "process_name", "worker local")
		cw.Meta(1, 0, "thread_name", "batches")
		for k := 1; k <= jobs; k++ {
			cw.Meta(1, k, "thread_name", fmt.Sprintf("job slot %d", k-1))
		}
	}
	job := 0
	for i := range spans {
		s := &spans[i]
		pid, tid := 0, 0
		if s.Cat == "worker" {
			pid = 1
			if s.Name == StageJob {
				job++
				tid = job
			}
		}
		writeSpan(cw, pid, tid, s, s.Start.Sub(zero).Microseconds())
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
	if s.Cat == "worker" {
		args += ",\"worker\":\"local\""
	}
	if s.Name == StageJob {
		args += fmt.Sprintf(",\"index\":%d", s.Index)
	}
	cw.Event("{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"tid\":%d,\"args\":{%s}}",
		name, s.Cat, ts, dur, pid, tid, args)
}
