package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"sesa/internal/config"
	"sesa/internal/report"
	"sesa/internal/runner"
	"sesa/internal/trace"
)

// JobSpec is the wire form of one benchmark job, mirroring the sesa-bench
// flags: a Table IV profile run on one machine model.
type JobSpec struct {
	// Profile names a Table IV benchmark (e.g. "radix", "505.mcf").
	Profile string `json:"profile"`
	// Model is the consistency model name as printed ("x86", "370-SLFSoS-key", ...).
	Model string `json:"model"`
	// InstPerCore scales the generated trace: 1 to trace.MaxInstPerCore
	// (1,048,576) instructions per core.
	InstPerCore int `json:"inst_per_core"`
	// Seed seeds the trace generator.
	Seed uint64 `json:"seed"`
	// MaxCycles optionally overrides the default liveness bound.
	MaxCycles uint64 `json:"max_cycles,omitempty"`
}

// SweepRequest is the POST /v1/sweeps body.
type SweepRequest struct {
	// Title names the sweep's Table IV document; defaults to "sweep <id>".
	Title string `json:"title,omitempty"`
	// Jobs lists the experiments, run in order (results are positional).
	Jobs []JobSpec `json:"jobs"`
}

// resolve validates a wire job and translates it into a runner job.
func (sp JobSpec) resolve() (runner.Job, error) {
	p, ok := trace.Lookup(sp.Profile)
	if !ok {
		return runner.Job{}, fmt.Errorf("unknown profile %q", sp.Profile)
	}
	model, err := config.ParseModel(sp.Model)
	if err != nil {
		return runner.Job{}, err
	}
	if err := trace.CheckInstPerCore(sp.InstPerCore); err != nil {
		return runner.Job{}, err
	}
	return runner.Job{Profile: p, Model: model, InstPerCore: sp.InstPerCore,
		Seed: sp.Seed, MaxCycles: sp.MaxCycles}, nil
}

// decodeSweep reads a POST /v1/sweeps body and resolves its jobs. The body
// is one JSON value, optionally followed by whitespace: an object with only
// known fields and at least one job. Every error is the client's (HTTP 400).
func decodeSweep(r io.Reader) (SweepRequest, []runner.Job, error) {
	var req SweepRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, fmt.Errorf("serve: bad sweep request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, nil, errors.New("serve: bad sweep request: data after the JSON value")
	}
	if len(req.Jobs) == 0 {
		return req, nil, errors.New("serve: sweep has no jobs")
	}
	jobs := make([]runner.Job, len(req.Jobs))
	for i, sp := range req.Jobs {
		j, err := sp.resolve()
		if err != nil {
			return req, nil, fmt.Errorf("serve: job %d: %w", i, err)
		}
		jobs[i] = j
	}
	return req, jobs, nil
}

// SweepStatus is the GET /v1/sweeps/{id} (and submission) response.
type SweepStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Title string `json:"title,omitempty"`
	Jobs  int    `json:"jobs"`
	// QueuePosition is 1-based while queued (1 = next to run).
	QueuePosition int `json:"queue_position,omitempty"`
	// CacheHits counts jobs served from the content-addressed result cache
	// (filled when the sweep finishes).
	CacheHits int `json:"cache_hits"`
	// Progress is the live per-job view of the simulated (non-cached) jobs
	// while the sweep runs, and the final counts afterwards.
	Progress *runner.Snapshot `json:"progress,omitempty"`
}

// SweepResults is the GET /v1/sweeps/{id}/results response: the Table IV
// document for the sweep's jobs plus the sweep summary. The table rows are
// byte-identical to what sesa-bench emits for the same jobs — cached or
// simulated, jobs are deterministic.
type SweepResults struct {
	ID        string                       `json:"id"`
	State     string                       `json:"state"`
	CacheHits int                          `json:"cache_hits"`
	Table     report.CharacterizationTable `json:"table4"`
	Summary   report.SweepSummary          `json:"summary"`
	Failures  []runner.JobFailure          `json:"failures,omitempty"`
}

// errDraining rejects submissions during graceful drain.
var errDraining = errors.New("serve: draining, not admitting new sweeps")

// admissionError is returned when the queue is full; retryAfter feeds the
// Retry-After header of the 429.
type admissionError struct{ retryAfter int }

func (e *admissionError) Error() string {
	return fmt.Sprintf("serve: admission queue full, retry in ~%ds", e.retryAfter)
}

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/sweeps               submit a sweep (202; 200 when fully cached;
//	                                429 + Retry-After when the queue is full;
//	                                503 while draining)
//	GET    /v1/sweeps/{id}          status + live per-job progress
//	GET    /v1/sweeps/{id}/results  Table IV rows + sweep summary
//	                                (?view=table serves the bare table document)
//	GET    /v1/sweeps/{id}/timeline the sweep's span timeline as Chrome-trace
//	                                JSON (open in ui.perfetto.dev)
//	DELETE /v1/sweeps/{id}          cancel (mid-run cancellation frees workers)
//
// plus runner.StatusHandler's endpoints, which every sesa process serves:
// /metrics renders the registry (queue depth, the result-cache counters and
// the per-sweep families), and /healthz and /debug/pprof/ complete the set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/sweeps/{id}/timeline", s.handleTimeline)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	sh := runner.StatusHandler(s.reg)
	for _, path := range []string{"/metrics", "/healthz", "/debug/pprof/"} {
		mux.Handle(path, sh)
	}
	return mux
}

// writeJSON writes v as indented JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes an {"error": ...} document.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, jobs, err := decodeSweep(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sw, err := s.submit(req.Title, jobs)
	if err != nil {
		var ae *admissionError
		switch {
		case errors.Is(err, errDraining):
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.As(err, &ae):
			w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
			writeError(w, http.StatusTooManyRequests, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	status := s.statusDoc(sw)
	if status.State == string(stateDone) {
		// Fully served from cache: terminal at submission.
		writeJSON(w, http.StatusOK, status)
		return
	}
	w.Header().Set("Location", "/v1/sweeps/"+sw.id)
	writeJSON(w, http.StatusAccepted, status)
}

// statusDoc builds the status view of a sweep.
func (s *Server) statusDoc(sw *sweep) SweepStatus {
	s.mu.Lock()
	st := SweepStatus{
		ID:    sw.id,
		State: string(sw.state),
		Title: sw.title,
		Jobs:  len(sw.jobs),
	}
	if sw.state == stateQueued {
		for i, q := range s.queue {
			if q == sw {
				st.QueuePosition = i + 1
				break
			}
		}
	}
	if sw.state.terminal() {
		st.CacheHits = sw.cacheHits
	}
	progress := sw.progress
	s.mu.Unlock()
	if progress != nil {
		snap := progress.Snapshot()
		st.Progress = &snap
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown sweep %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.statusDoc(sw))
}

// resultsDoc builds the results view of a terminal sweep. The table collects
// the Characterization rows of successful jobs in job order — exactly the
// rows sesa-bench's Table IV path would emit for the same jobs.
func resultsDoc(sw *sweep) SweepResults {
	title := sw.title
	if title == "" {
		title = "sweep " + sw.id
	}
	doc := SweepResults{
		ID:        sw.id,
		State:     string(sw.state),
		CacheHits: sw.cacheHits,
		Table:     report.CharacterizationTable{Title: title},
		Summary:   sw.summary,
	}
	for i := range sw.results {
		r := &sw.results[i]
		if r.Err != nil {
			doc.Failures = append(doc.Failures, r.Failure())
			continue
		}
		doc.Table.Rows = append(doc.Table.Rows, r.Char)
	}
	return doc
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown sweep %q", r.PathValue("id")))
		return
	}
	if !s.stateOf(sw).terminal() {
		writeError(w, http.StatusConflict,
			fmt.Errorf("serve: sweep %s is %s; results are served once it is done or canceled",
				sw.id, s.stateOf(sw)))
		return
	}
	// Terminal: results/summary are immutable now, safe to read unlocked.
	doc := resultsDoc(sw)
	switch view := r.URL.Query().Get("view"); view {
	case "", "full":
		writeJSON(w, http.StatusOK, doc)
	case "table":
		// The bare Table IV document, byte-identical to
		// `sesa-bench ... -format json` for the same jobs and title.
		w.Header().Set("Content-Type", "application/json")
		_ = doc.Table.WriteJSON(w)
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: unknown results view %q (want full or table)", view))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown sweep %q", r.PathValue("id")))
		return
	}
	state, err := s.cancelSweep(sw, fmt.Errorf("serve: sweep %s deleted by client", sw.id))
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	st := s.statusDoc(sw)
	st.State = string(state)
	if state == stateCanceling {
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleTimeline serves the sweep's span record as a Chrome trace-event
// document. It works mid-run too — the timeline snapshots safely — which is
// how you watch a sweep take shape live.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown sweep %q", r.PathValue("id")))
		return
	}
	if sw.timeline == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("serve: sweep %s recorded no timeline", sw.id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", sw.id+".trace.json"))
	_ = sw.timeline.WriteChrome(w)
}
