package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sesa/internal/config"
	"sesa/internal/report"
	"sesa/internal/runner"
	"sesa/internal/trace"
)

// newTestServer builds a Server plus an httptest front end and registers
// cleanup for both.
func newTestServer(t *testing.T, o Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(o)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post submits a sweep request and returns the HTTP response with its decoded
// status document (when the body is one).
func post(t *testing.T, ts *httptest.Server, req SweepRequest) (*http.Response, SweepStatus) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st SweepStatus
	_ = json.Unmarshal(raw, &st)
	return resp, st
}

// getStatus fetches a sweep's status document.
func getStatus(t *testing.T, ts *httptest.Server, id string) (int, SweepStatus) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil && resp.StatusCode == http.StatusOK {
		t.Fatal(err)
	}
	return resp.StatusCode, st
}

// waitTerminal polls a sweep until it reaches a terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, st := getStatus(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		if sweepState(st.State).terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still %s after %s", id, st.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitState polls until the sweep reports the wanted state.
func waitState(t *testing.T, ts *httptest.Server, id string, want sweepState, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		_, st := getStatus(t, ts, id)
		if st.State == string(want) {
			return
		}
		if sweepState(st.State).terminal() {
			t.Fatalf("sweep %s reached %s while waiting for %s", id, st.State, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still %s after %s, want %s", id, st.State, timeout, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// del cancels a sweep and returns the HTTP status plus the reported state.
func del(t *testing.T, ts *httptest.Server, id string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st SweepStatus
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st.State
}

// TestRoundTripByteIdentity is the service's core contract: the table served
// over HTTP is byte-identical to what the runner pool + report layer produce
// directly for the same jobs — i.e. exactly sesa-bench's output.
func TestRoundTripByteIdentity(t *testing.T) {
	const title = "round-trip identity sweep"
	req := SweepRequest{
		Title: title,
		Jobs: []JobSpec{
			{Profile: "radix", Model: "370-SLFSoS-key", InstPerCore: 2000, Seed: 42},
			{Profile: "barnes", Model: "x86", InstPerCore: 2000, Seed: 42},
		},
	}

	// Expected bytes: run the same jobs through the pool directly.
	jobs := make([]runner.Job, len(req.Jobs))
	for i, sp := range req.Jobs {
		j, err := sp.resolve()
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	results, _ := runner.Pool{Workers: 2, Cache: trace.Shared()}.Run(jobs)
	table := report.CharacterizationTable{Title: title}
	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("job %d: %v", i, results[i].Err)
		}
		table.Rows = append(table.Rows, results[i].Char)
	}
	var want bytes.Buffer
	if err := table.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{MaxWorkers: 2})
	resp, st := post(t, ts, req)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if resp.StatusCode == http.StatusAccepted {
		if loc := resp.Header.Get("Location"); loc != "/v1/sweeps/"+st.ID {
			t.Errorf("Location = %q, want %q", loc, "/v1/sweeps/"+st.ID)
		}
	}
	fin := waitTerminal(t, ts, st.ID, 30*time.Second)
	if fin.State != string(stateDone) {
		t.Fatalf("sweep finished %s, want done", fin.State)
	}

	tr, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/results?view=table")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	got, err := io.ReadAll(tr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("HTTP table is not byte-identical to the pool's:\nhttp:\n%s\npool:\n%s", got, want.Bytes())
	}
}

// TestCacheHitResubmission locks in the content-addressed cache: resubmitting
// a finished sweep completes at POST time, with no new simulation.
func TestCacheHitResubmission(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxWorkers: 2})
	req := SweepRequest{
		Title: "cache sweep",
		Jobs: []JobSpec{
			{Profile: "radix", Model: "x86", InstPerCore: 2000, Seed: 7},
			{Profile: "radix", Model: "370-NoSpec", InstPerCore: 2000, Seed: 7},
		},
	}
	resp1, st1 := post(t, ts, req)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d, want 202", resp1.StatusCode)
	}
	fin1 := waitTerminal(t, ts, st1.ID, 30*time.Second)
	if fin1.State != string(stateDone) || fin1.CacheHits != 0 {
		t.Fatalf("first run: state %s, cache hits %d", fin1.State, fin1.CacheHits)
	}

	_, _, sizeBefore := s.cache.stats()
	resp2, st2 := post(t, ts, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d, want 200 (terminal at POST)", resp2.StatusCode)
	}
	if st2.State != string(stateDone) {
		t.Fatalf("resubmit state %s, want done", st2.State)
	}
	if st2.CacheHits != len(req.Jobs) {
		t.Errorf("resubmit cache hits = %d, want %d", st2.CacheHits, len(req.Jobs))
	}
	if _, misses, size := s.cache.stats(); size != sizeBefore || misses != 2 {
		t.Errorf("resubmission re-simulated: size %d→%d, misses %d (want unchanged size, 2 misses)",
			sizeBefore, size, misses)
	}

	// Both documents carry identical tables.
	var docs [2]SweepResults
	for i, id := range []string{st1.ID, st2.ID} {
		r, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&docs[i]); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	if len(docs[0].Table.Rows) != len(req.Jobs) || len(docs[1].Table.Rows) != len(req.Jobs) {
		t.Fatalf("row counts: %d and %d, want %d", len(docs[0].Table.Rows), len(docs[1].Table.Rows), len(req.Jobs))
	}
	for i := range docs[0].Table.Rows {
		if docs[0].Table.Rows[i] != docs[1].Table.Rows[i] {
			t.Errorf("row %d differs between fresh and cached serve", i)
		}
	}
}

// TestAdmissionBound429 locks in bounded admission: with a one-slot queue
// behind a busy worker, the third submission is shed with 429 + Retry-After.
func TestAdmissionBound429(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWorkers: 1, MaxQueued: 1})
	long := func(seed uint64) SweepRequest {
		return SweepRequest{Jobs: []JobSpec{
			{Profile: "radix", Model: "x86", InstPerCore: 300_000, Seed: seed},
		}}
	}
	resp1, st1 := post(t, ts, long(1))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: HTTP %d", resp1.StatusCode)
	}
	waitState(t, ts, st1.ID, stateRunning, 10*time.Second)

	resp2, st2 := post(t, ts, long(2))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: HTTP %d, want 202 (queued)", resp2.StatusCode)
	}
	if st2.QueuePosition != 1 {
		t.Errorf("queued sweep position = %d, want 1", st2.QueuePosition)
	}

	resp3, _ := post(t, ts, long(3))
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 3: HTTP %d, want 429", resp3.StatusCode)
	}
	if ra := resp3.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}

	// Canceling the queued sweep frees its slot: admission works again.
	if code, state := del(t, ts, st2.ID); code != http.StatusOK || state != string(stateCanceled) {
		t.Fatalf("cancel queued: HTTP %d state %s", code, state)
	}
	resp4, _ := post(t, ts, long(4))
	if resp4.StatusCode != http.StatusAccepted {
		t.Errorf("submit after freeing the queue: HTTP %d, want 202", resp4.StatusCode)
	}
}

// TestDeleteRunningSweepFreesWorkers is the cancellation acceptance test: a
// DELETE of a running sweep stops the simulation within a cancellation poll,
// the sweep reports canceled with partial statistics, and the freed workers
// pick up the next sweep.
func TestDeleteRunningSweepFreesWorkers(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWorkers: 2})
	// The cancel must land mid-simulation to exercise partial statistics.
	// Trace generation is not cancellable, so the job's trace is put in the
	// shared trace cache first. The running job still builds its machine
	// and validates 8x100k instructions before its first cycle, which under
	// the race detector can outlast a fixed sleep, and a cancel that lands
	// there stops the run at cycle 0. So the sweep is resubmitted (a
	// canceled sweep is never cached) with a doubling delay until a cancel
	// lands mid-run. The simulation runs for over a second on a 2-vCPU Xeon
	// guest, and for longer under the race detector, so the delays stay
	// inside it.
	radix, _ := trace.Lookup("radix")
	trace.Shared().Workload(radix, config.Default(config.X86).Cores, 100_000, 11)
	req := SweepRequest{Jobs: []JobSpec{
		{Profile: "radix", Model: "x86", InstPerCore: 100_000, Seed: 11},
	}}
	const attempts = 5
	for attempt, delay := 1, 50*time.Millisecond; ; attempt, delay = attempt+1, 2*delay {
		resp, st := post(t, ts, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
		waitState(t, ts, st.ID, stateRunning, 20*time.Second)
		time.Sleep(delay)

		start := time.Now()
		code, state := del(t, ts, st.ID)
		if code != http.StatusAccepted || state != string(stateCanceling) {
			t.Fatalf("DELETE running: HTTP %d state %s, want 202 canceling", code, state)
		}
		fin := waitTerminal(t, ts, st.ID, 15*time.Second)
		if fin.State != string(stateCanceled) {
			t.Fatalf("sweep finished %s, want canceled", fin.State)
		}
		if wall := time.Since(start); wall > 10*time.Second {
			t.Errorf("cancellation took %s; workers were not freed promptly", wall)
		}

		var doc SweepResults
		r, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/results")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if doc.Summary.Canceled != 1 || len(doc.Failures) != 1 || !doc.Failures[0].Canceled {
			t.Errorf("canceled sweep results: summary.Canceled=%d failures=%+v", doc.Summary.Canceled, doc.Failures)
		}
		if doc.Summary.SimCycles > 0 {
			break
		}
		if attempt == attempts {
			t.Fatalf("canceled mid-run but no partial sim cycles reported, in %d attempts up to %s after the job started",
				attempts, delay)
		}
		t.Logf("attempt %d: a cancel %s after the job started landed before its first cycle: %+v",
			attempt, delay, doc.Failures)
	}

	// The freed worker runs the next sweep to completion.
	resp2, st2 := post(t, ts, SweepRequest{Jobs: []JobSpec{
		{Profile: "radix", Model: "x86", InstPerCore: 2000, Seed: 12},
	}})
	if resp2.StatusCode != http.StatusAccepted && resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up submit: HTTP %d", resp2.StatusCode)
	}
	if resp2.StatusCode == http.StatusAccepted {
		if fin2 := waitTerminal(t, ts, st2.ID, 30*time.Second); fin2.State != string(stateDone) {
			t.Errorf("follow-up sweep finished %s, want done", fin2.State)
		}
	}
}

// TestDrainStopsAdmission locks in the SIGTERM semantics: after Drain begins,
// submissions are shed with 503.
func TestDrainStopsAdmission(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxWorkers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Drain(ctx) // idle server: drains immediately
	resp, _ := post(t, ts, SweepRequest{Jobs: []JobSpec{
		{Profile: "radix", Model: "x86", InstPerCore: 2000, Seed: 1},
	}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestDrainCancelsOverdueSweeps: a drain whose deadline expires cancels the
// running sweep rather than waiting for it.
func TestDrainCancelsOverdueSweeps(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxWorkers: 1})
	resp, st := post(t, ts, SweepRequest{Jobs: []JobSpec{
		{Profile: "radix", Model: "x86", InstPerCore: 200_000, Seed: 21},
	}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitState(t, ts, st.ID, stateRunning, 20*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	s.Drain(ctx)
	if wall := time.Since(start); wall > 10*time.Second {
		t.Errorf("overdue drain took %s", wall)
	}
	if _, st := getStatus(t, ts, st.ID); st.State != string(stateCanceled) {
		t.Errorf("sweep state after overdue drain = %s, want canceled", st.State)
	}
}

// badSweepBodies are POST /v1/sweeps bodies the daemon must answer with
// 400; FuzzSweepRequest starts from them too.
var badSweepBodies = map[string]string{
	"no jobs":         `{"jobs":[]}`,
	"unknown profile": `{"jobs":[{"profile":"nope","model":"x86","inst_per_core":100}]}`,
	"unknown model":   `{"jobs":[{"profile":"radix","model":"nope","inst_per_core":100}]}`,
	"bad step mode":   `{"jobs":[{"profile":"radix","model":"x86","inst_per_core":100,"step_mode":"warp"}]}`,
	"naive step mode": `{"jobs":[{"profile":"radix","model":"x86","inst_per_core":100,"step_mode":"naive"}]}`,
	"zero insts":      `{"jobs":[{"profile":"radix","model":"x86","inst_per_core":0}]}`,
	"unknown field":   `{"jobs":[{"profile":"radix","model":"x86","inst_per_core":100,"bogus":1}]}`,
	"histograms":      `{"jobs":[{"profile":"radix","model":"x86","inst_per_core":100}],"histograms":true}`,
	"not json":        `not json`,
	"max int insts":   `{"jobs":[{"profile":"radix","model":"x86","inst_per_core":9223372036854775807}]}`,
	"insts past bound": fmt.Sprintf(`{"jobs":[{"profile":"radix","model":"x86","inst_per_core":%d}]}`,
		trace.MaxInstPerCore+1),
	"trailing data": `{"jobs":[{"profile":"radix","model":"x86","inst_per_core":5}]} {"garbage"`,
}

// TestValidation covers the 400/404/409 error paths. A body the daemon
// rejects must leave it serving.
func TestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWorkers: 1})
	for name, body := range badSweepBodies {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("daemon down after the bad bodies: %v", err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after the bad bodies: HTTP %d, want 200", health.StatusCode)
	}

	if code, _ := getStatus(t, ts, "sw-999999"); code != http.StatusNotFound {
		t.Errorf("unknown sweep status: HTTP %d, want 404", code)
	}
	if code, _ := del(t, ts, "sw-999999"); code != http.StatusNotFound {
		t.Errorf("unknown sweep DELETE: HTTP %d, want 404", code)
	}

	// Results of a non-terminal sweep are 409.
	resp, st := post(t, ts, SweepRequest{Jobs: []JobSpec{
		{Profile: "radix", Model: "x86", InstPerCore: 300_000, Seed: 31},
	}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	r, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Errorf("results of non-terminal sweep: HTTP %d, want 409", r.StatusCode)
	}
	// A DELETE of a terminal sweep is 409 too.
	if code, _ := del(t, ts, st.ID); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("cleanup DELETE: HTTP %d", code)
	}
	waitTerminal(t, ts, st.ID, 15*time.Second)
	if code, _ := del(t, ts, st.ID); code != http.StatusConflict {
		t.Errorf("DELETE of terminal sweep: HTTP %d, want 409", code)
	}
}

// TestRoutes pins the route table: the introspection endpoints every sesa
// process serves sit beside the API without shadowing its method checks,
// the result-cache counters live on /metrics only, and /metrics and
// /v1/sweeps/{id} are the only views of a sweep.
func TestRoutes(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWorkers: 1})
	for _, c := range []struct {
		method, path string
		want         int
	}{
		{"GET", "/status", http.StatusNotFound},
		{"GET", "/histograms", http.StatusNotFound},
		{"GET", "/metrics", http.StatusOK},
		{"GET", "/healthz", http.StatusOK},
		{"GET", "/debug/pprof/cmdline", http.StatusOK},
		{"GET", "/v1/sweeps", http.StatusMethodNotAllowed},
		{"PUT", "/v1/sweeps", http.StatusMethodNotAllowed},
		{"GET", "/v1/cache", http.StatusNotFound},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: HTTP %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

// TestJobKeyCanonical locks in the content address: equal resolved jobs share
// a key, different parameters do not, explicit defaults hash like implicit
// ones, and the stepper, which never changes a result, is left out.
func TestJobKeyCanonical(t *testing.T) {
	p, _ := trace.Lookup("radix")
	base := runner.Job{Profile: p, Model: config.X86, InstPerCore: 1000, Seed: 1}
	same := runner.Job{Profile: p, Model: config.X86, InstPerCore: 1000, Seed: 1}
	if jobKey(base) != jobKey(same) {
		t.Error("identical jobs hash differently")
	}
	cfg := config.Default(config.X86)
	explicit := base
	explicit.Config = &cfg
	if jobKey(base) != jobKey(explicit) {
		t.Error("explicit default config hashes differently from implicit")
	}
	naive := base
	naive.StepMode = config.StepNaive
	if jobKey(base) != jobKey(naive) {
		t.Error("a naive-stepped job hashes differently from its skip twin")
	}
	for name, j := range map[string]runner.Job{
		"model": {Profile: p, Model: config.SLFSoSKey370, InstPerCore: 1000, Seed: 1},
		"n":     {Profile: p, Model: config.X86, InstPerCore: 2000, Seed: 1},
		"seed":  {Profile: p, Model: config.X86, InstPerCore: 1000, Seed: 2},
		"bound": {Profile: p, Model: config.X86, InstPerCore: 1000, Seed: 1, MaxCycles: 5},
		"profile": func() runner.Job {
			b, _ := trace.Lookup("barnes")
			return runner.Job{Profile: b, Model: config.X86, InstPerCore: 1000, Seed: 1}
		}(),
	} {
		if jobKey(base) == jobKey(j) {
			t.Errorf("job differing in %s shares the base key", name)
		}
	}
}

// TestCacheRefusesCanceledResults guards the non-determinism firewall: a
// canceled result must never enter the content-addressed cache.
func TestCacheRefusesCanceledResults(t *testing.T) {
	c := newResultCache(10)
	p, _ := trace.Lookup("radix")
	j := runner.Job{Profile: p, Model: config.X86, InstPerCore: 1000, Seed: 1}
	r := runner.Result{Job: j, Err: fmt.Errorf("wrapped: %w", context.Canceled)}
	c.put(jobKey(j), r)
	if _, ok := c.get(jobKey(j), 0, j); ok {
		t.Error("canceled result was cached")
	}
}
