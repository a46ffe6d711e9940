package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"sesa/internal/telemetry"
)

// scrapeSeries GETs /metrics and returns the set of series identities —
// "name{labels}" with the sample value stripped, since values (rates, byte
// counts, wall times) are not reproducible.
func scrapeSeries(t *testing.T, ts *httptest.Server) map[string]bool {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain exposition", ct)
	}
	series := make(map[string]bool)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("/metrics line %q has no value", line)
		}
		series[line[:i]] = true
	}
	return series
}

// TestMetricsEndpoint drives a local-mode sweep to completion, resubmits it to
// hit the result cache, and asserts /metrics exposes the expected series
// names and label blocks. Values are normalized away — only identities are
// golden.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWorkers: 2})
	req := SweepRequest{
		Title: "metrics sweep",
		Jobs: []JobSpec{
			{Profile: "radix", Model: "x86", InstPerCore: 2000, Seed: 42},
			{Profile: "fft", Model: "370-NoSpec", InstPerCore: 2000, Seed: 7},
		},
	}
	resp, st := post(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if fin := waitTerminal(t, ts, st.ID, 60*time.Second); fin.State != string(stateDone) {
		t.Fatalf("sweep finished %s, want done", fin.State)
	}
	// Resubmit: both jobs come out of the cache. The resubmission completes
	// synchronously with no progress tracker, so it never enters the
	// per-sweep window — the families keep reporting the executed sweep —
	// but the scrape-time cache counters move.
	resp2, _ := post(t, ts, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached resubmit: HTTP %d, want 200", resp2.StatusCode)
	}

	series := scrapeSeries(t, ts)
	for _, want := range []string{
		"sesa_serve_queue_depth",
		"sesa_cache_entries",
		"sesa_cache_hits_total",
		"sesa_cache_misses_total",
		`sesa_sweep_jobs{sweep="` + st.ID + `"}`,
		`sesa_sweep_jobs_done{sweep="` + st.ID + `"}`,
		`sesa_sweep_jobs_failed{sweep="` + st.ID + `"}`,
		`sesa_sweep_jobs_per_second{sweep="` + st.ID + `"}`,
		`sesa_sweep_cycles_per_second{sweep="` + st.ID + `"}`,
	} {
		if !series[want] {
			var got []string
			for s := range series {
				got = append(got, s)
			}
			sort.Strings(got)
			t.Errorf("/metrics missing series %q; have:\n%s", want, strings.Join(got, "\n"))
		}
	}
}

// TestMetricsWithoutTelemetry: a server built with zero Options has no
// logger but still its own registry, so /metrics serves the queue and cache
// families before any sweep is submitted.
func TestMetricsWithoutTelemetry(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	series := scrapeSeries(t, ts)
	for _, want := range []string{
		"sesa_serve_queue_depth",
		"sesa_cache_entries",
		"sesa_cache_hits_total",
		"sesa_cache_misses_total",
	} {
		if !series[want] {
			t.Errorf("/metrics of a zero-Options server lacks %q; have %v", want, series)
		}
	}
}

// chromeTrace is the slice of the Chrome trace-event schema the tests read.
type chromeTrace struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Cat  string `json:"cat"`
		Ph   string `json:"ph"`
		Ts   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
		Args struct {
			Sweep  string `json:"sweep"`
			Batch  string `json:"batch"`
			Worker string `json:"worker"`
			Index  *int   `json:"index"`
			Name   string `json:"name"`
		} `json:"args"`
	} `json:"traceEvents"`
}

// fetchTimeline downloads and decodes a sweep's Chrome-trace timeline.
func fetchTimeline(t *testing.T, ts *httptest.Server, id string) chromeTrace {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline %s: HTTP %d: %s", id, resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("timeline Content-Type = %q, want application/json", ct)
	}
	var doc chromeTrace
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline %s is not valid Chrome-trace JSON: %v\n%s", id, err, raw)
	}
	return doc
}

// TestTimelineLocalSweep: a sweep records its lifecycle, and its jobs and
// execution window on worker "local", the daemon's own pool.
func TestTimelineLocalSweep(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWorkers: 2})
	req := SweepRequest{
		Title: "local timeline sweep",
		Jobs: []JobSpec{
			{Profile: "radix", Model: "x86", InstPerCore: 2000, Seed: 42},
			{Profile: "fft", Model: "370-NoSpec", InstPerCore: 2000, Seed: 7},
		},
	}
	_, st := post(t, ts, req)
	if fin := waitTerminal(t, ts, st.ID, 60*time.Second); fin.State != string(stateDone) {
		t.Fatalf("sweep finished %s, want done", fin.State)
	}
	doc := fetchTimeline(t, ts, st.ID)
	stages := make(map[string]bool)
	jobSpans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Args.Index != nil {
			jobSpans++
			if ev.Args.Worker != "local" {
				t.Errorf("local job span attributed to %q, want \"local\"", ev.Args.Worker)
			}
		} else {
			stages[ev.Name] = true
		}
	}
	if jobSpans != len(req.Jobs) {
		t.Errorf("local timeline has %d job spans, want %d", jobSpans, len(req.Jobs))
	}
	for _, stage := range []string{
		telemetry.StageAdmission, telemetry.StageQueue,
		telemetry.StageExecute, telemetry.StageAggregate,
	} {
		if !stages[stage] {
			t.Errorf("local timeline missing %q span (have %v)", stage, stages)
		}
	}
}

// TestTimelineAlwaysRecorded: span timelines are bounded, job-granular and
// cheap, so they are recorded even without a logger — the endpoint 404s
// only for unknown sweeps.
func TestTimelineAlwaysRecorded(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWorkers: 1})
	resp, err := http.Get(ts.URL + "/v1/sweeps/sw-999999/timeline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep timeline: HTTP %d, want 404", resp.StatusCode)
	}

	req := SweepRequest{
		Title: "no logger",
		Jobs:  []JobSpec{{Profile: "radix", Model: "x86", InstPerCore: 2000, Seed: 42}},
	}
	_, st := post(t, ts, req)
	waitTerminal(t, ts, st.ID, 60*time.Second)
	if doc := fetchTimeline(t, ts, st.ID); len(doc.TraceEvents) == 0 {
		t.Error("logger-less server recorded an empty timeline")
	}
}
