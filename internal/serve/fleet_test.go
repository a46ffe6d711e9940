package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sesa/internal/config"
	"sesa/internal/fleet"
)

// newFleetTestServer builds a coordinator-mode Server plus its httptest
// front end, and starts n fleet workers pulling from it. Workers drain
// gracefully at cleanup.
func newFleetTestServer(t *testing.T, fc config.Fleet, n int) (*Server, *httptest.Server, []*fleet.Worker) {
	t.Helper()
	s, err := New(Options{MaxWorkers: 2, Fleet: &fc})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	workers := make([]*fleet.Worker, n)
	done := make(chan struct{}, n)
	for i := range workers {
		workers[i] = fleet.NewWorker(fleet.WorkerOptions{
			Coordinator: ts.URL + "/v1/fleet",
			Name:        "w" + string(rune('A'+i)),
			Jobs:        1,
			Poll:        5 * time.Millisecond,
			Client:      ts.Client(),
		})
		go func(w *fleet.Worker) {
			_ = w.Run(ctx)
			done <- struct{}{}
		}(workers[i])
	}
	t.Cleanup(func() {
		cancel()
		for range workers {
			<-done
		}
		ts.Close()
		s.Close()
	})
	return s, ts, workers
}

// fetchResults GETs a sweep's results document.
func fetchResults(t *testing.T, ts *httptest.Server, id string) SweepResults {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results %s: HTTP %d", id, resp.StatusCode)
	}
	var doc SweepResults
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// fetchTable GETs a sweep's raw Table IV bytes.
func fetchTable(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results?view=table")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table %s: HTTP %d: %s", id, resp.StatusCode, raw)
	}
	return raw
}

func fleetSweepRequest() SweepRequest {
	return SweepRequest{
		Title: "fleet identity sweep",
		Jobs: []JobSpec{
			{Profile: "radix", Model: "370-SLFSoS-key", InstPerCore: 2000, Seed: 42},
			{Profile: "barnes", Model: "x86", InstPerCore: 2000, Seed: 42},
			{Profile: "fft", Model: "370-NoSpec", InstPerCore: 2000, Seed: 7},
			{Profile: "radix", Model: "x86", InstPerCore: 2000, Seed: 43},
			{Profile: "ocean_cp", Model: "370-SLFSoS-key", InstPerCore: 2000, Seed: 9},
			{Profile: "barnes", Model: "370-NoSpec", InstPerCore: 2000, Seed: 11},
		},
	}
}

// TestFleetByteIdentity is the fabric's acceptance bar: the same sweep run
// through a coordinator plus two workers produces a Table IV document
// byte-identical to single-host execution, matching deterministic summary
// counters, and the coordinator's /status carries per-worker rows.
func TestFleetByteIdentity(t *testing.T) {
	req := fleetSweepRequest()

	// Single-host reference.
	_, local := newTestServer(t, Options{MaxWorkers: 2})
	resp, lst := post(t, local, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("local submit: HTTP %d", resp.StatusCode)
	}
	if fin := waitTerminal(t, local, lst.ID, 60*time.Second); fin.State != string(stateDone) {
		t.Fatalf("local sweep finished %s, want done", fin.State)
	}
	wantTable := fetchTable(t, local, lst.ID)
	wantDoc := fetchResults(t, local, lst.ID)

	// The same sweep through the fabric.
	_, ts, _ := newFleetTestServer(t, config.Fleet{BatchSize: 2, LeaseTTL: 2 * time.Second, MaxAttempts: 5}, 2)
	resp, fst := post(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fleet submit: HTTP %d", resp.StatusCode)
	}
	if fin := waitTerminal(t, ts, fst.ID, 60*time.Second); fin.State != string(stateDone) {
		t.Fatalf("fleet sweep finished %s, want done", fin.State)
	}

	gotTable := fetchTable(t, ts, fst.ID)
	if !bytes.Equal(gotTable, wantTable) {
		t.Errorf("fleet table is not byte-identical to single-host:\nfleet:\n%s\nlocal:\n%s", gotTable, wantTable)
	}

	gotDoc := fetchResults(t, ts, fst.ID)
	gs, ws := gotDoc.Summary, wantDoc.Summary
	if gs.Jobs != ws.Jobs || gs.Failed != ws.Failed || gs.TimedOut != ws.TimedOut ||
		gs.Canceled != ws.Canceled || gs.SimCycles != ws.SimCycles || gs.SimInsts != ws.SimInsts {
		t.Errorf("fleet summary counters differ:\nfleet: %+v\nlocal: %+v", gs, ws)
	}

	// Per-worker rows are served by the coordinator's protocol surface.
	resp, err := http.Get(ts.URL + "/v1/fleet/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []fleet.WorkerStatus
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatalf("GET /v1/fleet/workers: HTTP %d: %v", resp.StatusCode, err)
	}
	if len(rows) != 2 {
		t.Fatalf("fleet worker rows = %+v, want 2", rows)
	}
	batches := 0
	for _, row := range rows {
		if row.ID == "" || row.Cores != 1 {
			t.Errorf("worker row %+v missing id or cores", row)
		}
		batches += row.Completed
	}
	if batches != 3 {
		t.Errorf("completed batches across workers = %d, want 3 (6 jobs / batch 2)", batches)
	}
}

// TestFleetWorkerKilledMidSweep kills one of two workers while it holds a
// lease; the coordinator reassigns the forfeited batches and the sweep still
// finishes with output byte-identical to the single-host run.
func TestFleetWorkerKilledMidSweep(t *testing.T) {
	req := fleetSweepRequest()

	_, local := newTestServer(t, Options{MaxWorkers: 2})
	_, lst := post(t, local, req)
	if fin := waitTerminal(t, local, lst.ID, 60*time.Second); fin.State != string(stateDone) {
		t.Fatalf("local sweep finished %s, want done", fin.State)
	}
	wantTable := fetchTable(t, local, lst.ID)

	s, ts, workers := newFleetTestServer(t,
		config.Fleet{BatchSize: 1, LeaseTTL: 100 * time.Millisecond, MaxAttempts: 10}, 2)
	_, fst := post(t, ts, req)

	// Kill worker 0 as soon as it holds a lease.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var holding bool
		for _, row := range s.fleet.WorkerStatus() {
			if row.Name == "wA" && row.Leased > 0 {
				holding = true
			}
		}
		if holding {
			break
		}
		if _, st := getStatus(t, ts, fst.ID); sweepState(st.State).terminal() {
			t.Skip("sweep finished before the victim leased; nothing to kill")
		}
		if time.Now().After(deadline) {
			t.Fatal("victim worker never leased a batch")
		}
		time.Sleep(2 * time.Millisecond)
	}
	workers[0].Abort()

	if fin := waitTerminal(t, ts, fst.ID, 60*time.Second); fin.State != string(stateDone) {
		t.Fatalf("fleet sweep finished %s, want done", fin.State)
	}
	gotTable := fetchTable(t, ts, fst.ID)
	if !bytes.Equal(gotTable, wantTable) {
		t.Errorf("post-kill fleet table is not byte-identical to single-host:\nfleet:\n%s\nlocal:\n%s", gotTable, wantTable)
	}
	doc := fetchResults(t, ts, fst.ID)
	if doc.Summary.Failed != 0 {
		t.Errorf("post-kill sweep reports %d failed jobs, want 0 (failures: %+v)", doc.Summary.Failed, doc.Failures)
	}
}

// TestFleetCancelMidSweep: DELETE on a fleet sweep propagates through the
// coordinator — leaseholders are told to abandon and the sweep lands in
// canceled, exactly like the local runner path.
func TestFleetCancelMidSweep(t *testing.T) {
	_, ts, _ := newFleetTestServer(t,
		config.Fleet{BatchSize: 1, LeaseTTL: 2 * time.Second, MaxAttempts: 5}, 1)
	req := SweepRequest{
		Title: "fleet cancel sweep",
		Jobs: []JobSpec{
			{Profile: "radix", Model: "x86", InstPerCore: 60000, Seed: 1},
			{Profile: "radix", Model: "x86", InstPerCore: 60000, Seed: 2},
			{Profile: "radix", Model: "x86", InstPerCore: 60000, Seed: 3},
			{Profile: "radix", Model: "x86", InstPerCore: 60000, Seed: 4},
		},
	}
	_, st := post(t, ts, req)
	waitState(t, ts, st.ID, stateRunning, 30*time.Second)
	code, state := del(t, ts, st.ID)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d", code)
	}
	if state != string(stateCanceling) && state != string(stateCanceled) {
		t.Fatalf("cancel state = %s", state)
	}
	fin := waitTerminal(t, ts, st.ID, 30*time.Second)
	if fin.State != string(stateCanceled) {
		t.Fatalf("sweep finished %s, want canceled", fin.State)
	}
}
