package runner

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"sesa/internal/config"
	"sesa/internal/hist"
	"sesa/internal/trace"
)

func TestProgressCounts(t *testing.T) {
	jobs := histJobs(t, 3)
	// Force one timeout: two cycles is never enough to finish.
	jobs[1].MaxCycles = 2
	pr := NewProgress()
	results, summary := Pool{Workers: 2, Progress: pr}.Run(jobs)

	s := pr.Snapshot()
	if s.TotalJobs != 3 || s.Done != 3 {
		t.Errorf("snapshot jobs = %d/%d, want 3/3", s.Done, s.TotalJobs)
	}
	if s.Failed != 1 || s.TimedOut != 1 {
		t.Errorf("failed/timedOut = %d/%d, want 1/1", s.Failed, s.TimedOut)
	}
	if len(s.Running) != 0 {
		t.Errorf("running = %v after the sweep ended", s.Running)
	}
	if len(s.Failures) != 1 || !s.Failures[0].TimedOut || s.Failures[0].Index != 1 {
		t.Errorf("failures = %+v", s.Failures)
	}
	if s.Insts == 0 || s.Cycles == 0 {
		t.Errorf("no work accounted: %+v", s)
	}
	if summary.Failed != 1 || summary.TimedOut != 1 {
		t.Errorf("summary failed/timedOut = %d/%d, want 1/1", summary.Failed, summary.TimedOut)
	}
	if !results[1].TimedOut() {
		t.Errorf("job 1 err = %v, not classified as timeout", results[1].Err)
	}
	if results[0].TimedOut() || results[0].Err != nil {
		t.Errorf("job 0 unexpectedly failed: %v", results[0].Err)
	}

	// Completed jobs' histograms merge into the live view.
	h := pr.Histograms()
	if h == nil {
		t.Fatal("no merged histograms")
	}
	if h.H(hist.LoadL1).Count() == 0 {
		t.Error("merged histograms empty")
	}
}

func TestProgressNilSafe(t *testing.T) {
	var pr *Progress
	pr.begin(1)
	pr.jobStarted(0, "x")
	pr.jobDone(&Result{})
	if s := pr.Snapshot(); s.TotalJobs != 0 {
		t.Errorf("nil snapshot = %+v", s)
	}
	if pr.Histograms() != nil {
		t.Error("nil progress returned histograms")
	}
}

func TestServeStatus(t *testing.T) {
	pr := NewProgress()
	addr, err := ServeStatus("127.0.0.1:0", StatusHandler(func() *Progress { return pr }, nil))
	if err != nil {
		t.Fatal(err)
	}

	jobs := []Job{{
		Profile: trace.ParallelProfiles()[0], Model: config.SLFSoSKey370,
		InstPerCore: 2_000, Seed: 42, Hists: true,
	}}
	Pool{Workers: 1, Progress: pr}.Run(jobs)

	get := func(path string, want int, into any) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: %s, want %d", path, resp.Status, want)
		}
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
	}

	var snap Snapshot
	get("/status", http.StatusOK, &snap)
	if snap.TotalJobs != 1 || snap.Done != 1 || snap.Failed != 0 {
		t.Errorf("/status = %+v", snap)
	}
	if snap.Insts == 0 {
		t.Error("/status reports no retired instructions")
	}
	if len(snap.Jobs) != 1 || snap.Jobs[0].WallSeconds <= 0 || snap.Jobs[0].CyclesPerSecond <= 0 {
		t.Errorf("/status job_throughput = %+v, want a positive wall time and rate", snap.Jobs)
	}

	var hists map[string]hist.Summary
	get("/histograms", http.StatusOK, &hists)
	if hists["load-l1"].Count == 0 {
		t.Errorf("/histograms missing load-l1: %v", hists)
	}

	// /status and /histograms are the whole sweep surface: no expvars.
	get("/debug/vars", http.StatusNotFound, nil)

	get("/healthz", http.StatusOK, nil)
	get("/metrics", http.StatusOK, nil)
	get("/debug/pprof/cmdline", http.StatusOK, nil)
}
