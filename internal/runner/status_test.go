package runner

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"sesa/internal/config"
	"sesa/internal/telemetry"
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

	// Each finished job leaves one throughput row, in job order; the jobs
	// that completed report a simulation rate.
	if len(s.Jobs) != 3 {
		t.Fatalf("job_throughput has %d rows, want 3: %+v", len(s.Jobs), s.Jobs)
	}
	for i, row := range s.Jobs {
		if row.Index != i || row.WallSeconds <= 0 {
			t.Errorf("job_throughput[%d] = %+v, want index %d and a positive wall time", i, row, i)
		}
		if results[i].Err == nil && row.CyclesPerSecond <= 0 {
			t.Errorf("job_throughput[%d] = %+v, want a positive cycle rate", i, row)
		}
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
}

// TestMetricsScrapeCostFlat: a /metrics scrape reads a sweep's counters,
// not its per-job rows, so what one render allocates does not grow with
// the number of finished jobs.
func TestMetricsScrapeCostFlat(t *testing.T) {
	perRender := func(jobs int) uint64 {
		pr := NewProgress()
		pr.begin(jobs + 1)
		for i := 0; i < jobs; i++ {
			r := &Result{Index: i, Wall: time.Millisecond}
			if i%10 == 0 {
				r.Err = errors.New("failed")
			}
			pr.jobDone(r)
		}
		reg := telemetry.NewRegistry()
		RegisterSweepMetrics(reg, func() []LabeledProgress { return []LabeledProgress{{Progress: pr}} })
		const renders = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < renders; i++ {
			reg.Render()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / renders
	}
	small, large := perRender(100), perRender(10_000)
	t.Logf("one render allocates %d B at 100 finished jobs, %d B at 10,000", small, large)
	if large > 2*small {
		t.Errorf("one render allocates %d B at 10,000 finished jobs, more than twice the %d B at 100", large, small)
	}
}

// TestServeStatus serves a CLI's one tracker the way sesa.ServeStatus does.
// /metrics is scraped while a one-job sweep runs and then carries the
// sweep's unlabeled families; /status and /histograms answer 404.
func TestServeStatus(t *testing.T) {
	pr := NewProgress()
	reg := telemetry.NewRegistry()
	RegisterSweepMetrics(reg, func() []LabeledProgress { return []LabeledProgress{{Progress: pr}} })
	addr, err := ServeStatus("127.0.0.1:0", StatusHandler(reg))
	if err != nil {
		t.Fatal(err)
	}

	jobs := []Job{{
		Profile: trace.ParallelProfiles()[0], Model: config.SLFSoSKey370,
		InstPerCore: 2_000, Seed: 42,
	}}
	// Scrape while the sweep runs: the pool and the scrapes share pr.
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
			if err != nil {
				t.Error(err)
				return
			}
			// Drained, the connection is reused by the next scrape.
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(time.Millisecond)
		}
	}()
	Pool{Workers: 1, Progress: pr}.Run(jobs)
	close(stop)
	<-stopped

	get := func(path string, want int) string {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: %s, want %d", path, resp.Status, want)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	metrics := strings.Split(get("/metrics", http.StatusOK), "\n")
	for _, want := range []string{
		"sesa_sweep_jobs 1",
		"sesa_sweep_jobs_done 1",
		"sesa_sweep_jobs_failed 0",
	} {
		if !slices.Contains(metrics, want) {
			t.Errorf("/metrics lacks the line %q:\n%s", want, strings.Join(metrics, "\n"))
		}
	}
	for _, family := range []string{"sesa_sweep_jobs_per_second ", "sesa_sweep_cycles_per_second "} {
		if !slices.ContainsFunc(metrics, func(l string) bool { return strings.HasPrefix(l, family) }) {
			t.Errorf("/metrics lacks an unlabeled %s sample", strings.TrimSpace(family))
		}
	}

	// /metrics is the whole sweep surface: no JSON views, no expvars.
	get("/status", http.StatusNotFound)
	get("/histograms", http.StatusNotFound)
	get("/debug/vars", http.StatusNotFound)

	get("/healthz", http.StatusOK)
	get("/debug/pprof/cmdline", http.StatusOK)
}
