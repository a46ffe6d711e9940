package runner

import (
	"bytes"
	"testing"

	"sesa/internal/config"
	"sesa/internal/hist"
	"sesa/internal/obs"
	"sesa/internal/report"
	"sesa/internal/trace"
)

func histJobs(t *testing.T, n int) []Job {
	t.Helper()
	profiles := trace.ParallelProfiles()
	if len(profiles) < n {
		t.Fatalf("need %d profiles, have %d", n, len(profiles))
	}
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Profile:     profiles[i],
			Model:       config.SLFSoSKey370,
			InstPerCore: 2_000,
			Seed:        42,
			Trace:       &obs.Options{Hists: true},
		}
	}
	return jobs
}

// renderHists exports the per-job histogram runs exactly as the CLIs do.
func renderHists(t *testing.T, results []Result) []byte {
	t.Helper()
	var rep report.HistReport
	for _, r := range results {
		hs := r.Trace.Hists()
		if hs == nil {
			t.Fatalf("job %d: no histograms", r.Index)
		}
		rep.Runs = append(rep.Runs, report.NewHistRun(r.Job.Name(), hs))
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHistsIdenticalAcrossWorkers is the determinism contract for -hist-out:
// every job records into a private set and results are positional, so the
// rendered report is byte-identical no matter how many workers ran. Under
// -race this also exercises concurrent recording across the pool.
func TestHistsIdenticalAcrossWorkers(t *testing.T) {
	cache := trace.NewCache()
	serial, _ := Pool{Workers: 1, Cache: cache}.Run(histJobs(t, 4))
	parallel, _ := Pool{Workers: 8, Cache: cache}.Run(histJobs(t, 4))

	got, want := renderHists(t, parallel), renderHists(t, serial)
	if !bytes.Equal(got, want) {
		t.Errorf("histogram report differs between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
}

// TestHistsOffByDefault: a job whose tracer options leave Hists unset must
// not allocate a set.
func TestHistsOffByDefault(t *testing.T) {
	jobs := histJobs(t, 1)
	jobs[0].Trace = &obs.Options{MetricsInterval: 500}
	results, _ := Pool{Workers: 1}.Run(jobs)
	if results[0].Trace.Hists() != nil {
		t.Error("histograms collected for a job that did not ask for them")
	}
}

// TestHistMergeAcrossJobs: merging per-job sets must equal a collector fed
// both jobs' merged views — the runner-level face of the merge property.
func TestHistMergeAcrossJobs(t *testing.T) {
	results, _ := Pool{Workers: 2}.Run(histJobs(t, 2))
	all := hist.NewCollector()
	var want uint64
	for _, r := range results {
		m := r.Trace.Hists().Merged()
		want += m.H(hist.GateClosed).Count()
		all.Merge(m)
	}
	if got := all.H(hist.GateClosed).Count(); got != want {
		t.Errorf("merged gate-closed count %d, want %d", got, want)
	}
	if want == 0 {
		t.Error("no gate-closed episodes recorded across jobs; workload too small?")
	}
}
