package runner

import (
	"reflect"
	"testing"

	"sesa/internal/config"
	"sesa/internal/trace"
)

// sweepJobs builds a small but representative grid: two parallel profiles
// and one sequential profile under all five models.
func sweepJobs(t testing.TB, insts int) []Job {
	t.Helper()
	var jobs []Job
	for _, name := range []string{"barnes", "x264", "505.mcf"} {
		p, ok := trace.Lookup(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		for _, m := range config.AllModels() {
			jobs = append(jobs, Job{Profile: p, Model: m, InstPerCore: insts, Seed: 42})
		}
	}
	return jobs
}

// TestDeterministicAcrossWorkers is the tentpole's central property: the
// same sweep run serially and with 4 workers must produce deep-equal
// statistics in the same order.
func TestDeterministicAcrossWorkers(t *testing.T) {
	jobs := sweepJobs(t, 1500)
	serial, _ := Pool{Workers: 1, Cache: trace.NewCache()}.Run(jobs)
	parallel, _ := Pool{Workers: 4, Cache: trace.NewCache()}.Run(jobs)
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if (s.Err == nil) != (p.Err == nil) {
			t.Fatalf("job %d: error mismatch: %v vs %v", i, s.Err, p.Err)
		}
		if !reflect.DeepEqual(s.Stats, p.Stats) {
			t.Errorf("job %d (%s on %s): stats differ between 1 and 4 workers",
				i, s.Job.Profile.Name, s.Job.Model)
		}
		if s.Char != p.Char {
			t.Errorf("job %d (%s on %s): characterization differs:\n  serial   %+v\n  parallel %+v",
				i, s.Job.Profile.Name, s.Job.Model, s.Char, p.Char)
		}
	}
}

// TestCachedEqualsUncached: replaying the shared cached trace must be
// indistinguishable from regenerating it per job.
func TestCachedEqualsUncached(t *testing.T) {
	jobs := sweepJobs(t, 1000)
	cached, _ := Pool{Workers: 2, Cache: trace.NewCache()}.Run(jobs)
	uncached, _ := Pool{Workers: 2, Cache: nil}.Run(jobs)
	for i := range cached {
		if !reflect.DeepEqual(cached[i].Stats, uncached[i].Stats) {
			t.Errorf("job %d (%s on %s): cached trace changed the simulation",
				i, cached[i].Job.Profile.Name, cached[i].Job.Model)
		}
	}
}

// TestResultOrderAndSummary: results are positional, and the summary
// aggregates all jobs.
func TestResultOrderAndSummary(t *testing.T) {
	jobs := sweepJobs(t, 800)
	results, sum := Pool{Workers: 3, Cache: trace.NewCache()}.Run(jobs)
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d carries index %d", i, r.Index)
		}
		if r.Job.Profile.Name != jobs[i].Profile.Name || r.Job.Model != jobs[i].Model {
			t.Errorf("result %d does not match job %d", i, i)
		}
	}
	if sum.Jobs != len(jobs) || sum.Failed != 0 {
		t.Errorf("summary: got %d jobs %d failed, want %d and 0", sum.Jobs, sum.Failed, len(jobs))
	}
	if sum.SimCycles == 0 || sum.SimInsts == 0 {
		t.Errorf("summary: zero simulated work: %+v", sum)
	}
	if sum.Workers != 3 {
		t.Errorf("summary: workers = %d, want 3", sum.Workers)
	}
}

// TestFailureDoesNotAbortSweep: a job with an impossible cycle bound must
// come back as a failure row — with the cycle count at which it was cut —
// while the rest of the sweep completes.
func TestFailureDoesNotAbortSweep(t *testing.T) {
	p, _ := trace.Lookup("barnes")
	jobs := []Job{
		{Profile: p, Model: config.X86, InstPerCore: 1000, Seed: 42},
		{Profile: p, Model: config.SLFSoSKey370, InstPerCore: 1000, Seed: 42, MaxCycles: 50},
		{Profile: p, Model: config.NoSpec370, InstPerCore: 1000, Seed: 42},
	}
	results, sum := Pool{Workers: 2, Cache: trace.NewCache()}.Run(jobs)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy jobs failed: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("job with MaxCycles=50 did not time out")
	}
	if results[1].Stats == nil || results[1].Stats.Cycles == 0 {
		t.Fatal("timed-out job reports no cycle count (failure row would show 0)")
	}
	if sum.Failed != 1 {
		t.Errorf("summary.Failed = %d, want 1", sum.Failed)
	}
}

// TestDefaultMaxCycles covers the zero-value bound derivation.
func TestDefaultMaxCycles(t *testing.T) {
	if got := (Job{InstPerCore: 1000}).DefaultMaxCycles(); got != 1000*200+2_000_000 {
		t.Errorf("DefaultMaxCycles = %d", got)
	}
	if got := (Job{InstPerCore: 1000, MaxCycles: 7}).DefaultMaxCycles(); got != 7 {
		t.Errorf("explicit MaxCycles not honoured: %d", got)
	}
}

// TestConfigOverride: a custom configuration reaches the machine, and the
// job's model always wins over the override's.
func TestConfigOverride(t *testing.T) {
	p, _ := trace.Lookup("swaptions")
	cfg := config.Small(2, config.X86)
	jobs := []Job{{Profile: p, Model: config.SLFSoSKey370, InstPerCore: 500, Seed: 7, Config: &cfg}}
	results, _ := Pool{Workers: 1}.Run(jobs)
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if got := results[0].Stats.Model; got != config.SLFSoSKey370.String() {
		t.Errorf("stats model = %q, want %q (job model must override config)", got, config.SLFSoSKey370)
	}
	if got := len(results[0].Stats.Cores); got != 2 {
		t.Errorf("machine ran %d cores, want the override's 2", got)
	}
}

// TestInstPerCoreOutOfRangeFails: a library sweep whose job asks for an
// instruction count no trace can have gets a failed Result for that job,
// not a panic in the pool, and the rest of the sweep runs.
func TestInstPerCoreOutOfRangeFails(t *testing.T) {
	p, _ := trace.Lookup("radix")
	jobs := []Job{
		{Profile: p, Model: config.X86, InstPerCore: -1, Seed: 1},
		{Profile: p, Model: config.X86, InstPerCore: 0, Seed: 1},
		{Profile: p, Model: config.X86, InstPerCore: 500, Seed: 1},
	}
	results, sum := Pool{Workers: 1}.Run(jobs)
	for _, r := range results[:2] {
		if r.Err == nil {
			t.Errorf("job with InstPerCore %d succeeded, want a failed Result", r.Job.InstPerCore)
		}
	}
	if results[2].Err != nil {
		t.Errorf("valid job failed: %v", results[2].Err)
	}
	if sum.Failed != 2 {
		t.Errorf("summary counts %d failed jobs, want 2", sum.Failed)
	}
}
