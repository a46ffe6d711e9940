package runner

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sesa/internal/config"
	"sesa/internal/obs"
	"sesa/internal/report"
	"sesa/internal/trace"
)

// stepJobs builds the step-mode equivalence sweep: a memory-latency-bound
// sequential profile (long skippable quiescent ranges) and an 8-core parallel
// profile (frequent cross-core events), two models each, with tracing and
// histograms attached.
func stepJobs(t *testing.T, mode config.StepMode) []Job {
	t.Helper()
	opts := &obs.Options{BufCap: obs.DefaultBufCap, MetricsInterval: 500, Hists: true}
	var jobs []Job
	for _, name := range []string{"505.mcf", "x264"} {
		p, ok := trace.Lookup(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		for _, m := range []config.Model{config.X86, config.SLFSoSKey370} {
			jobs = append(jobs, Job{
				Profile:     p,
				Model:       m,
				InstPerCore: 2_000,
				Seed:        42,
				Trace:       opts,
				StepMode:    mode,
			})
		}
	}
	return jobs
}

// table4Jobs builds the Table IV smoke sweep (sesa-bench -table 4 -n 2000
// -seed 42): every profile of both suites on 370-SLFSoS-key.
func table4Jobs(mode config.StepMode) []Job {
	var jobs []Job
	for _, p := range append(trace.ParallelProfiles(), trace.SequentialProfiles()...) {
		jobs = append(jobs, Job{Profile: p, Model: config.SLFSoSKey370, InstPerCore: 2_000, Seed: 42,
			StepMode: mode})
	}
	return jobs
}

// renderTable4 renders Table IV smoke results the way sesa-bench prints
// them: one text table per suite, parallel first.
func renderTable4(t *testing.T, results []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, s := range []trace.Suite{trace.Parallel, trace.Sequential} {
		table := report.CharacterizationTable{Title: fmt.Sprintf(
			"Table IV (%s): characterization under 370-SLFSoS-key, 2000 instructions/core, seed 42", s)}
		for _, res := range results {
			if res.Job.Profile.Suite == s {
				table.Rows = append(table.Rows, res.Char)
			}
		}
		if err := table.Write(&buf, report.Text); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// checkSameResults fails t unless every job succeeded under both steppers
// with identical statistics and characterization.
func checkSameResults(t *testing.T, naive, skip []Result) {
	t.Helper()
	for i := range naive {
		if naive[i].Err != nil || skip[i].Err != nil {
			t.Fatalf("job %d failed: naive=%v skip=%v", i, naive[i].Err, skip[i].Err)
		}
		if !reflect.DeepEqual(naive[i].Stats, skip[i].Stats) {
			t.Errorf("job %d statistics differ:\nnaive: %+v\nskip:  %+v",
				i, naive[i].Stats, skip[i].Stats)
		}
		if naive[i].Char != skip[i].Char {
			t.Errorf("job %d characterization differs:\nnaive: %+v\nskip:  %+v",
				i, naive[i].Char, skip[i].Char)
		}
	}
}

// TestStepModesIdenticalSweep is the two-level clock's acceptance criterion
// at the sweep level: a traced, histogrammed sweep produces identical
// statistics, characterizations, trace files, metrics series and histogram
// reports under naive and skip stepping. The Table IV smoke sweep must match
// too, and both steppers' tables must render to the golden CI diffs
// sesa-bench -table 4 -n 2000 -seed 42 against.
func TestStepModesIdenticalSweep(t *testing.T) {
	cache := trace.NewCache()
	naive, _ := Pool{Workers: 1, Cache: cache}.Run(stepJobs(t, config.StepNaive))
	skip, _ := Pool{Workers: 1, Cache: cache}.Run(stepJobs(t, config.StepSkip))
	checkSameResults(t, naive, skip)

	cn, kn := exportAll(t, naive)
	cs, ks := exportAll(t, skip)
	if !bytes.Equal(cn, cs) {
		t.Error("chrome trace differs between naive and skip stepping")
	}
	if !bytes.Equal(kn, ks) {
		t.Error("kanata trace differs between naive and skip stepping")
	}

	for i := range naive {
		mn, ms := naive[i].Trace.Metrics(), skip[i].Trace.Metrics()
		if len(mn.Samples) != len(ms.Samples) {
			t.Fatalf("job %d: %d vs %d metric samples", i, len(mn.Samples), len(ms.Samples))
		}
		for j := range mn.Samples {
			if mn.Samples[j] != ms.Samples[j] {
				t.Errorf("job %d sample %d differs: %+v vs %+v", i, j, mn.Samples[j], ms.Samples[j])
			}
		}
	}

	hn, hs := renderHists(t, naive), renderHists(t, skip)
	if !bytes.Equal(hn, hs) {
		t.Errorf("histogram report differs between step modes:\n--- naive ---\n%s\n--- skip ---\n%s", hn, hs)
	}

	table4Naive, _ := Pool{Cache: cache}.Run(table4Jobs(config.StepNaive))
	table4Skip, _ := Pool{Cache: cache}.Run(table4Jobs(config.StepSkip))
	if len(table4Skip) != 61 {
		t.Fatalf("Table IV smoke has %d jobs, want 61", len(table4Skip))
	}
	checkSameResults(t, table4Naive, table4Skip)
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "bench_table4_n2000_seed42.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for mode, results := range map[string][]Result{"naive": table4Naive, "skip": table4Skip} {
		if got := renderTable4(t, results); !bytes.Equal(got, want) {
			t.Errorf("%s Table IV differs from testdata/bench_table4_n2000_seed42.golden:\n%s", mode, got)
		}
	}
}
