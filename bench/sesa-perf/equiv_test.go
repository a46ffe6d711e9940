package main

import (
	"reflect"
	"testing"

	"sesa/internal/config"
	"sesa/internal/fuzz"
	"sesa/internal/runner"
	"sesa/internal/trace"
)

// TestReplicaMatchesPool pins the traced replica to the program it
// times: for a sample of every sweep workload's jobs, at a small size and in
// both step modes, the replica's statistics equal runner.Pool's exactly.
func TestReplicaMatchesPool(t *testing.T) {
	const n, seed = 500, 42
	for _, w := range workloads {
		if w.isFuzz() {
			continue
		}
		for _, mode := range []config.StepMode{config.StepSkip, config.StepNaive} {
			small := *w
			small.n, small.mode = n, mode
			var jobs []runner.Job
			for i, j := range small.jobs(seed) {
				if i%5 == 0 { // every machine model, across the profiles
					jobs = append(jobs, j)
				}
			}
			cache := trace.NewCache()
			results, _ := runner.Pool{Workers: 1, Cache: cache}.Run(jobs)
			for i, j := range jobs {
				if results[i].Err != nil {
					t.Fatalf("%s %s: pool: %v", w.name, j.Name(), results[i].Err)
				}
				var tl tally
				st, err := tracedJob(j, cache, &tl)
				if err != nil {
					t.Fatalf("%s %s: replica: %v", w.name, j.Name(), err)
				}
				if !reflect.DeepEqual(st, results[i].Stats) {
					t.Errorf("%s %s %s: replica statistics differ from runner.Pool's", w.name, mode, j.Name())
				}
				if tl.n[cRetired] != st.Total().RetiredInsts || tl.n[cMachines] != 1 {
					t.Errorf("%s %s: tally counted %d retired on %d machines", w.name, j.Name(), tl.n[cRetired], tl.n[cMachines])
				}
			}
		}
	}
}

// TestTracedFuzzMatchesCrossValidate pins the fuzz legs: re-run through the
// replica, three programs reproduce fuzz.CrossValidate's reports exactly, in
// both step modes.
func TestTracedFuzzMatchesCrossValidate(t *testing.T) {
	for _, mode := range []config.StepMode{config.StepSkip, config.StepNaive} {
		opt := fuzzOptions(1)
		opt.StepMode = mode
		for seed := uint64(fuzzProgramBase); seed < fuzzProgramBase+3; seed++ {
			want, err := fuzz.CrossValidate(fuzz.Generate(seed, fuzz.DefaultBudget()), opt)
			if err != nil {
				t.Fatal(err)
			}
			var tl tally
			got, err := tracedProgram(seed, opt, &tl)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("program %d (%s): traced report %+v, CrossValidate %+v", seed, mode, got, want)
			}
			if tl.n[cCheckerCalls] != 5 || tl.n[cAxiomaticCalls] != 3 || tl.n[cLitmusRuns] == 0 {
				t.Errorf("program %d: tally %v", seed, tl.n)
			}
		}
	}
}
