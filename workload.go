package sesa

import (
	"io"

	"sesa/internal/isa"
	"sesa/internal/stats"
	"sesa/internal/trace"
	"sesa/internal/tracefile"
)

// Profile describes one synthetic benchmark (Table IV calibration).
type Profile = trace.Profile

// Workload is a set of per-core programs generated from a profile.
type Workload = trace.Workload

// Suite distinguishes the parallel (SPLASH-3/PARSEC) and sequential
// (SPECrate 2017) halves of Table IV.
type Suite = trace.Suite

// The two benchmark suites.
const (
	ParallelSuite   = trace.Parallel
	SequentialSuite = trace.Sequential
)

// ParallelProfiles returns the 25 SPLASH-3/PARSEC profiles of Table IV.
func ParallelProfiles() []Profile { return trace.ParallelProfiles() }

// SequentialProfiles returns the 36 SPECrate 2017 profiles of Table IV.
func SequentialProfiles() []Profile { return trace.SequentialProfiles() }

// LookupProfile finds a profile by benchmark name.
func LookupProfile(name string) (Profile, bool) { return trace.Lookup(name) }

// BuildWorkload generates the deterministic per-core traces for a profile.
// It returns an error when instPerCore is outside the generator's range, 1
// to 2^20 instructions per core.
func BuildWorkload(p Profile, cores, instPerCore int, seed uint64) (Workload, error) {
	if err := trace.CheckInstPerCore(instPerCore); err != nil {
		return Workload{}, err
	}
	return trace.Build(p, cores, instPerCore, seed), nil
}

// RunWorkload runs the workload to completion under the model on a machine
// configured by cfg, as a one-job sweep, and returns the statistics (partial
// beside a timeout). Cores without a program idle. A maxCycles of 0 applies
// the default bound, as SweepJob.MaxCycles does.
func RunWorkload(model Model, cfg Config, w Workload, maxCycles uint64) (*Stats, error) {
	res, _ := RunSweep([]SweepJob{{Workload: &w, Model: model, Config: &cfg,
		StepMode: cfg.StepMode, MaxCycles: maxCycles}}, 1)
	return res[0].Stats, res[0].Err
}

// GeoMean returns the geometric mean of positive values, the aggregation
// Figure 10 uses for normalized execution times.
func GeoMean(xs []float64) float64 { return stats.GeoMean(xs) }

// Mean returns the arithmetic mean, the aggregation Table IV uses.
func Mean(xs []float64) float64 { return stats.Mean(xs) }

// WritePrograms serializes per-thread programs to the sesa trace text
// format, so generated workloads can be archived, inspected and replayed.
func WritePrograms(w io.Writer, threads []Program) error {
	ps := make([]isa.Program, len(threads))
	copy(ps, threads)
	return tracefile.Write(w, ps)
}

// ReadPrograms parses a trace file written by WritePrograms.
func ReadPrograms(r io.Reader) ([]Program, error) {
	ps, err := tracefile.Read(r)
	if err != nil {
		return nil, err
	}
	out := make([]Program, len(ps))
	copy(out, ps)
	return out, nil
}

// RunBenchmark runs BenchmarkJob, the named Table IV benchmark under the
// model on the paper's 8-core machine (sequential benchmarks use core 0)
// within the default cycle bound, and returns the Table IV characterization
// row and the raw statistics (partial beside a timeout). The trace comes
// from the process-wide cache, so running the same benchmark under several
// models generates it only once.
func RunBenchmark(name string, model Model, instPerCore int, seed uint64) (Characterization, *Stats, error) {
	j, err := BenchmarkJob(name, model, instPerCore, seed)
	if err != nil {
		return Characterization{}, nil, err
	}
	res, _ := RunSweep([]SweepJob{j}, 1)
	return res[0].Char, res[0].Stats, res[0].Err
}
