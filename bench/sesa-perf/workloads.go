package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"sesa/internal/config"
	"sesa/internal/fuzz"
	"sesa/internal/runner"
	"sesa/internal/stats"
	"sesa/internal/trace"
)

// workload is one named input set. Sweeps are (profile × machine) grids run
// through runner.Pool over a shared trace.Cache; the fuzz workload
// cross-validates generated litmus programs as fuzz.RunMany does. One pass
// runs every job of the workload once, in a fixed order.
type workload struct {
	name string
	// profiles lists the trace profiles of a sweep; nil for fuzz.
	profiles func() []trace.Profile
	// n is the instructions per core of a sweep.
	n    int
	mode config.StepMode
	// programs is the number of fuzz programs per pass; 0 for sweeps.
	programs int
	// seeds are the default seed and the held-out seed, both pinned in
	// the digest file. A sweep's seed seeds its trace generator; the fuzz
	// workload's seeds the witness search's timing exploration.
	seeds [2]uint64
}

// fuzzProgramBase is the generator seed of the fuzz workload's first
// program: the fuzz workload cross-validates the first programs of the
// repository's CI fuzz run. The programs stay fixed and -seed varies the
// witness search instead, because program cost is heavy-tailed — a median
// of 85 ms but a few take seconds — so programs drawn per seed would make
// one seed's pass take up to a third longer than another's.
const fuzzProgramBase = 1

// The workload sizes keep one pass between 1 and 4 CPU seconds on a quiet
// 2-vCPU host, so the default 25 s measured phase holds at least three
// passes even when contention stretches them, and all benchmark runs fit
// their time budget; the README explains each choice.
var workloads = []*workload{
	{name: "sweep-par", profiles: trace.ParallelProfiles, n: 2500, mode: config.StepSkip, seeds: [2]uint64{42, 7}},
	{name: "sweep-seq-naive", profiles: trace.SequentialProfiles, n: 8000, mode: config.StepNaive, seeds: [2]uint64{42, 7}},
	{name: "mcf-skip", profiles: mcfProfile, n: 100_000, mode: config.StepSkip, seeds: [2]uint64{42, 7}},
	{name: "fuzz", programs: 30, seeds: [2]uint64{1, 1001}},
}

func mcfProfile() []trace.Profile {
	p, ok := trace.Lookup("505.mcf")
	if !ok {
		panic("505.mcf profile missing from the trace package")
	}
	return []trace.Profile{p}
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func (w *workload) isFuzz() bool { return w.programs > 0 }

// params names the workload's size, so pinned digests recorded at another
// size are detected as stale instead of reported as mismatches.
func (w *workload) params() string {
	if w.isFuzz() {
		opt := fuzz.DefaultOptions()
		return fmt.Sprintf("programs=%d from generator seed %d, budget=%s models=%d iters=%d pressure=%d small=%t",
			w.programs, fuzzProgramBase, fuzz.DefaultBudget(), len(opt.Models), opt.SimIters, opt.Pressure, opt.SmallConfig)
	}
	return fmt.Sprintf("n=%d mode=%s profiles=%d models=%d", w.n, w.mode, len(w.profiles()), len(config.AllModels()))
}

// fuzzOptions are the CI witness options with the seed driving the
// witness search.
func fuzzOptions(seed uint64) fuzz.Options {
	opt := fuzz.DefaultOptions()
	opt.SimSeed = seed
	return opt
}

// jobs returns the sweep's job grid in profile-major order, as sesa-bench
// builds it.
func (w *workload) jobs(seed uint64) []runner.Job {
	var js []runner.Job
	for _, p := range w.profiles() {
		for _, m := range config.AllModels() {
			js = append(js, runner.Job{Profile: p, Model: m, InstPerCore: w.n, Seed: seed, StepMode: w.mode})
		}
	}
	return js
}

// inputs is one set-up's generated inputs: every trace of a sweep, cached
// for the pool.
type inputs struct {
	cache *trace.Cache
	// traceInsts maps a profile to its workload's total instruction count,
	// the retired-instruction count every job of that profile must reach.
	traceInsts map[string]uint64
	insts      uint64
}

// setup generates the workload's inputs: every trace of a sweep, or every
// program of the fuzz workload. The fuzzer's entry points take seeds, not
// programs, so each program is generated again inside the measured phase;
// the fuzz set-up time is what that generation costs. Machine construction is not set-up:
// users pay it on every job, so it stays in the measured phase.
func (w *workload) setup(seed uint64) *inputs {
	in := &inputs{}
	if w.isFuzz() {
		b := fuzz.DefaultBudget()
		for i := 0; i < w.programs; i++ {
			for _, th := range fuzz.Generate(fuzzProgramBase+uint64(i), b).Threads {
				in.insts += uint64(len(th))
			}
		}
		return in
	}
	in.cache = trace.NewCache()
	in.traceInsts = make(map[string]uint64)
	cores := config.Default(config.X86).Cores
	for _, p := range w.profiles() {
		wl := in.cache.Workload(p, cores, w.n, seed)
		var n uint64
		for _, prog := range wl.Programs {
			n += uint64(len(prog))
		}
		in.traceInsts[p.Name] = n
		in.insts += n
	}
	return in
}

// opResult is one job's (or fuzz program's) outcome. cpu, the job's CPU
// time on the benchmark's thread, and memMiB, the memory the process holds
// once the job ends, are measured on untraced passes only.
type opResult struct {
	name   string
	wall   time.Duration
	cpu    time.Duration
	memMiB float64
	digest string
	err    error
}

// pass is one complete run over the workload's jobs. refs are the hostRef
// readings taken during an untraced pass.
type pass struct {
	wall time.Duration
	refs []time.Duration
	ops  []opResult
}

// sweepPass runs every job once through the public runner.Pool, one worker,
// every trace served from the set-up's cache. A one-worker pool runs each
// job inline on the calling goroutine, so on the benchmark's locked thread.
// The pool's OnJobSpan hook, called as each job ends, gives the job's wall
// time (runner.Result.Wall is never set) and marks where its CPU time ends
// and the next job's begins; a reference reading it takes is marked off.
func sweepPass(jobs []runner.Job, in *inputs, refs *refSampler) pass {
	walls := make([]time.Duration, len(jobs))
	cpus := make([]time.Duration, len(jobs))
	mems := make([]float64, len(jobs))
	mark := threadCPU()
	pool := runner.Pool{Workers: 1, Cache: in.cache,
		OnJobSpan: func(i int, _ string, start, end time.Time) {
			now := threadCPU()
			walls[i], cpus[i], mark = end.Sub(start), now-mark, now
			mems[i] = heldMiB()
			if refs.due() {
				mark = threadCPU()
			}
		}}
	start := time.Now()
	results, _ := pool.Run(jobs)
	p := pass{wall: time.Since(start), ops: make([]opResult, len(results))}
	for i := range results {
		r := &results[i]
		p.ops[i] = sweepOutcome(r.Job, r.Stats, r.Err, walls[i], in)
		p.ops[i].cpu, p.ops[i].memMiB = cpus[i], mems[i]
	}
	return p
}

// sweepOutcome checks one sweep job: it must finish without error and
// retire exactly its trace.
func sweepOutcome(j runner.Job, st *stats.Machine, err error, wall time.Duration, in *inputs) opResult {
	o := opResult{name: j.Name(), wall: wall, err: err}
	if st == nil {
		if o.err == nil {
			o.err = fmt.Errorf("no statistics")
		}
		return o
	}
	o.digest = statsDigest(st)
	if want, got := in.traceInsts[j.Profile.Name], st.Total().RetiredInsts; o.err == nil && got != want {
		o.err = fmt.Errorf("retired %d instructions, trace has %d", got, want)
	}
	return o
}

// fuzzPass cross-validates every program once. It makes the two public
// calls fuzz.RunMany's worker makes per program, fuzz.Generate then
// fuzz.CrossValidate, on the benchmark's own thread rather than a worker
// goroutine, so each program's CPU time is measured where it is spent.
func fuzzPass(w *workload, seed uint64, refs *refSampler) pass {
	var p pass
	b, opt := fuzz.DefaultBudget(), fuzzOptions(seed)
	start := time.Now()
	for i := 0; i < w.programs; i++ {
		refs.due()
		progSeed := fuzzProgramBase + uint64(i)
		t0, c0 := time.Now(), threadCPU()
		rep, err := fuzz.CrossValidate(fuzz.Generate(progSeed, b), opt)
		cpu, wall := threadCPU()-c0, time.Since(t0)
		o := fuzzOutcome(progSeed, rep, err, wall)
		o.cpu, o.memMiB = cpu, heldMiB()
		p.ops = append(p.ops, o)
	}
	p.wall = time.Since(start)
	return p
}

// fuzzOutcome checks one program: the three engines must agree.
func fuzzOutcome(seed uint64, rep *fuzz.Report, err error, wall time.Duration) opResult {
	o := opResult{name: fmt.Sprintf("prog%d", seed), wall: wall, err: err}
	if rep == nil {
		if o.err == nil {
			o.err = fmt.Errorf("no report")
		}
		return o
	}
	o.digest = reportDigest(rep)
	if o.err == nil && !rep.Ok() {
		o.err = fmt.Errorf("%d cross-validation mismatches, first: %s", len(rep.Mismatches), rep.Mismatches[0])
	}
	return o
}

// statsDigest hashes a machine's complete deterministic statistics.
func statsDigest(st *stats.Machine) string {
	b, err := json.Marshal(st)
	if err != nil {
		panic(err) // stats.Machine is plain data; Marshal cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// reportDigest hashes the deterministic part of a cross-validation report.
func reportDigest(r *fuzz.Report) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v %d %t\n", r.OpCount, r.Witnessed, r.Interesting)
	for _, m := range r.Mismatches {
		fmt.Fprintln(h, m)
	}
	return hex.EncodeToString(h.Sum(nil))
}
