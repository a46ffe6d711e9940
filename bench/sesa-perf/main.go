// Command sesa-perf is the repository's performance benchmark. It runs one
// named workload per process, in process, through the entry points users
// hit: runner.Pool over a shared trace.Cache for the Figure 10 sweeps, and
// for the fuzzer fuzz.Generate and fuzz.CrossValidate, the calls
// fuzz.RunMany makes per program. It times set-up apart from the measured
// phase, checks every job's deterministic result, and prints every metric
// by name with its unit. The last line of standard output is a JSON verdict.
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it
// re-executes the workload through a replica of the machine's run loop that
// times each layer from outside (replica.go), profiles the untraced passes, runs per-layer
// microbenchmarks, and reports the per-layer metrics instead.
//
// Run it from the repository root:
//
//	bash bench/run.sh -workload sweep-par -seed 42 -seconds 25 -trace 0
//
// bench/README.md documents the workloads, the metrics and the A/B recipe.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sesa/internal/runner"
)

func main() { os.Exit(run(os.Stdout)) }

func run(out io.Writer) int {
	name := flag.String("workload", "", "workload to run: sweep-par, sweep-seq-naive, mcf-skip or fuzz")
	seedFlag := flag.Int64("seed", -1, "input seed (default: the workload's pinned default seed)")
	seconds := flag.Int("seconds", 25, "length of the measured phase, in seconds")
	traceMode := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced per-layer measurement")
	spansPath := flag.String("spans", "", "with -trace 1, write the traced passes' spans to this JSON file")
	update := flag.Bool("update", false, "regenerate "+digestsPath+" at every workload's pinned seeds and exit")
	flag.Parse()

	// Every measured job runs on this goroutine; pinning it to one thread
	// makes that thread's CPU clock the jobs' CPU time (see threadCPU).
	runtime.LockOSThread()
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if *update {
		if err := updateDigests(out); err != nil {
			fmt.Fprintln(os.Stderr, "sesa-perf:", err)
			return 1
		}
		return 0
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) || flag.NArg() > 0 {
		if err != nil {
			fmt.Fprintln(os.Stderr, "sesa-perf:", err)
		}
		flag.Usage()
		return 2
	}
	seed := w.seeds[0]
	if *seedFlag >= 0 {
		seed = uint64(*seedFlag)
	}
	digests, err := loadDigests(digestsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sesa-perf:", err)
		return 1
	}
	pinned, err := digests.lookup(w, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sesa-perf:", err)
		return 1
	}

	fmt.Fprintf(out, "sesa-perf: workload=%s seed=%d seconds=%d trace=%d (%s)\n", w.name, seed, *seconds, *traceMode, w.params())
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	setup, in := newSetupTimer(w, seed)
	b := newBench(w, seed, in, out)
	b.v = newVerifier(pinned)
	budget := time.Duration(*seconds) * time.Second
	if *traceMode == 1 {
		return b.runTraced(budget, median(setup.secs), *spansPath)
	}
	return b.runEndToEnd(budget, setup)
}

// bench is one invocation's workload, inputs and result checker.
type bench struct {
	w    *workload
	seed uint64
	in   *inputs
	jobs []runner.Job
	v    *verifier
	out  io.Writer
}

func newBench(w *workload, seed uint64, in *inputs, out io.Writer) *bench {
	b := &bench{w: w, seed: seed, in: in, out: out}
	if !w.isFuzz() {
		b.jobs = w.jobs(seed)
	}
	return b
}

// untracedPass runs the workload once through the public entry points,
// reading the host-speed reference before the pass and between jobs. The
// pass's wall time leaves the readings out.
func (b *bench) untracedPass() pass {
	refs := &refSampler{}
	refs.read()
	var p pass
	if b.w.isFuzz() {
		p = fuzzPass(b.w, b.seed, refs)
	} else {
		p = sweepPass(b.jobs, b.in, refs)
	}
	p.refs = refs.reads
	p.wall -= refs.wall
	return p
}

// refEvery is how much of the measuring thread's CPU time may pass between
// two readings of the host-speed reference within a pass.
const refEvery = time.Second

// refSampler reads hostRef at a pass's start and then, between jobs, once
// refEvery of CPU time has passed since the last reading. A 25-second run
// reads it 12 to 28 times, so the run's median reading does not hinge on the
// few moments before each pass.
type refSampler struct {
	last  time.Duration
	reads []time.Duration
	// wall is the wall time of the readings taken within the pass, which
	// the pass's own wall time leaves out.
	wall time.Duration
}

func (s *refSampler) read() {
	s.reads = append(s.reads, hostRef())
	s.last = threadCPU()
}

// due reads the reference if one is due, and reports whether it did.
func (s *refSampler) due() bool {
	if threadCPU()-s.last < refEvery {
		return false
	}
	start := time.Now()
	s.read()
	s.wall += time.Since(start)
	return true
}

// setupTimer times the workload's set-up in samples spread over the run: a
// few before the first pass and more after each pass. Contention comes in
// bursts of about a second, so samples taken in one stretch all share the
// burst they fall into, and their median with it. A set-up shorter than
// setupSample is repeated back to back within a sample, and the sample's
// time divided among the repeats.
type setupTimer struct {
	w       *workload
	seed    uint64
	repeats int
	secs    []float64
}

const (
	setupSample  = 5 * time.Millisecond
	setupInitial = 5
	setupBetween = 100 * time.Millisecond
)

// newSetupTimer sets up twice, untimed, the second time to size the
// samples; takes the initial samples; and returns the inputs the run
// measures with.
func newSetupTimer(w *workload, seed uint64) (*setupTimer, *inputs) {
	in := w.setup(seed)
	start := threadCPU()
	w.setup(seed)
	t := &setupTimer{w: w, seed: seed, repeats: max(1, int(setupSample/max(threadCPU()-start, 1)))}
	for i := 0; i < setupInitial; i++ {
		t.sample()
	}
	runtime.GC()
	return t, in
}

// sample times one sample, from a collected heap on a thread kept busy
// beforehand so that it does not start on a core waking from idle. The
// set-ups' outputs are dropped.
func (t *setupTimer) sample() time.Duration {
	runtime.GC()
	busy(time.Millisecond)
	start := threadCPU()
	for i := 0; i < t.repeats; i++ {
		t.w.setup(t.seed)
	}
	d := threadCPU() - start
	t.secs = append(t.secs, d.Seconds()/float64(t.repeats))
	return d
}

// between samples for about setupBetween of CPU time, between two passes.
func (t *setupTimer) between() {
	for spent := time.Duration(0); spent < setupBetween; {
		spent += t.sample()
	}
	runtime.GC()
}

// measure runs whole passes in a closed loop with one client, checking every
// result: at least minPasses, then more while a median-length pass still
// fits in the budget. between, if not nil, runs after each pass.
func measure(budget time.Duration, minPasses int, runPass func() pass, between func(), v *verifier) []pass {
	start := time.Now()
	var passes []pass
	for {
		p := runPass()
		v.pass(p)
		passes = append(passes, p)
		if between != nil {
			between()
		}
		left := (budget - time.Since(start)).Seconds()
		if len(passes) >= minPasses && left < median(passWalls(passes)) {
			return passes
		}
	}
}

func (b *bench) runEndToEnd(budget time.Duration, setup *setupTimer) int {
	passes := measure(budget, 3, b.untracedPass, setup.between, b.v)
	scale := b.hostScale(passes)
	jobMs := medianJobMs(passes)
	for i := range jobMs {
		jobMs[i] *= scale
	}
	var runMs float64
	for _, ms := range jobMs {
		runMs += ms
	}
	var mems []float64
	for _, p := range passes {
		for _, o := range p.ops {
			mems = append(mems, o.memMiB)
		}
	}
	got := metricSet{
		"setup_s":    median(setup.secs) * scale,
		"run_s":      runMs / 1e3,
		"job_ms_p50": percentile(jobMs, 50),
		"job_ms_p90": percentile(jobMs, 90),
		"mem_mb":     median(mems),
	}
	samples := fmt.Sprintf("%d jobs, median of %d passes", len(jobMs), len(passes))
	notes := map[string]string{
		"setup_s":    fmt.Sprintf("median of %d samples", len(setup.secs)),
		"run_s":      samples,
		"job_ms_p50": samples,
		"job_ms_p90": samples,
		"mem_mb":     fmt.Sprintf("median of %d job ends; peak RSS %.1f MiB", len(mems), peakRSSMiB()),
	}
	return b.finish(endToEnd, got, notes)
}

// hostScale is the factor that converts the run's CPU times to the
// reference host's speed: refNominal over the median reference reading of
// the run's untraced passes. Slow episodes last minutes, longer than a
// run, so one factor per run tracks them. The median reading pairs with
// the jobs' median passes.
func (b *bench) hostScale(passes []pass) float64 {
	var refs []float64
	for _, p := range passes {
		for _, r := range p.refs {
			refs = append(refs, float64(r))
		}
	}
	ref := median(refs)
	scale := float64(refNominal) / ref
	fmt.Fprintf(b.out, "host: reference %.3f ms (median of %d readings), %.3f of the baseline host's speed\n",
		ref/1e6, len(refs), scale)
	return scale
}

// medianJobMs returns each job's median CPU time across the passes, in
// milliseconds. Contention comes in bursts of a second or two, and a job's
// fastest pass is an extreme of that noise: in a 12-minute probe it moved
// about three times as much from run to run as the job's median pass.
func medianJobMs(passes []pass) []float64 {
	med := make([]float64, len(passes[0].ops))
	cpus := make([]float64, len(passes))
	for i := range med {
		for k, p := range passes {
			cpus[k] = float64(p.ops[i].cpu) / 1e6
		}
		med[i] = median(cpus)
	}
	return med
}

// finish prints the digest status, any failures, the metrics and the
// verdict; a failed job makes the exit status nonzero.
func (b *bench) finish(defs []metricDef, got metricSet, notes map[string]string) int {
	fmt.Fprintln(b.out, b.v.status())
	for _, e := range b.v.errs {
		fmt.Fprintln(os.Stderr, "FAILED", e)
	}
	if err := report(b.out, defs, got, notes, b.v.attempted, b.v.failed); err != nil {
		fmt.Fprintln(os.Stderr, "sesa-perf:", err)
		return 1
	}
	if b.v.failed > 0 {
		return 1
	}
	return 0
}

// updateDigests pins every workload at its default and held-out seeds.
func updateDigests(out io.Writer) error {
	f := digestFile{}
	for _, w := range workloads {
		f[w.name] = map[string]*pin{}
		for _, seed := range w.seeds {
			b := newBench(w, seed, w.setup(seed), out)
			pn, err := newPin(w, b.untracedPass())
			if err != nil {
				return err
			}
			f[w.name][strconv.FormatUint(seed, 10)] = pn
			fmt.Fprintf(out, "pinned %s seed %d: %d jobs, roll-up %.16s\n", w.name, seed, len(pn.Jobs), pn.Rollup)
		}
	}
	return f.save(digestsPath)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heldMiB is the memory the Go runtime holds from the operating system:
// everything it has mapped, less the heap pages it has released. Sampled at
// job ends, its median is the workload's memory footprint. The peak resident
// set is printed beside it but not used: on the fuzz workload, which frees a
// machine of several MiB every few hundred microseconds, the peak depends on
// when the collector happens to run and varied by a third between runs.
func heldMiB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// peakRSSMiB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func passWalls(ps []pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank percentile: the smallest value that at
// least p percent of xs do not exceed. Unlike interpolation it never mixes
// in a neighbour across a gap: the fuzz workload's 90th percentile would
// otherwise take a tenth of the next program up, which costs twice as much
// and varies more.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
