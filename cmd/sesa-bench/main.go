// Command sesa-bench regenerates every table and figure of the paper's
// evaluation (Section VI) on the simulated machine:
//
//	sesa-bench -table 1        Table I   (atomicity taxonomy, via the checker)
//	sesa-bench -table 2        Table II  (Figure 5 outcomes under x86 vs 370)
//	sesa-bench -table 3        Table III (machine configuration)
//	sesa-bench -table 4        Table IV  (characterization under 370-SLFSoS-key)
//	sesa-bench -fig 1 ... 5    litmus allowed sets + simulator witnesses
//	sesa-bench -fig 9          dispatch-stall breakdown for every machine
//	sesa-bench -fig 10         normalized execution time for every machine
//	sesa-bench -list-models    print the machine-model roster
//
// The figure sweeps cover the whole registered roster — the paper's five
// machines plus the related-work policies (370-Louvre, 370-RCP). The
// -suite, -n and -seed flags select the workloads and scale.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"sesa"
	"sesa/internal/report"
	"sesa/internal/trace"
)

var (
	n          = flag.Int("n", 50_000, "instructions per core")
	seed       = flag.Uint64("seed", 42, "trace seed")
	suite      = flag.String("suite", "both", "parallel, sequential or both")
	format     = flag.String("format", "text", "output format for -table 4 and -fig 10: text, csv or json")
	jobs       = flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel simulation workers (1 = serial)")
	quiet      = flag.Bool("q", false, "suppress the sweep summary on stderr")
	statusAddr = flag.String("status-addr", "", "serve the sweep's /metrics, /healthz and pprof on this address (e.g. localhost:6060)")
	listModels = flag.Bool("list-models", false, "print the machine-model roster and exit")
	outs       = report.NewOutputs(flag.CommandLine, false)
)

// tableFormat is the parsed -format.
var tableFormat report.Format

// progress is non-nil when -status-addr is set.
var progress *sesa.SweepProgress

// sweep fans the experiment jobs across -jobs workers. Results come back in
// job order, so stdout is byte-identical for any worker count; the
// wall-clock summary goes to stderr. Every job's histograms, when enabled,
// are collected in job order across every sweep the invocation performs.
func sweep(js []sesa.SweepJob) []sesa.SweepResult {
	opts := outs.TraceOptions()
	for i := range js {
		js[i].Trace = opts
	}
	results, summary := sesa.RunSweepMonitored(js, *jobs, progress)
	if !*quiet {
		fmt.Fprintln(os.Stderr, summary)
	}
	for _, res := range results {
		outs.Add(res.Job.Name(), nil, res.Trace.Hists())
	}
	return results
}

// writeHists exports the collected histogram runs: every job's merged and
// per-core tables, preceded by an "all" run merging the whole invocation.
func writeHists() error {
	if len(outs.Hists) > 1 {
		all := &sesa.HistCollector{}
		for _, r := range outs.Hists {
			all.Merge(r.Merged)
		}
		outs.Hists = append([]report.HistRun{{Name: "all", Merged: all}}, outs.Hists...)
	}
	return outs.Write(os.Stdout, os.Stderr,
		fmt.Sprintf("latency distributions, %d instructions/core, seed %d", *n, *seed))
}

// writeTable prints a result table to stdout in the -format encoding.
func writeTable(t interface {
	Write(io.Writer, report.Format) error
}) {
	if err := t.Write(os.Stdout, tableFormat); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// benchmarkJobs builds the (profile × model) job grid in row-major order.
func benchmarkJobs(profiles []sesa.Profile, models []sesa.Model) []sesa.SweepJob {
	js := make([]sesa.SweepJob, 0, len(profiles)*len(models))
	for _, p := range profiles {
		for _, m := range models {
			js = append(js, sesa.SweepJob{Profile: p, Model: m, InstPerCore: *n, Seed: *seed})
		}
	}
	return js
}

func main() {
	table := flag.Int("table", 0, "regenerate a table (1-4)")
	fig := flag.Int("fig", 0, "regenerate a figure (1-5, 9, 10)")
	flag.Parse()

	if *listModels {
		fmt.Print(sesa.ListModels())
		return
	}
	var err error
	tableFormat, err = report.ParseFormat(*format)
	if err == nil {
		err = outs.Check()
	}
	if err == nil {
		err = trace.CheckInstPerCore(*n)
	}
	if err == nil {
		err = checkSuite(*suite)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *statusAddr != "" {
		progress = sesa.NewSweepProgress()
		addr, err := sesa.ServeStatus(*statusAddr, progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "status endpoints up at http://%s/metrics\n", addr)
	}

	switch {
	case *table == 1:
		tableI()
	case *table == 2:
		tableII()
	case *table == 3:
		tableIII()
	case *table == 4:
		forSuites(tableIV)
	case *fig >= 1 && *fig <= 5:
		figLitmus(*fig)
	case *fig == 9:
		forSuites(fig9)
	case *fig == 10:
		forSuites(fig10)
	default:
		flag.Usage()
		os.Exit(2)
	}

	if err := writeHists(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// checkSuite rejects a -suite value that selects no suite.
func checkSuite(s string) error {
	switch s {
	case "parallel", "sequential", "both":
		return nil
	}
	return fmt.Errorf("unknown -suite %q (want parallel, sequential or both)", s)
}

func forSuites(f func(sesa.Suite)) {
	if *suite == "parallel" || *suite == "both" {
		f(sesa.ParallelSuite)
	}
	if *suite == "sequential" || *suite == "both" {
		f(sesa.SequentialSuite)
	}
}

func profiles(s sesa.Suite) []sesa.Profile {
	if s == sesa.ParallelSuite {
		return sesa.ParallelProfiles()
	}
	return sesa.SequentialProfiles()
}

// tableI verifies the atomicity taxonomy on the litmus suite: SC ⊆ 370 ⊆
// x86, with the inclusions strict where store atomicity is observable.
func tableI() {
	fmt.Println("Table I: atomicity of store operations")
	fmt.Println("  370   store atomicity (MCA):     a core may not see its own stores early")
	fmt.Println("  x86   write atomicity (rMCA):    read-own-write-early allowed")
	fmt.Println("  PC    non-write-atomic (non-MCA): not modelled (write-atomic MESI assumed)")
	fmt.Println()
	fmt.Println("checker verification over the litmus suite:")
	for _, t := range sesa.LitmusTests() {
		sc := sesa.Enumerate(t.Prog, sesa.CheckerSC)
		m370 := sesa.Enumerate(t.Prog, sesa.Checker370TSO)
		x86 := sesa.Enumerate(t.Prog, sesa.CheckerX86TSO)
		subset := func(a, b sesa.OutcomeSet) bool {
			for o := range a {
				if !b.Contains(o) {
					return false
				}
			}
			return true
		}
		fmt.Printf("  %-10s SC %d ⊆ 370 %d: %v   370 %d ⊆ x86 %d: %v\n",
			t.Name, len(sc), len(m370), subset(sc, m370), len(m370), len(x86), subset(m370, x86))
	}
}

func tableII() {
	t, _ := sesa.GetLitmus("fig5")
	fmt.Println("Table II: all possible outcomes for the Figure 5 code")
	fmt.Println("(c1x/c1y = Core1's view of [x],[y]; c2y/c2x = Core2's view)")
	x86 := sesa.Enumerate(t.Prog, sesa.CheckerX86TSO)
	m370 := sesa.Enumerate(t.Prog, sesa.Checker370TSO)
	for _, o := range x86.Sorted() {
		tag := "common (store-atomic and non-store-atomic)"
		if !m370.Contains(o) {
			tag = "NON-STORE-ATOMIC ONLY: disagreement in order"
		}
		fmt.Printf("  %-40s %s\n", o, tag)
	}
	fmt.Printf("x86 outcomes: %d, store-atomic 370 outcomes: %d\n", len(x86), len(m370))
}

func tableIII() {
	c := sesa.DefaultConfig(sesa.SLFSoSKey370)
	fmt.Println("Table III: system configuration (Skylake-like)")
	fmt.Printf("  cores                      %d\n", c.Cores)
	fmt.Printf("  issue/retire width         %d\n", c.Core.Width)
	fmt.Printf("  reorder buffer             %d entries\n", c.Core.ROBEntries)
	fmt.Printf("  load queue                 %d entries\n", c.Core.LQEntries)
	fmt.Printf("  store queue + store buffer %d entries\n", c.Core.SQEntries)
	fmt.Printf("  L1 D-cache                 %dKB, %d ways, %d hit cycles\n",
		c.Mem.L1D.SizeBytes>>10, c.Mem.L1D.Ways, c.Mem.L1D.HitCycles)
	fmt.Printf("  L2 cache                   %dKB, %d ways, %d hit cycles\n",
		c.Mem.L2.SizeBytes>>10, c.Mem.L2.Ways, c.Mem.L2.HitCycles)
	fmt.Printf("  shared L3                  %d banks x %dMB, %d ways, %d hit cycles\n",
		c.Mem.L3Banks, c.Mem.L3.SizeBytes>>20, c.Mem.L3.Ways, c.Mem.L3.HitCycles)
	fmt.Printf("  directory                  %d ways, %.0f%% L2 coverage\n",
		c.Mem.DirectoryWays, c.Mem.DirectoryCoverage*100)
	fmt.Printf("  memory access              %d cycles\n", c.Mem.MemCycles)
	fmt.Printf("  NoC                        fully connected, %d/%d flits, %d cycles/switch\n",
		c.NoC.ControlFlits, c.NoC.DataFlits, c.NoC.SwitchLatency)
	fmt.Printf("  SLFSoS-key extra storage   %d bits\n", sesa.GateStorageBits(c))
}

func tableIV(s sesa.Suite) {
	table := report.CharacterizationTable{
		Title: fmt.Sprintf("Table IV (%s): characterization under 370-SLFSoS-key, %d instructions/core, seed %d",
			s, *n, *seed),
	}
	for _, res := range sweep(benchmarkJobs(profiles(s), []sesa.Model{sesa.SLFSoSKey370})) {
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", res.Job.Profile.Name, res.Err)
			continue
		}
		table.Rows = append(table.Rows, res.Char)
	}
	writeTable(table)
}

func figLitmus(fig int) {
	name := map[int]string{1: "mp", 2: "n6", 3: "iriw", 4: "fig4", 5: "fig5"}[fig]
	t, _ := sesa.GetLitmus(name)
	fmt.Printf("Figure %d (%s): %s\n", fig, t.Name, t.Doc)
	fmt.Printf("  allowed (x86-TSO): %v\n", t.Allowed(sesa.CheckerX86TSO).Sorted())
	fmt.Printf("  allowed (370-TSO): %v\n", t.Allowed(sesa.Checker370TSO).Sorted())
	variant := sesa.WithSBPressure(t, 3)
	for _, model := range sesa.AllModels() {
		res, err := sesa.RunLitmus(variant, model, 10, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  %-15s witnessed %q: %v\n", model, t.Interesting, res.Observed(t.Interesting))
	}
}

func fig9(s sesa.Suite) {
	fmt.Printf("Figure 9 (%s): %% cycles stalled on full ROB / LQ / SQ-SB, %d instructions/core\n", s, *n)
	fmt.Printf("%-18s", "benchmark")
	models := sesa.AllModels()
	for _, m := range models {
		fmt.Printf(" %20s", m)
	}
	fmt.Println()
	ps := profiles(s)
	results := sweep(benchmarkJobs(ps, models))
	for i, p := range ps {
		fmt.Printf("%-18s", p.Name)
		for j := range models {
			res := results[i*len(models)+j]
			if res.Err != nil {
				fmt.Fprintf(os.Stderr, "FAILED %s on %s: %v\n", p.Name, models[j], res.Err)
				fmt.Printf("  %17s ", "-")
				continue
			}
			ch := res.Char
			fmt.Printf("  %5.1f/%5.1f/%5.1f ", ch.StallROBPct, ch.StallLQPct, ch.StallSQPct)
		}
		fmt.Println()
	}
}

func fig10(s sesa.Suite) {
	table := report.ComparisonTable{
		Title:      fmt.Sprintf("Figure 10 (%s): execution time normalized to x86, %d instructions/core", s, *n),
		Normalized: map[string][]float64{},
	}
	models := sesa.AllModels()
	for _, m := range models {
		table.Models = append(table.Models, m.String())
	}
	ps := profiles(s)
	results := sweep(benchmarkJobs(ps, models))
	for i, p := range ps {
		// A failed model leaves the benchmark's row incomparable: skip the
		// whole row (deterministically) and report the failures on stderr.
		failed := false
		for j := range models {
			if err := results[i*len(models)+j].Err; err != nil {
				fmt.Fprintf(os.Stderr, "FAILED %s on %s: %v\n", p.Name, models[j], err)
				failed = true
			}
		}
		if failed {
			continue
		}
		table.Benchmarks = append(table.Benchmarks, p.Name)
		var base uint64
		for j, model := range models {
			ch := results[i*len(models)+j].Char
			if model == sesa.X86 {
				base = ch.Cycles
			}
			table.Normalized[model.String()] = append(table.Normalized[model.String()],
				float64(ch.Cycles)/float64(base))
		}
	}
	writeTable(table)
}
