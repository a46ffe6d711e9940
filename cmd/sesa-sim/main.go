// Command sesa-sim runs one Table IV benchmark on the simulated multicore
// under any selection of the registered consistency-model machines, and
// prints the characterization row, the stall breakdown and the memory-system
// statistics.
//
// Usage:
//
//	sesa-sim -bench barnes [-model all|x86,370-RCP,...] [-n 100000] [-seed 42]
//	sesa-sim -bench ocean_cp -trace-out trace.json -trace-format chrome
//	sesa-sim -bench barnes -metrics-interval 1000 -metrics-out metrics.csv
//	sesa-sim -list
//	sesa-sim -list-models
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"sesa"
)

func main() {
	bench := flag.String("bench", "barnes", "benchmark name (see -list)")
	modelName := flag.String("model", "all", "machine model, comma list of models, or 'all'")
	n := flag.Int("n", 100_000, "instructions per core")
	seed := flag.Uint64("seed", 42, "trace generation seed")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel simulation workers (1 = serial)")
	list := flag.Bool("list", false, "list benchmarks and exit")
	dump := flag.String("dump", "", "write the generated workload to this trace file and exit")
	traceIn := flag.String("trace", "", "run this trace file instead of a generated benchmark")
	traceOut := flag.String("trace-out", "", "write a cycle-level pipeline trace to this file")
	traceFormat := flag.String("trace-format", "chrome", "pipeline trace format: "+sesa.ValidTraceFormats)
	traceBuf := flag.Int("trace-buf", sesa.DefaultTraceBufCap, "per-core trace ring capacity in events")
	metricsInterval := flag.Uint64("metrics-interval", 0, "sample interval metrics every N cycles (0 disables)")
	metricsOut := flag.String("metrics-out", "", "write interval metrics to this file (.json for JSON, else CSV)")
	histOut := flag.String("hist-out", "", "write latency-distribution histograms to this file (empty with -hist-format set = stdout)")
	histFormat := flag.String("hist-format", "", "histogram format, text or json; setting it (or -hist-out) enables histogram collection")
	statusAddr := flag.String("status-addr", "", "serve live sweep status, histograms and pprof on this address (e.g. localhost:6060)")
	listModels := flag.Bool("list-models", false, "print the machine-model roster and exit")
	flag.Parse()

	if *listModels {
		fmt.Print(sesa.ListModels())
		return
	}
	wantHists := *histOut != "" || *histFormat != ""

	if *traceOut != "" && *traceFormat != "chrome" && *traceFormat != "kanata" {
		fmt.Fprintf(os.Stderr, "unknown -trace-format %q (want %s)\n", *traceFormat, sesa.ValidTraceFormats)
		os.Exit(1)
	}
	if (*metricsInterval > 0) != (*metricsOut != "") {
		fmt.Fprintln(os.Stderr, "-metrics-interval and -metrics-out must be used together")
		os.Exit(1)
	}
	var traceOpts *sesa.TraceOptions
	if *traceOut != "" || *metricsInterval > 0 {
		o := sesa.TraceOptions{MetricsInterval: *metricsInterval}
		if *traceOut != "" {
			o.BufCap = *traceBuf
		}
		traceOpts = &o
	}

	if *list {
		fmt.Println("parallel (SPLASH-3 + PARSEC, 8 cores):")
		for _, p := range sesa.ParallelProfiles() {
			fmt.Printf("  %-18s loads %6.2f%%  forwarded %6.2f%%\n", p.Name, p.LoadPct, p.ForwardPct)
		}
		fmt.Println("sequential (SPECrate 2017, 1 core):")
		for _, p := range sesa.SequentialProfiles() {
			fmt.Printf("  %-18s loads %6.2f%%  forwarded %6.2f%%\n", p.Name, p.LoadPct, p.ForwardPct)
		}
		return
	}

	models, err := sesa.ParseModels(*modelName)
	if err != nil || len(models) == 0 {
		if err == nil {
			err = fmt.Errorf("-model %q selects no models", *modelName)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *dump != "" {
		p, ok := sesa.LookupProfile(*bench)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *bench)
			os.Exit(1)
		}
		w := sesa.BuildWorkload(p, sesa.DefaultConfig(models[0]).Cores, *n, *seed)
		f, err := os.Create(*dump)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := sesa.WritePrograms(f, w.Programs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d threads to %s\n", len(w.Programs), *dump)
		return
	}

	var replay []sesa.Program
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		replay, err = sesa.ReadPrograms(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// The generated-benchmark path fans the models across -jobs workers,
	// replaying one cached trace; replaying an external trace file keeps the
	// serial path (its programs bypass the profile-keyed cache).
	var results []sesa.SweepResult
	if replay == nil {
		var progress *sesa.SweepProgress
		if *statusAddr != "" {
			progress = sesa.NewSweepProgress()
			addr, err := sesa.ServeStatus(*statusAddr, progress)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "status endpoints up at http://%s/status\n", addr)
		}
		js := make([]sesa.SweepJob, len(models))
		for i, model := range models {
			j, err := sesa.BenchmarkJob(*bench, model, *n, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			j.Trace = traceOpts
			j.Hists = wantHists
			js[i] = j
		}
		var summary sesa.SweepSummary
		results, summary = sesa.RunSweepMonitored(js, *jobs, progress)
		if *jobs > 1 {
			fmt.Fprintln(os.Stderr, summary)
		}
	}

	var base uint64
	var runs []sesa.TraceRun
	var histRuns []sesa.HistRun
	for mi, model := range models {
		var ch sesa.Characterization
		var st *sesa.Stats
		var tr *sesa.Tracer
		var hs *sesa.HistSet
		var err error
		if replay != nil {
			cfg := sesa.DefaultConfig(model)
			if len(replay) > cfg.Cores {
				cfg.Cores = len(replay)
			}
			w := sesa.Workload{Name: *traceIn, Programs: replay}
			st, tr, hs, err = runReplay(model, cfg, w, traceOpts, wantHists)
			if err == nil {
				ch = st.Characterize()
			}
		} else {
			res := results[mi]
			ch, st, err = res.Char, res.Stats, res.Err
			tr = res.Trace
			hs = res.Hists
		}
		if tr != nil {
			runs = append(runs, sesa.TraceRun{Name: *bench + "/" + model.String(), Tracer: tr})
		}
		if hs != nil {
			histRuns = append(histRuns, sesa.NewHistRun(*bench+"/"+model.String(), hs))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if base == 0 {
			base = ch.Cycles
		}
		t := st.Total()
		fmt.Printf("== %s on %s\n", *bench, model)
		fmt.Printf("   cycles %d (%.3fx of first model)   IPC %.3f\n",
			ch.Cycles, float64(ch.Cycles)/float64(base), ch.IPC)
		fmt.Printf("   loads %.3f%%   forwarded %.3f%%   gate stalls %.3f%% (avg %.1f cyc)   SA re-executed %.3f%%\n",
			ch.LoadsPct, ch.ForwardedPct, ch.GateStallsPct, ch.AvgStallCycles, ch.ReexecutedPct)
		fmt.Printf("   dispatch stalls: ROB %.1f%%  LQ %.1f%%  SQ/SB %.1f%%\n",
			ch.StallROBPct, ch.StallLQPct, ch.StallSQPct)
		fmt.Printf("   squashes %d (SA %d, dependence %d)   branch mispredicts %d\n",
			t.Squashes, t.SASquashes, t.DepSquashes, t.BranchMispredicts)
		fmt.Printf("   %s\n", st.NoC)
	}

	if *traceOut != "" {
		if err := sesa.WriteTraceFile(*traceOut, *traceFormat, runs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s trace (%d runs) to %s\n", *traceFormat, len(runs), *traceOut)
	}
	if *metricsOut != "" {
		if err := sesa.WriteMetricsFile(*metricsOut, runs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote interval metrics to %s\n", *metricsOut)
	}
	if wantHists {
		f := *histFormat
		if f == "" {
			f = "text"
		}
		rep := sesa.HistReport{
			Title: fmt.Sprintf("latency distributions: %s, %d instructions/core, seed %d", *bench, *n, *seed),
			Runs:  histRuns,
		}
		if err := sesa.WriteHistReport(*histOut, f, rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// runReplay runs a trace-file workload on one machine, optionally attaching
// an observability tracer and latency histograms (the sweep path does this
// via SweepJob.Trace / SweepJob.Hists).
func runReplay(model sesa.Model, cfg sesa.Config, w sesa.Workload, opts *sesa.TraceOptions, wantHists bool) (*sesa.Stats, *sesa.Tracer, *sesa.HistSet, error) {
	cfg.Model = model
	sys, err := sesa.NewSystem(cfg, w.Name)
	if err != nil {
		return nil, nil, nil, err
	}
	for i, p := range w.Programs {
		if err := sys.LoadProgram(i, p); err != nil {
			return nil, nil, nil, err
		}
	}
	var tr *sesa.Tracer
	if opts != nil {
		tr = sesa.NewTracer(cfg.Cores, *opts)
		sys.AttachTracer(tr)
	}
	var hs *sesa.HistSet
	if wantHists {
		hs = sesa.NewHistSet(cfg.Cores)
		sys.AttachHists(hs)
	}
	if err := sys.Run(1_000_000_000); err != nil {
		return nil, nil, nil, err
	}
	return sys.Stats(), tr, hs, nil
}
