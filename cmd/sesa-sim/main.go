// Command sesa-sim runs one Table IV benchmark on the simulated multicore
// under any selection of the registered consistency-model machines, and
// prints the characterization row, the stall breakdown and the memory-system
// statistics.
//
// Usage:
//
//	sesa-sim -bench barnes [-model all|x86,370-RCP,...] [-n 100000] [-seed 42]
//	sesa-sim -bench ocean_cp -trace-out trace.json
//	sesa-sim -bench barnes -metrics-interval 1000 -metrics-out metrics.csv
//	sesa-sim -bench 505.mcf -dump mcf.trace; sesa-sim -trace mcf.trace
//	sesa-sim -list
//	sesa-sim -list-models
//
// The -trace-out file name picks the trace format: a .kanata path writes a
// Kanata pipeline log, any other path Chrome trace-event JSON.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"sesa"
	"sesa/internal/report"
	"sesa/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses the command line in args and writes the report to w; notes
// and the sweep summary go to stderr.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sesa-sim", flag.ExitOnError)
	bench := fs.String("bench", "barnes", "benchmark name (see -list)")
	modelName := fs.String("model", "all", "machine model, comma list of models, or 'all'")
	n := fs.Int("n", 100_000, "instructions per core")
	seed := fs.Uint64("seed", 42, "trace generation seed")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "parallel simulation workers (1 = serial)")
	list := fs.Bool("list", false, "list benchmarks and exit")
	dump := fs.String("dump", "", "write the generated workload to this trace file and exit")
	traceIn := fs.String("trace", "", "run this trace file instead of a generated benchmark")
	statusAddr := fs.String("status-addr", "", "serve the sweep's /metrics, /healthz and pprof on this address (e.g. localhost:6060)")
	listModels := fs.Bool("list-models", false, "print the machine-model roster and exit")
	outs := report.NewOutputs(fs, true)
	_ = fs.Parse(args) // ExitOnError: a bad command line exits here

	if *listModels {
		fmt.Fprint(w, sesa.ListModels())
		return nil
	}
	if err := outs.Check(); err != nil {
		return err
	}
	if err := trace.CheckInstPerCore(*n); err != nil {
		return err
	}
	if *statusAddr != "" && (*traceIn != "" || *dump != "" || *list) {
		return errors.New("-status-addr reports a sweep, and -trace, -dump and -list run none")
	}
	traceOpts := outs.TraceOptions()

	if *list {
		fmt.Fprintln(w, "parallel (SPLASH-3 + PARSEC, 8 cores):")
		for _, p := range sesa.ParallelProfiles() {
			fmt.Fprintf(w, "  %-18s loads %6.2f%%  forwarded %6.2f%%\n", p.Name, p.LoadPct, p.ForwardPct)
		}
		fmt.Fprintln(w, "sequential (SPECrate 2017, 1 core):")
		for _, p := range sesa.SequentialProfiles() {
			fmt.Fprintf(w, "  %-18s loads %6.2f%%  forwarded %6.2f%%\n", p.Name, p.LoadPct, p.ForwardPct)
		}
		return nil
	}

	models, err := sesa.ParseModels(*modelName)
	if err == nil && len(models) == 0 {
		err = fmt.Errorf("-model %q selects no models", *modelName)
	}
	if err != nil {
		return err
	}

	if *dump != "" {
		p, ok := sesa.LookupProfile(*bench)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", *bench)
		}
		wl, err := sesa.BuildWorkload(p, sesa.DefaultConfig(models[0]).Cores, *n, *seed)
		if err != nil {
			return err
		}
		f, err := os.Create(*dump)
		if err != nil {
			return err
		}
		err = sesa.WritePrograms(f, wl.Programs)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d threads to %s\n", len(wl.Programs), *dump)
		return nil
	}

	// A replayed trace file labels the runs with its file name; a generated
	// workload with the benchmark name.
	label := *bench
	var replay []sesa.Program
	if *traceIn != "" {
		label = filepath.Base(*traceIn)
		f, err := os.Open(*traceIn)
		if err != nil {
			return err
		}
		replay, err = sesa.ReadPrograms(f)
		f.Close()
		if err != nil {
			return err
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
				return err
			}
			fmt.Fprintf(os.Stderr, "status endpoints up at http://%s/metrics\n", addr)
		}
		js := make([]sesa.SweepJob, len(models))
		for i, model := range models {
			j, err := sesa.BenchmarkJob(*bench, model, *n, *seed)
			if err != nil {
				return err
			}
			j.Trace = traceOpts
			js[i] = j
		}
		var summary sesa.SweepSummary
		results, summary = sesa.RunSweepMonitored(js, *jobs, progress)
		if *jobs > 1 {
			fmt.Fprintln(os.Stderr, summary)
		}
	}

	var base uint64
	for mi, model := range models {
		var ch sesa.Characterization
		var st *sesa.Stats
		var tr *sesa.Tracer
		var err error
		if replay != nil {
			cfg := sesa.DefaultConfig(model)
			if len(replay) > cfg.Cores {
				cfg.Cores = len(replay)
			}
			wl := sesa.Workload{Name: *traceIn, Programs: replay}
			st, tr, err = runReplay(model, cfg, wl, traceOpts)
			if err == nil {
				ch = st.Characterize()
			}
		} else {
			res := results[mi]
			ch, st, err, tr = res.Char, res.Stats, res.Err, res.Trace
		}
		outs.Add(label+"/"+model.String(), tr, tr.Hists())
		if err != nil {
			return err
		}
		if base == 0 {
			base = ch.Cycles
		}
		t := st.Total()
		fmt.Fprintf(w, "== %s on %s\n", label, model)
		fmt.Fprintf(w, "   cycles %d (%.3fx of first model)   IPC %.3f\n",
			ch.Cycles, float64(ch.Cycles)/float64(base), ch.IPC)
		fmt.Fprintf(w, "   loads %.3f%%   forwarded %.3f%%   gate stalls %.3f%% (avg %.1f cyc)   SA re-executed %.3f%%\n",
			ch.LoadsPct, ch.ForwardedPct, ch.GateStallsPct, ch.AvgStallCycles, ch.ReexecutedPct)
		fmt.Fprintf(w, "   dispatch stalls: ROB %.1f%%  LQ %.1f%%  SQ/SB %.1f%%\n",
			ch.StallROBPct, ch.StallLQPct, ch.StallSQPct)
		fmt.Fprintf(w, "   squashes %d (SA %d, dependence %d)   branch mispredicts %d\n",
			t.Squashes, t.SASquashes, t.DepSquashes, t.BranchMispredicts)
		fmt.Fprintf(w, "   %s\n", st.NoC)
	}

	title := fmt.Sprintf("latency distributions: %s, %d instructions/core, seed %d", label, *n, *seed)
	return outs.Write(w, os.Stderr, title)
}

// runReplay runs a trace-file workload on one machine, optionally attaching
// an observability tracer (the sweep path does this via SweepJob.Trace).
func runReplay(model sesa.Model, cfg sesa.Config, w sesa.Workload, opts *sesa.TraceOptions) (*sesa.Stats, *sesa.Tracer, error) {
	cfg.Model = model
	sys, err := sesa.NewSystem(cfg, w.Name)
	if err != nil {
		return nil, nil, err
	}
	for i, p := range w.Programs {
		if err := sys.LoadProgram(i, p); err != nil {
			return nil, nil, err
		}
	}
	var tr *sesa.Tracer
	if opts != nil {
		tr = sesa.NewTracer(cfg.Cores, *opts)
		sys.AttachTracer(tr)
	}
	if err := sys.Run(1_000_000_000); err != nil {
		return nil, nil, err
	}
	return sys.Stats(), tr, nil
}
