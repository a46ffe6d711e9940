// Command sesa-litmus runs the paper's litmus tests on the cycle-accurate
// simulator and cross-checks every observed outcome against the exhaustive
// operational model (the litmus7-on-hardware workflow of Section III, with
// the simulator standing in for the Intel parts).
//
// Usage:
//
//	sesa-litmus [-test mp|n6|iriw|fig5|... or a comma list: mp,n6,iriw]
//	            [-model all|x86,370-RCP,...] [-iters N]
//	            [-pressure N] [-seed S]
//	            [-trace-out trace.json] [-trace-format chrome|kanata]
//	            [-metrics-interval N -metrics-out metrics.csv]
//	sesa-litmus -list-models
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"sesa"
)

func main() {
	testName := flag.String("test", "", "litmus test name or comma-separated list (default: all)")
	modelName := flag.String("model", "all", "machine model, comma list of models, or 'all'")
	iters := flag.Int("iters", 20, "simulator iterations per test and model")
	pressure := flag.Int("pressure", 3, "store-buffer pressure stores per forwarding thread (0 disables)")
	seed := flag.Uint64("seed", 1, "base seed for timing exploration")
	traceOut := flag.String("trace-out", "", "write a cycle-level pipeline trace of every iteration to this file")
	traceFormat := flag.String("trace-format", "chrome", "pipeline trace format: "+sesa.ValidTraceFormats)
	traceBuf := flag.Int("trace-buf", sesa.DefaultTraceBufCap, "per-core trace ring capacity in events")
	metricsInterval := flag.Uint64("metrics-interval", 0, "sample interval metrics every N cycles (0 disables)")
	metricsOut := flag.String("metrics-out", "", "write interval metrics to this file (.json for JSON, else CSV)")
	histOut := flag.String("hist-out", "", "write latency-distribution histograms to this file (empty with -hist-format set = stdout)")
	histFormat := flag.String("hist-format", "", "histogram format, text or json; setting it (or -hist-out) enables histogram collection")
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
	var runs []sesa.TraceRun
	var histRuns []sesa.HistRun

	tests := sesa.LitmusTests()
	if *testName != "" {
		tests = nil
		for _, name := range strings.Split(*testName, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			t, err := sesa.GetLitmus(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			tests = append(tests, t)
		}
		if len(tests) == 0 {
			fmt.Fprintf(os.Stderr, "-test %q selects no tests (valid tests: %s)\n",
				*testName, strings.Join(sesa.LitmusNames(), ", "))
			os.Exit(1)
		}
	}

	models, err := sesa.ParseModels(*modelName)
	if err != nil || len(models) == 0 {
		if err == nil {
			err = fmt.Errorf("-model %q selects no models", *modelName)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	exit := 0
	for _, test := range tests {
		fmt.Printf("=== %s — %s\n", test.Name, test.Doc)
		fmt.Printf("    allowed (x86-TSO):  %v\n", test.Allowed(sesa.CheckerX86TSO).Sorted())
		fmt.Printf("    allowed (370-TSO):  %v\n", test.Allowed(sesa.Checker370TSO).Sorted())
		fmt.Printf("    highlighted:        %q\n", test.Interesting)

		variant := test
		if *pressure > 0 {
			variant = sesa.WithSBPressure(test, *pressure)
		}
		for _, model := range models {
			var res *sesa.LitmusResult
			var err error
			if traceOpts != nil || wantHists {
				// Each iteration's machine records into its own tracer and
				// histogram set; runs are collected in iteration order, and
				// the iteration sets merge into one distribution per
				// (test, model) — exactly equivalent to one histogram fed
				// every iteration's samples.
				prefix := variant.Name + "/" + model.String()
				var iterSets []*sesa.HistSet
				res, err = sesa.RunLitmusTraced(variant, model, *iters, *seed,
					func(iter int, m *sesa.SimMachine) {
						if traceOpts != nil {
							tr := sesa.NewTracer(m.Config().Cores, *traceOpts)
							m.AttachTracer(tr)
							runs = append(runs, sesa.TraceRun{
								Name: fmt.Sprintf("%s#%d", prefix, iter), Tracer: tr})
						}
						if wantHists {
							hs := sesa.NewHistSet(m.Config().Cores)
							m.AttachHists(hs)
							iterSets = append(iterSets, hs)
						}
					})
				if err == nil && len(iterSets) > 0 {
					merged := iterSets[0]
					for _, hs := range iterSets[1:] {
						if err = merged.Merge(hs); err != nil {
							break
						}
					}
					if err == nil {
						histRuns = append(histRuns, sesa.NewHistRun(prefix, merged))
					}
				}
			} else {
				res, err = sesa.RunLitmus(variant, model, *iters, *seed)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			allowed := test.Allowed(sesa.SimCheckerModel(model))
			var keys []string
			for o := range res.Outcomes {
				keys = append(keys, string(o))
			}
			sort.Strings(keys)
			fmt.Printf("    %-15s:", model)
			for _, k := range keys {
				marker := ""
				if !allowed.Contains(sesa.Outcome(k)) {
					marker = " ILLEGAL!"
					exit = 1
				}
				if sesa.Outcome(k) == test.Interesting {
					marker += " <- highlighted"
				}
				fmt.Printf("  [%s x%d%s]", k, res.Outcomes[sesa.Outcome(k)], marker)
			}
			fmt.Println()
		}
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
			Title: fmt.Sprintf("latency distributions, %d iterations/model, seed %d", *iters, *seed),
			Runs:  histRuns,
		}
		if err := sesa.WriteHistReport(*histOut, f, rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	os.Exit(exit)
}
