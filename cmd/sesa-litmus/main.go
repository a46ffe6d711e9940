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
//	            [-trace-out trace.json|trace.kanata]
//	            [-metrics-interval N -metrics-out metrics.csv]
//	            [-hist-out hist.txt] [-hist-format text|json]
//	sesa-litmus -list-models
//
// The -trace-out file name picks the trace format: a .kanata path writes a
// Kanata pipeline log, any other path Chrome trace-event JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"sesa"
	"sesa/internal/litmus"
	"sesa/internal/report"
)

func main() {
	testName := flag.String("test", "", "litmus test name or comma-separated list (default: all)")
	modelName := flag.String("model", "all", "machine model, comma list of models, or 'all'")
	iters := flag.Int("iters", 20, "simulator iterations per test and model")
	pressure := flag.Int("pressure", 3, "store-buffer pressure stores per forwarding thread (0 disables)")
	seed := flag.Uint64("seed", 1, "base seed for timing exploration")
	listModels := flag.Bool("list-models", false, "print the machine-model roster and exit")
	outs := report.NewOutputs(flag.CommandLine, true)
	flag.Parse()

	if *listModels {
		fmt.Print(sesa.ListModels())
		return
	}
	if err := outs.Check(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := checkCounts(*iters, *pressure); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	traceOpts := outs.TraceOptions()

	tests, err := litmus.Select(*testName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
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
			// Each iteration's machine records into its own tracer. The
			// iterations' histogram sets merge into one distribution per
			// (test, model), exactly equivalent to one histogram fed every
			// iteration's samples.
			prefix := variant.Name + "/" + model.String()
			var iterSets []*sesa.HistSet
			res, err := sesa.RunLitmusTraced(variant, model, *iters, *seed,
				func(iter int, m *sesa.SimMachine) {
					if traceOpts == nil {
						return
					}
					tr := sesa.NewTracer(m.Config().Cores, *traceOpts)
					m.AttachTracer(tr)
					outs.Add(fmt.Sprintf("%s#%d", prefix, iter), tr, nil)
					if hs := tr.Hists(); hs != nil {
						iterSets = append(iterSets, hs)
					}
				})
			if err == nil && len(iterSets) > 0 {
				for _, hs := range iterSets[1:] {
					if err = iterSets[0].Merge(hs); err != nil {
						break
					}
				}
				outs.Add(prefix, nil, iterSets[0])
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

	title := fmt.Sprintf("latency distributions, %d iterations/model, seed %d", *iters, *seed)
	if err := outs.Write(os.Stdout, os.Stderr, title); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(exit)
}

// checkCounts rejects an -iters below 1, which would print every model's
// row with no outcomes, and a negative -pressure, which would act as 0.
func checkCounts(iters, pressure int) error {
	if iters < 1 {
		return fmt.Errorf("-iters must be >= 1")
	}
	if pressure < 0 {
		return fmt.Errorf("-pressure must be >= 0")
	}
	return nil
}
