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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"sesa"
	"sesa/internal/litmus"
	"sesa/internal/report"
)

// errIllegal reports that a machine witnessed an outcome its bounding
// operational model forbids; the report marks each one ILLEGAL!.
var errIllegal = errors.New("illegal outcomes witnessed")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errIllegal) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
}

// run parses the command line in args and writes the report to w; notes go
// to stderr. It returns errIllegal, after the whole report, when an outcome
// was witnessed that the bounding model forbids.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sesa-litmus", flag.ExitOnError)
	testName := fs.String("test", "", "litmus test name or comma-separated list (default: all)")
	modelName := fs.String("model", "all", "machine model, comma list of models, or 'all'")
	iters := fs.Int("iters", 20, "simulator iterations per test and model")
	pressure := fs.Int("pressure", 3, "store-buffer pressure stores per forwarding thread (0 disables)")
	seed := fs.Uint64("seed", 1, "base seed for timing exploration")
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
	if err := checkCounts(*iters, *pressure); err != nil {
		return err
	}
	traceOpts := outs.TraceOptions()

	tests, err := litmus.Select(*testName)
	if err != nil {
		return err
	}

	models, err := sesa.ParseModels(*modelName)
	if err != nil {
		return err
	}
	if len(models) == 0 {
		return fmt.Errorf("-model %q selects no models", *modelName)
	}

	var illegal error
	for _, test := range tests {
		fmt.Fprintf(w, "=== %s — %s\n", test.Name, test.Doc)
		fmt.Fprintf(w, "    allowed (x86-TSO):  %v\n", test.Allowed(sesa.CheckerX86TSO).Sorted())
		fmt.Fprintf(w, "    allowed (370-TSO):  %v\n", test.Allowed(sesa.Checker370TSO).Sorted())
		fmt.Fprintf(w, "    highlighted:        %q\n", test.Interesting)

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
				return err
			}
			allowed := test.Allowed(sesa.SimCheckerModel(model))
			var keys []string
			for o := range res.Outcomes {
				keys = append(keys, string(o))
			}
			sort.Strings(keys)
			fmt.Fprintf(w, "    %-15s:", model)
			for _, k := range keys {
				marker := ""
				if !allowed.Contains(sesa.Outcome(k)) {
					marker = " ILLEGAL!"
					illegal = errIllegal
				}
				if sesa.Outcome(k) == test.Interesting {
					marker += " <- highlighted"
				}
				fmt.Fprintf(w, "  [%s x%d%s]", k, res.Outcomes[sesa.Outcome(k)], marker)
			}
			fmt.Fprintln(w)
		}
	}

	title := fmt.Sprintf("latency distributions, %d iterations/model, seed %d", *iters, *seed)
	if err := outs.Write(w, os.Stderr, title); err != nil {
		return err
	}
	return illegal
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
