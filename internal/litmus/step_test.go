package litmus

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sesa/internal/config"
	"sesa/internal/hist"
	"sesa/internal/obs"
	"sesa/internal/report"
	"sesa/internal/sim"
	"sesa/internal/stats"
)

// runStepped runs one litmus test and model under the given step mode and
// returns the outcome histogram plus every iteration's machine statistics.
// attach, when non-nil, also sees every iteration's machine before it runs.
func runStepped(t *testing.T, test Test, model config.Model, mode config.StepMode, iters int, seed uint64,
	attach func(iter int, m *sim.Machine)) (*Result, []*stats.Machine) {
	t.Helper()
	cfg := config.Skylake(len(test.Prog.Threads), model)
	cfg.StepMode = mode
	m, err := sim.New(cfg, test.Name)
	if err != nil {
		t.Fatal(err)
	}
	var sts []*stats.Machine
	res, err := RunConfigTraced(m, test, cfg, iters, seed, func(iter int, m *sim.Machine) {
		sts = append(sts, m.Stats)
		if attach != nil {
			attach(iter, m)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, sts
}

// checkStepModesAgree fails t unless the skip clock reproduces the naive
// stepper's outcomes and every per-iteration statistic exactly.
func checkStepModesAgree(t *testing.T, test Test, model config.Model, iters int, seed uint64) {
	t.Helper()
	naiveRes, naiveSts := runStepped(t, test, model, config.StepNaive, iters, seed, nil)
	skipRes, skipSts := runStepped(t, test, model, config.StepSkip, iters, seed, nil)
	if !reflect.DeepEqual(naiveRes.Outcomes, skipRes.Outcomes) {
		t.Errorf("outcomes differ:\nnaive: %v\nskip:  %v", naiveRes.Outcomes, skipRes.Outcomes)
	}
	for i := range naiveSts {
		if !reflect.DeepEqual(naiveSts[i], skipSts[i]) {
			t.Errorf("iteration %d statistics differ:\nnaive: %+v\nskip:  %+v",
				i, naiveSts[i], skipSts[i])
		}
	}
}

// traceSmoke runs the pipeline-trace and histogram smoke command of CI
// (sesa-litmus -test n6 -model 370-SLFSoS-key -iters 2 plus the output flags
// in args) under one stepper, attaching and writing the outputs through the
// CLIs' shared output flag group as sesa-litmus does.
func traceSmoke(t *testing.T, mode config.StepMode, args []string) {
	t.Helper()
	fs := flag.NewFlagSet("sesa-litmus", flag.ContinueOnError)
	outs := report.NewOutputs(fs, true)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := outs.Check(); err != nil {
		t.Fatal(err)
	}
	const iters, seed = 2, 1
	test := WithSBPressure(N6(), 3)
	model := config.SLFSoSKey370
	prefix := test.Name + "/" + model.String()
	opts := outs.TraceOptions()
	var sets []*hist.Set
	runStepped(t, test, model, mode, iters, seed, func(iter int, m *sim.Machine) {
		if opts == nil {
			return
		}
		tr := obs.New(m.Config().Cores, *opts)
		m.AttachTracer(tr)
		outs.Add(fmt.Sprintf("%s#%d", prefix, iter), tr, nil)
		if hs := tr.Hists(); hs != nil {
			sets = append(sets, hs)
		}
	})
	if len(sets) > 0 {
		for _, hs := range sets[1:] {
			if err := sets[0].Merge(hs); err != nil {
				t.Fatal(err)
			}
		}
		outs.Add(prefix, nil, sets[0])
	}
	title := fmt.Sprintf("latency distributions, %d iterations/model, seed %d", iters, seed)
	if err := outs.Write(io.Discard, io.Discard, title); err != nil {
		t.Fatal(err)
	}
}

// TestStepModesAgreeOnLitmusSuite is the two-level clock's equivalence
// contract on the litmus suite: for every test and model, with and without
// store-buffer pressure, the skip clock must reproduce the naive stepper's
// outcomes and every per-iteration statistic exactly. The smoke subtests
// run the inputs of the smoke goldens, which pin the skip clock's output, so
// the naive stepper stays pinned to those goldens too.
func TestStepModesAgreeOnLitmusSuite(t *testing.T) {
	for _, base := range Tests() {
		for _, test := range []Test{base, WithSBPressure(base, 3)} {
			for _, model := range config.AllModels() {
				t.Run(test.Name+"/"+model.String(), func(t *testing.T) {
					checkStepModesAgree(t, test, model, 4, 7)
				})
			}
		}
	}

	// The litmus smoke (sesa-litmus -test mp,n6,iriw): every model, SB
	// pressure 3, 20 iterations from seed 1.
	for _, base := range []Test{MP(), N6(), IRIW()} {
		test := WithSBPressure(base, 3)
		for _, model := range config.AllModels() {
			t.Run("smoke/"+test.Name+"/"+model.String(), func(t *testing.T) {
				checkStepModesAgree(t, test, model, 20, 1)
			})
		}
	}

	// The pipeline-trace and histogram smoke: under both steppers, CI's
	// four commands must write the goldens CI diffs their files against.
	// The last records events and histograms through one tracer at once.
	t.Run("smoke/trace+hist", func(t *testing.T) {
		const (
			chrome = "trace_n6_slfsoskey_iters2.golden.json"
			kanata = "trace_n6_slfsoskey_iters2.golden.kanata"
			text   = "hist_n6_slfsoskey_iters2.golden"
		)
		for _, c := range []struct {
			args    []string // args[2k+1] is the output file goldens[k] pins
			goldens []string
		}{
			{[]string{"-trace-out", "trace.json"}, []string{chrome}},
			{[]string{"-trace-out", "trace.kanata"}, []string{kanata}},
			{[]string{"-hist-out", "hist.out", "-hist-format", "text"}, []string{text}},
			{[]string{"-trace-out", "both.json", "-hist-out", "both.hist", "-hist-format", "text"},
				[]string{chrome, text}},
		} {
			for _, mode := range []config.StepMode{config.StepNaive, config.StepSkip} {
				args := append([]string(nil), c.args...)
				dir := t.TempDir()
				for k := range c.goldens {
					args[2*k+1] = filepath.Join(dir, args[2*k+1])
				}
				traceSmoke(t, mode, args)
				for k, golden := range c.goldens {
					want, err := os.ReadFile(filepath.Join("..", "..", "testdata", golden))
					if err != nil {
						t.Fatal(err)
					}
					got, err := os.ReadFile(args[2*k+1])
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("stepper %v, %v: output differs from testdata/%s (%d vs %d bytes)",
							mode, c.args, golden, len(got), len(want))
					}
				}
			}
		}
	})
}
