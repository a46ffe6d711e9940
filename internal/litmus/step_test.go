package litmus

import (
	"bytes"
	"fmt"
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
	var sts []*stats.Machine
	res, err := RunConfigTraced(test, cfg, iters, seed, func(iter int, m *sim.Machine) {
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

// traceSmoke reproduces the pipeline-trace and histogram smoke commands
// (sesa-litmus -test n6 -model 370-SLFSoS-key -iters 2, with -trace-out in
// both formats and -hist-out as text) under one stepper, returning each
// output's bytes by format.
func traceSmoke(t *testing.T, mode config.StepMode) map[string][]byte {
	t.Helper()
	const iters, seed = 2, 1
	test := WithSBPressure(N6(), 3)
	model := config.SLFSoSKey370
	prefix := test.Name + "/" + model.String()
	var runs []obs.Run
	var sets []*hist.Set
	runStepped(t, test, model, mode, iters, seed, func(iter int, m *sim.Machine) {
		tr := obs.New(m.Config().Cores, obs.Options{BufCap: obs.DefaultBufCap})
		m.AttachTracer(tr)
		runs = append(runs, obs.Run{Name: fmt.Sprintf("%s#%d", prefix, iter), Tracer: tr})
		hs := hist.NewSet(m.Config().Cores)
		m.AttachHists(hs)
		sets = append(sets, hs)
	})
	for _, hs := range sets[1:] {
		if err := sets[0].Merge(hs); err != nil {
			t.Fatal(err)
		}
	}
	rep := report.HistReport{
		Title: fmt.Sprintf("latency distributions, %d iterations/model, seed %d", iters, seed),
		Runs:  []report.HistRun{report.NewHistRun(prefix, sets[0])},
	}
	var chrome, kanata, text bytes.Buffer
	if err := obs.WriteChrome(&chrome, runs); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteKanata(&kanata, runs); err != nil {
		t.Fatal(err)
	}
	if err := rep.Write(&text, report.Text); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"chrome": chrome.Bytes(), "kanata": kanata.Bytes(), "hist-text": text.Bytes()}
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

	// The pipeline-trace and histogram smoke: both steppers must reproduce
	// the goldens CI diffs the sesa-litmus output against.
	t.Run("smoke/trace+hist", func(t *testing.T) {
		naive, skip := traceSmoke(t, config.StepNaive), traceSmoke(t, config.StepSkip)
		for _, c := range []struct{ format, golden string }{
			{"chrome", "trace_n6_slfsoskey_iters2.golden.json"},
			{"kanata", "trace_n6_slfsoskey_iters2.golden.kanata"},
			{"hist-text", "hist_n6_slfsoskey_iters2.golden"},
		} {
			if len(skip[c.format]) == 0 {
				t.Errorf("%s: empty output", c.format)
			}
			if !bytes.Equal(naive[c.format], skip[c.format]) {
				t.Errorf("%s: naive and skip output differ (%d vs %d bytes)",
					c.format, len(naive[c.format]), len(skip[c.format]))
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(skip[c.format], want) {
				t.Errorf("%s: output differs from testdata/%s (%d vs %d bytes)",
					c.format, c.golden, len(skip[c.format]), len(want))
			}
		}
	})
}
