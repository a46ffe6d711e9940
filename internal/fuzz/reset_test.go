package fuzz

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"sesa/internal/checker"
	"sesa/internal/config"
	"sesa/internal/litmus"
	"sesa/internal/sim"
	"sesa/internal/stats"
)

// resetBudget is the shape of the regression corpus's generated programs
// (gen_2x6_seed<N>.litmus: two threads of up to six operations over two
// locations), plus up to one fence and one RMW per thread, whose pipeline
// state a reset must clear too. Every program has two threads, so any two
// fit one machine.
var resetBudget = Budget{Threads: 2, Ops: 6, Addrs: 2, Fences: 1, RMWs: 1}

// witnessRun runs one witness iteration of the test on m and returns its
// outcome and statistics as JSON.
func witnessRun(t *testing.T, m *sim.Machine, test litmus.Test, cfg config.Config, seed uint64) (checker.Outcome, string) {
	t.Helper()
	var st *stats.Machine
	res, err := litmus.RunConfigTraced(m, test, cfg, 1, seed, func(_ int, m *sim.Machine) { st = m.Stats })
	if err != nil {
		t.Fatal(err)
	}
	j, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for o := range res.Outcomes {
		return o, string(j)
	}
	t.Fatal("no outcome")
	return "", ""
}

// FuzzResetEqualsFresh checks machine reuse in the witness search: program
// A runs under store-buffer pressure, the machine resets, and program B
// runs on it, plain and under pressure. Each run of B must give the
// statistics and outcome it gives on a new machine. The input is two
// generator seeds, a model index and a tiny-cache bit; the seed corpus
// pairs the generator seeds named in testdata/fuzz_corpus.
func FuzzResetEqualsFresh(f *testing.F) {
	files, err := filepath.Glob("../../testdata/fuzz_corpus/gen_2x6_seed*.litmus")
	if err != nil || len(files) < 2 {
		f.Fatalf("want generated programs in testdata/fuzz_corpus: %v", err)
	}
	seeds := make([]uint64, len(files))
	for i, name := range files {
		if _, err := fmt.Sscanf(filepath.Base(name), "gen_2x6_seed%d.litmus", &seeds[i]); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
	}
	for i := range seeds {
		f.Add(seeds[i], seeds[(i+1)%len(seeds)], uint8(i), i%2 == 0)
	}
	models := config.AllModels()
	f.Fuzz(func(t *testing.T, seedA, seedB uint64, model uint8, tiny bool) {
		shape := config.Skylake
		if tiny {
			shape = config.Small
		}
		cfg := shape(resetBudget.Threads, models[int(model)%len(models)])
		a := litmus.Test{Name: "a", Prog: Generate(seedA, resetBudget)}
		b := litmus.Test{Name: "b", Prog: Generate(seedB, resetBudget)}
		reused, err := sim.New(cfg, "a")
		if err != nil {
			t.Fatal(err)
		}
		witnessRun(t, reused, litmus.WithSBPressure(a, 3), cfg, seedA)
		for _, v := range []litmus.Test{b, litmus.WithSBPressure(b, 3)} {
			fresh, err := sim.New(cfg, v.Name)
			if err != nil {
				t.Fatal(err)
			}
			gotO, gotSt := witnessRun(t, reused, v, cfg, seedB)
			wantO, wantSt := witnessRun(t, fresh, v, cfg, seedB)
			if gotO != wantO || gotSt != wantSt {
				text, _ := Render(b.Prog)
				t.Fatalf("%s after A on a reset %s machine:\noutcome %s, stats %s\nnew machine:\noutcome %s, stats %s\nprogram B:\n%s",
					v.Name, cfg.Model, gotO, gotSt, wantO, wantSt, text)
			}
		}
	})
}
