package fuzz

import (
	"reflect"
	"testing"

	"sesa/internal/axiomatic"
	"sesa/internal/checker"
	"sesa/internal/config"
)

// agreementShapes are the budgets the agreement property is checked on,
// each with the number of seeds TestCheckerVsAxiomaticAgreement runs.
var agreementShapes = []struct {
	name  string
	b     Budget
	seeds uint64
}{
	{"two-thread", Budget{Threads: 2, Ops: 4, Addrs: 2, Fences: 1, RMWs: 1}, 60},
	{"three-thread", Budget{Threads: 3, Ops: 3, Addrs: 2, Fences: 1, RMWs: 1}, 40},
	{"three-var", Budget{Threads: 3, Ops: 4, Addrs: 3, Fences: 0, RMWs: 0}, 30},
	{"rmw-heavy", Budget{Threads: 2, Ops: 5, Addrs: 1, Fences: 0, RMWs: 3}, 30},
	{"wide", Budget{Threads: 4, Ops: 6, Addrs: 3, Fences: 1, RMWs: 2}, 40},
}

// checkAgreement fails t unless, on the program (seed, b) generates, the
// operational checker and the axiomatic enumerator produce identical
// outcome sets for all three models.
func checkAgreement(t *testing.T, seed uint64, b Budget) {
	t.Helper()
	p := Generate(seed, b)
	rep, err := CrossValidate(p, Options{}) // model legs only
	if err != nil {
		t.Fatalf("seed %d budget %v: %v", seed, b, err)
	}
	if !rep.Ok() {
		text, _ := Render(p)
		t.Fatalf("seed %d budget %v: %d mismatches, first: %v\nprogram:\n%s",
			seed, b, len(rep.Mismatches), rep.Mismatches[0], text)
	}
}

// TestCheckerVsAxiomaticAgreement is the generator-driven agreement
// property over every seed of every shape in agreementShapes.
// Deterministic: fixed seeds, fixed budgets.
func TestCheckerVsAxiomaticAgreement(t *testing.T) {
	for _, s := range agreementShapes {
		t.Run(s.name, func(t *testing.T) {
			for seed := uint64(0); seed < s.seeds; seed++ {
				checkAgreement(t, seed, s.b)
			}
		})
	}
}

// FuzzCheckerVsAxiomatic explores the agreement property beyond the fixed
// seeds of TestCheckerVsAxiomaticAgreement. Its seed corpus is seed 0 of
// each shape; -fuzz varies the seed freely and clamps each budget field
// into the range the shapes span.
func FuzzCheckerVsAxiomatic(f *testing.F) {
	for _, s := range agreementShapes {
		f.Add(uint64(0), s.b.Threads, s.b.Ops, s.b.Addrs, s.b.Fences, s.b.RMWs)
	}
	f.Fuzz(func(t *testing.T, seed uint64, threads, ops, addrs, fences, rmws int) {
		checkAgreement(t, seed, Budget{
			Threads: min(max(threads, 2), 4),
			Ops:     min(max(ops, 3), 6),
			Addrs:   min(max(addrs, 1), 3),
			Fences:  min(max(fences, 0), 1),
			RMWs:    min(max(rmws, 0), 3),
		})
	})
}

// TestCrossValidateDetectsOpVsAxDivergence: feeding the X86 operational set
// against the 370 axiomatic model on n6 must produce mismatches — the
// detector is live, not vacuously green.
func TestCrossValidateDetectsOpVsAxDivergence(t *testing.T) {
	p, err := Parse(`
init x=0 y=0
st x, 1    | st y, 2
ld x -> a0 | st x, 2
ld y -> a1 | .
observe [x] [y]
`)
	if err != nil {
		t.Fatal(err)
	}
	op := checker.Enumerate(p, checker.X86TSO)
	ax, err := axiomatic.Enumerate(p, axiomatic.TSO370)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(op, ax) {
		t.Fatal("x86 operational and 370 axiomatic unexpectedly agree on n6; the oracle would be blind")
	}
}

// TestWitnessStaysWithinModel runs the full three-way validation, simulator
// included, on a few seeds: every witnessed outcome must be model-allowed.
func TestWitnessStaysWithinModel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator witness sweep is slow")
	}
	opt := Options{
		Models:      []config.Model{config.X86, config.SLFSoSKey370},
		SimIters:    2,
		Pressure:    3,
		SmallConfig: true,
		SimSeed:     1,
	}
	b := DefaultBudget()
	for seed := uint64(1); seed <= 6; seed++ {
		p := Generate(seed, b)
		rep, err := CrossValidate(p, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Ok() {
			text, _ := Render(p)
			t.Fatalf("seed %d: %v\nprogram:\n%s", seed, rep.Mismatches[0], text)
		}
	}
}

// TestRunManyDeterministicAcrossJobs: the parallel driver returns identical
// reports regardless of worker count, and program i is reproduced by seed
// base+i alone.
func TestRunManyDeterministicAcrossJobs(t *testing.T) {
	b := DefaultBudget()
	opt := Options{} // model legs only: fast and fully deterministic
	serial := RunMany(100, 20, b, opt, 1)
	parallel := RunMany(100, 20, b, opt, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Seed != p.Seed || s.Index != p.Index {
			t.Fatalf("report %d: seed/index differ", i)
		}
		if !reflect.DeepEqual(s.Rep.OpCount, p.Rep.OpCount) ||
			s.Rep.Interesting != p.Rep.Interesting ||
			!reflect.DeepEqual(s.Rep.Mismatches, p.Rep.Mismatches) {
			t.Fatalf("report %d differs across jobs", i)
		}
	}
	// Reproduction: program i of the batch == program 0 of a -count 1 run
	// seeded with its seed.
	solo := RunMany(serial[7].Seed, 1, b, opt, 1)
	if !reflect.DeepEqual(solo[0].Rep.OpCount, serial[7].Rep.OpCount) {
		t.Fatal("seed-based reproduction changed the program")
	}
	t1, _ := Render(Generate(serial[7].Seed, b))
	t2, _ := Render(solo[0].Rep.Prog)
	if t1 != t2 {
		t.Fatal("solo run generated a different program")
	}
}
