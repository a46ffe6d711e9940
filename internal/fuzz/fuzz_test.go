package fuzz

import (
	"reflect"
	"strings"
	"testing"

	"sesa/internal/axiomatic"
	"sesa/internal/checker"
	"sesa/internal/config"
	"sesa/internal/isa"
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
	p, err := Parse(n6Text)
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

// n6Text is the paper's n6 (Fig. 2) in the text format.
const n6Text = `
init x=0 y=0
st x, 1    | st y, 2
ld x -> a0 | st x, 2
ld y -> a1 | .
observe [x] [y]
`

// TestCrossValidateReportsMismatchesSorted: CrossValidate compares sets by
// membership and sorts them only to report a difference, so a report still
// lists each pair's and each machine's mismatches in outcome order. Pairing
// x86-TSO's operational checker with the 370 axiomatic enumerator must
// report n6's store-atomicity gap, as Compare lists it; with no x86-TSO
// pair, every outcome the x86 machine witnesses is outside its (empty)
// bound and must be reported, in order.
func TestCrossValidateReportsMismatchesSorted(t *testing.T) {
	p, err := Parse(n6Text)
	if err != nil {
		t.Fatal(err)
	}
	defer func(saved []modelPair) { modelPairs = saved }(modelPairs)

	modelPairs = []modelPair{{checker.X86TSO, axiomatic.TSO370}}
	rep, err := CrossValidate(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []checker.Outcome
	for _, m := range rep.Mismatches {
		if m.Kind != KindOpVsAx || m.Detail != "operational allows, axiomatic forbids" {
			t.Fatalf("unexpected mismatch %v", m)
		}
		got = append(got, m.Outcome)
	}
	if want := checker.Compare(p, checker.X86TSO, checker.TSO370); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("x86-TSO against 370 axiomatic reported %v, want %v", got, want)
	}

	modelPairs = []modelPair{{checker.SC, axiomatic.SC}, {checker.TSO370, axiomatic.TSO370}}
	opt := DefaultOptions()
	opt.Models = []config.Model{config.X86}
	rep, err = CrossValidate(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != rep.Witnessed || rep.Witnessed < 2 {
		t.Fatalf("%d mismatches for %d witnessed outcomes; want one per outcome, at least two", len(rep.Mismatches), rep.Witnessed)
	}
	for i, m := range rep.Mismatches {
		if m.Kind != KindSimForbidden || i > 0 && m.Outcome <= rep.Mismatches[i-1].Outcome {
			t.Fatalf("mismatch %d of %v is out of kind or order", i, rep.Mismatches)
		}
	}
}

// TestCrossValidateRejectsUnrunnable: a hand-built program that an engine
// cannot run is an error before any engine runs, not a panic.
func TestCrossValidateRejectsUnrunnable(t *testing.T) {
	build := func() checker.Program {
		return checker.Program{
			Threads: []isa.Program{{isa.StoreImm(VarAddr(0), 1)}, {isa.Load(1, VarAddr(0))}},
			Init:    map[uint64]uint64{VarAddr(0): 0},
			Regs:    []checker.RegObs{{Thread: 1, Reg: 1, Name: "a0"}},
		}
	}
	if rep, err := CrossValidate(build(), DefaultOptions()); err != nil || !rep.Ok() {
		t.Fatalf("the valid program: %v, %+v", err, rep)
	}
	for _, tc := range []struct {
		name string
		edit func(p *checker.Program)
		want string
	}{
		{"load into r32", func(p *checker.Program) { p.Threads[1][0].Dst = isa.NumRegs }, "thread 1"},
		{"misaligned store", func(p *checker.Program) { p.Threads[0][0].Addr += 4 }, "thread 0"},
		{"observable of thread 2", func(p *checker.Program) { p.Regs[0].Thread = 2 }, "thread 2"},
		{"observable of thread -1", func(p *checker.Program) { p.Regs[0].Thread = -1 }, "thread -1"},
		{"observable of r32", func(p *checker.Program) { p.Regs[0].Reg = isa.NumRegs }, "register 32"},
		{"observable of no register", func(p *checker.Program) { p.Regs[0].Reg = isa.RegNone }, "register 255"},
	} {
		p := build()
		tc.edit(&p)
		if _, err := CrossValidate(p, DefaultOptions()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want an error naming %q, got %v", tc.name, tc.want, err)
		}
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
