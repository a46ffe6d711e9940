// The three-way cross-validation driver.
package fuzz

import (
	"fmt"

	"sesa/internal/axiomatic"
	"sesa/internal/checker"
	"sesa/internal/config"
	"sesa/internal/isa"
	"sesa/internal/litmus"
	"sesa/internal/sim"
)

// Mismatch kinds.
const (
	// KindSimForbidden: the timing simulator witnessed an outcome the
	// machine's bounding operational model forbids.
	KindSimForbidden = "sim-forbidden"
	// KindOpVsAx: the operational checker and the axiomatic enumerator
	// disagree on a model's allowed-outcome set.
	KindOpVsAx = "checker-vs-axiomatic"
)

// Mismatch is one cross-validation failure.
type Mismatch struct {
	// Kind is KindSimForbidden or KindOpVsAx.
	Kind string
	// Model names the machine (sim-forbidden) or the operational/axiomatic
	// pair (checker-vs-axiomatic).
	Model string
	// Outcome is the disputed outcome.
	Outcome checker.Outcome
	// Detail says which side produced or missed the outcome.
	Detail string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("%s %s [%s]: %s", m.Kind, m.Model, m.Outcome, m.Detail)
}

// Options configures one cross-validation.
type Options struct {
	// Models are the machine models to witness-run on the timing
	// simulator; empty skips the simulator leg.
	Models []config.Model
	// SimIters is the number of simulator iterations per (model, variant,
	// config) cell.
	SimIters int
	// Pressure adds the store-buffer-pressure variant with this many
	// scratch stores per forwarding thread (0 disables the variant).
	Pressure int
	// SmallConfig also runs every model on the tiny-cache configuration,
	// whose evictions perturb timing differently from the Table III
	// machine.
	SmallConfig bool
	// SimSeed is the base seed for the witness search's timing
	// exploration.
	SimSeed uint64
	// StepMode selects the simulation clock for witness runs.
	StepMode config.StepMode
}

// DefaultOptions is the CI witness budget: all five machines, a handful of
// timing samples per variant, SB pressure on, both configurations.
func DefaultOptions() Options {
	return Options{
		Models:      config.AllModels(),
		SimIters:    3,
		Pressure:    3,
		SmallConfig: true,
		SimSeed:     1,
	}
}

// modelPair is one model's operational and axiomatic formulations.
type modelPair struct {
	op checker.Model
	ax axiomatic.Model
}

// modelPairs are the operational/axiomatic formulations compared pairwise.
var modelPairs = []modelPair{
	{checker.SC, axiomatic.SC},
	{checker.TSO370, axiomatic.TSO370},
	{checker.X86TSO, axiomatic.X86TSO},
}

// Report is the result of cross-validating one program.
type Report struct {
	Prog checker.Program
	// OpCount[m] is the operational model's allowed-outcome count, indexed
	// by checker.Model.
	OpCount [3]int
	// Witnessed counts the distinct simulator-observed outcomes across all
	// models and variants.
	Witnessed int
	// Interesting reports whether the program observably separates x86-TSO
	// from store-atomic 370 (the paper's store-atomicity gap).
	Interesting bool
	// Mismatches lists every cross-validation failure, deterministically
	// ordered.
	Mismatches []Mismatch
}

// Ok reports whether all three engines agreed.
func (r *Report) Ok() bool { return len(r.Mismatches) == 0 }

// CrossValidate checks one program three ways: the operational checker
// against the axiomatic enumerator (exact outcome-set equality per model),
// and the timing simulator's witnessed outcomes against the operational
// model bounding each machine (set inclusion — the simulator is one
// implementation, so it witnesses a subset). A program no engine can run is
// an error before any engine runs (see checkProgram).
func CrossValidate(p checker.Program, opt Options) (*Report, error) {
	if err := checkProgram(p); err != nil {
		return nil, err
	}
	r := &Report{Prog: p}

	var opSets [3]checker.OutcomeSet
	for _, pr := range modelPairs {
		// The axiomatic leg goes first: it rejects a program it cannot
		// enumerate before the operational search spends any time on it.
		axSet, err := axiomatic.Enumerate(p, pr.ax)
		if err != nil {
			return nil, err
		}
		opSet := checker.Enumerate(p, pr.op)
		opSets[pr.op] = opSet
		r.OpCount[pr.op] = len(opSet)
		if len(opSet) == len(axSet) && subset(opSet, axSet) {
			continue
		}
		pair := fmt.Sprintf("%s/%s", pr.op, pr.ax)
		for _, o := range opSet.Sorted() {
			if !axSet.Contains(o) {
				r.Mismatches = append(r.Mismatches, Mismatch{
					Kind: KindOpVsAx, Model: pair, Outcome: o,
					Detail: "operational allows, axiomatic forbids"})
			}
		}
		for _, o := range axSet.Sorted() {
			if !opSet.Contains(o) {
				r.Mismatches = append(r.Mismatches, Mismatch{
					Kind: KindOpVsAx, Model: pair, Outcome: o,
					Detail: "axiomatic allows, operational forbids"})
			}
		}
	}

	// The store-atomicity gap: an x86-TSO outcome 370 forbids.
	for o := range opSets[checker.X86TSO] {
		if !opSets[checker.TSO370].Contains(o) {
			r.Interesting = true
			break
		}
	}

	// One machine per configuration serves every model, variant and
	// iteration of the witness search: each run resets it. The variants are
	// built once for every model.
	var machines []*sim.Machine
	var variants []litmus.Test
	if opt.SimIters > 0 && len(opt.Models) > 0 {
		for _, cfg := range witnessConfigs(len(p.Threads), opt.Models[0], opt) {
			m, err := sim.New(cfg, "fuzz")
			if err != nil {
				return nil, err
			}
			machines = append(machines, m)
		}
		variants = witnessVariants(p, opt)
	}
	witnessed := make(checker.OutcomeSet)
	for mi, m := range opt.Models {
		allowed := opSets[litmus.CheckerModelFor(m)]
		observed, err := witness(variants, m, mi, opt, machines)
		if err != nil {
			return nil, err
		}
		for o := range observed {
			witnessed[o] = true
		}
		if len(observed) <= len(allowed) && subset(observed, allowed) {
			continue
		}
		for _, o := range observed.Sorted() {
			if !allowed.Contains(o) {
				r.Mismatches = append(r.Mismatches, Mismatch{
					Kind: KindSimForbidden, Model: m.String(), Outcome: o,
					Detail: fmt.Sprintf("simulator witnessed an outcome %s forbids",
						litmus.CheckerModelFor(m))})
			}
		}
	}
	r.Witnessed = len(witnessed)
	return r, nil
}

// subset reports whether every outcome of a is in b. It reads the sets in
// map order, so CrossValidate sorts a set only to report a mismatch.
func subset(a, b checker.OutcomeSet) bool {
	for o := range a {
		if !b.Contains(o) {
			return false
		}
	}
	return true
}

// checkProgram rejects a program the engines cannot run: a thread that
// fails isa.Program.Validate (a register beyond the file, an unsupported
// size, a misaligned address), or a register observable that names a
// thread or register out of range.
func checkProgram(p checker.Program) error {
	for ti, th := range p.Threads {
		if err := th.Validate(); err != nil {
			return fmt.Errorf("fuzz: thread %d: %w", ti, err)
		}
	}
	for _, ro := range p.Regs {
		if ro.Thread < 0 || ro.Thread >= len(p.Threads) {
			return fmt.Errorf("fuzz: observable %s names thread %d of a %d-thread program", ro.Name, ro.Thread, len(p.Threads))
		}
		if ro.Reg >= isa.NumRegs {
			return fmt.Errorf("fuzz: observable %s names register %d, beyond r%d", ro.Name, ro.Reg, isa.NumRegs-1)
		}
	}
	return nil
}

// witnessConfigs returns the witness search's base configurations for model
// m: the Table III machine and, with SmallConfig, the tiny-cache machine.
func witnessConfigs(cores int, m config.Model, opt Options) []config.Config {
	configs := []config.Config{config.Skylake(cores, m)}
	if opt.SmallConfig {
		configs = append(configs, config.Small(cores, m))
	}
	for i := range configs {
		configs[i].StepMode = opt.StepMode
	}
	return configs
}

// witnessVariants returns the programs the witness search runs for p: p
// itself and, with Pressure, its store-buffer-pressure variant.
func witnessVariants(p checker.Program, opt Options) []litmus.Test {
	base := litmus.Test{Name: "fuzz", Prog: p}
	variants := []litmus.Test{base}
	if opt.Pressure > 0 {
		variants = append(variants, litmus.WithSBPressure(base, opt.Pressure))
	}
	return variants
}

// witness runs the timing-simulator witness search for one machine model:
// SimIters timing samples per variant (witnessVariants) per configuration
// (Table III, and the tiny-cache machine), each iteration with its own
// jitter seed and start stagger. machines holds one machine per
// configuration, in witnessConfigs order.
func witness(variants []litmus.Test, m config.Model, modelIdx int, opt Options, machines []*sim.Machine) (checker.OutcomeSet, error) {
	if opt.SimIters <= 0 {
		return nil, nil
	}
	configs := witnessConfigs(len(variants[0].Prog.Threads), m, opt)

	observed := make(checker.OutcomeSet)
	for vi, v := range variants {
		for ci, cfg := range configs {
			seed := opt.SimSeed + uint64(modelIdx)*1000003 + uint64(vi)*101 + uint64(ci)*17
			res, err := litmus.RunConfigTraced(machines[ci], v, cfg, opt.SimIters, seed, nil)
			if err != nil {
				return nil, err
			}
			for o := range res.Outcomes {
				observed[o] = true
			}
		}
	}
	return observed, nil
}

// ProgramReport pairs a generated program's seed with its report.
type ProgramReport struct {
	// Index is the program's position in the run; Seed the generator seed
	// that reproduces it (sesa-fuzz -seed <Seed> -count 1).
	Index int
	Seed  uint64
	Rep   *Report
	Err   error
}

// RunMany generates and cross-validates count programs on jobs parallel
// workers. Program i uses generator seed baseSeed+i, so any program of a
// larger run is reproduced alone by a run with -count 1 and its seed.
// Results are returned in index order regardless of the worker count, and
// every worker's work is self-contained, so output is byte-identical across
// jobs values.
func RunMany(baseSeed uint64, count int, b Budget, opt Options, jobs int) []ProgramReport {
	if jobs < 1 {
		jobs = 1
	}
	out := make([]ProgramReport, count)
	idx := make(chan int)
	done := make(chan struct{})
	for w := 0; w < jobs; w++ {
		go func() {
			for i := range idx {
				seed := baseSeed + uint64(i)
				p := Generate(seed, b)
				rep, err := CrossValidate(p, opt)
				out[i] = ProgramReport{Index: i, Seed: seed, Rep: rep, Err: err}
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < count; i++ {
		idx <- i
	}
	close(idx)
	for w := 0; w < jobs; w++ {
		<-done
	}
	return out
}
