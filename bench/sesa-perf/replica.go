package main

// The traced replica re-executes a workload with a timer at every layer
// boundary. It rebuilds sim.Machine from the public sched, noc, mem and core
// API and replicates sim.Machine.RunContext (deliver the cycle's events, tick
// every core, skip ahead when every core is quiescent, finish), so each
// layer's time is measured from outside without touching the program. The
// equivalence test pins that the replica produces statistics identical to
// runner.Pool's and cross-validation reports identical to fuzz.CrossValidate.

import (
	"fmt"
	"time"

	"sesa/internal/axiomatic"
	"sesa/internal/checker"
	"sesa/internal/config"
	"sesa/internal/core"
	"sesa/internal/fuzz"
	"sesa/internal/isa"
	"sesa/internal/litmus"
	"sesa/internal/mem"
	"sesa/internal/noc"
	"sesa/internal/runner"
	"sesa/internal/sched"
	"sesa/internal/sim"
	"sesa/internal/stats"
	"sesa/internal/trace"
)

// Host timers, in nanoseconds. Inclusive: tLoop contains tDeliver, tTick
// and tSkip; tDeliver contains tHandle, which contains tCallback.
const (
	tNew       = iota // machine construction and program installation
	tLoop             // the run loop, finish included
	tDeliver          // clock.Deliver and the finish drain
	tHandle           // mem.Hierarchy.HandleBatch
	tCallback         // mem.Client callbacks into the cores
	tTick             // core.Tick of unfinished cores
	tSkip             // Horizon, SkipCycles and AdvanceTo
	tGenerate         // fuzz.Generate
	tChecker          // checker.Enumerate
	tAxiomatic        // axiomatic.Enumerate
	tWitness          // simulator witness runs
	numTimers
)

// Counts: host-side work, then the deterministic simulated counters.
const (
	cMachines = iota
	cSteps
	cTicks
	cProgressed
	cCallbacks
	cEvents
	cBatches
	cJumps
	cSkipped
	cCycles
	cRetired
	cReexec
	cSquashes
	cGateStall
	cSQSearches
	cL1Hits
	cL1Misses
	cL3Misses
	cMemAccesses
	cInvals
	cUpgrades
	cOwnerFwd
	cEvictions
	cCtrlMsgs
	cDataMsgs
	cFlits
	cCheckerCalls
	cAxiomaticCalls
	cLitmusRuns
	numCounts
)

// tally aggregates one job's (or one pass's) timers and counts.
type tally struct {
	ns [numTimers]int64
	n  [numCounts]uint64
}

func (t *tally) add(o *tally) {
	for i := range t.ns {
		t.ns[i] += o.ns[i]
	}
	for i := range t.n {
		t.n[i] += o.n[i]
	}
}

func (t *tally) since(timer int, start int64) { t.ns[timer] += nanotime() - start }

// epoch anchors nanotime.
var epoch = time.Now()

// nanotime reads the monotonic clock in nanoseconds since epoch. It costs
// one clock read where time.Now costs two (wall and monotonic), which halves
// the replica's timer overhead.
func nanotime() int64 { return int64(time.Since(epoch)) }

// timedHandler is the sched.Handler the replica delivers events through: the
// hierarchy, timed per batch.
type timedHandler struct {
	hier *mem.Hierarchy
	t    *tally
}

func (h *timedHandler) HandleBatch(evs []sched.Event) {
	start := nanotime()
	h.hier.HandleBatch(evs)
	h.t.since(tHandle, start)
	h.t.n[cBatches]++
	h.t.n[cEvents] += uint64(len(evs))
}

// timedClient forwards the hierarchy's notifications to a core, timing each.
type timedClient struct {
	c *core.Core
	t *tally
}

func (tc *timedClient) done(start int64) {
	tc.t.since(tCallback, start)
	tc.t.n[cCallbacks]++
}

func (tc *timedClient) OnLineRemoved(line, when uint64, eviction bool) {
	start := nanotime()
	tc.c.OnLineRemoved(line, when, eviction)
	tc.done(start)
}

func (tc *timedClient) OnLoadDone(ref, val, when uint64) {
	start := nanotime()
	tc.c.OnLoadDone(ref, val, when)
	tc.done(start)
}

func (tc *timedClient) OnStoreWrote(ref, when uint64) {
	start := nanotime()
	tc.c.OnStoreWrote(ref, when)
	tc.done(start)
}

func (tc *timedClient) OnRMWDone(ref, old, when uint64) {
	start := nanotime()
	tc.c.OnRMWDone(ref, old, when)
	tc.done(start)
}

// machine is sim.Machine rebuilt from its public parts.
type machine struct {
	cfg   config.Config
	clock *sched.Clock
	net   *noc.Network
	hier  *mem.Hierarchy
	cores []*core.Core
	st    *stats.Machine
	h     timedHandler
	t     *tally
}

// build replicates sim.New, InitMemory and SetProgram.
func build(cfg config.Config, name string, init map[uint64]uint64, progs []isa.Program, t *tally) (*machine, error) {
	start := nanotime()
	defer t.since(tNew, start)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(progs) > cfg.Cores {
		return nil, fmt.Errorf("workload %s has %d programs but machine has %d cores", name, len(progs), cfg.Cores)
	}
	m := &machine{
		cfg:   cfg,
		clock: sched.NewClock(cfg.Cores),
		net:   noc.New(cfg.NoC, cfg.Jitter, cfg.JitterSeed),
		st:    stats.New(cfg.Model.String(), name, cfg.Cores),
		t:     t,
	}
	m.hier = mem.NewHierarchy(cfg.Cores, cfg.Mem, m.net, &m.clock.EventQueue)
	m.h = timedHandler{hier: m.hier, t: t}
	m.cores = make([]*core.Core, cfg.Cores)
	for i := range m.cores {
		c := core.New(i, cfg, m.hier, &m.st.Cores[i])
		m.hier.SetClient(i, &timedClient{c: c, t: t})
		m.cores[i] = c
	}
	for a, v := range init {
		m.hier.WriteImage(a, 8, v)
	}
	for i, p := range progs {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		m.cores[i].SetProgram(p)
		words := make(map[uint64]struct{})
		lines := make(map[uint64]struct{})
		for _, in := range p {
			if in.Op == isa.OpLoad || in.Op == isa.OpStore || in.Op == isa.OpRMW {
				words[in.Addr&^7] = struct{}{}
				lines[m.hier.LineAddr(in.Addr)] = struct{}{}
			}
		}
		m.hier.Reserve(len(words), len(lines))
	}
	t.n[cMachines]++
	return m, nil
}

func (m *machine) done() bool {
	for _, c := range m.cores {
		if !c.Done() {
			return false
		}
	}
	return true
}

// run replicates sim.Machine.RunContext without cancellation. Timer reads
// are chained: the stamp that ends one core's tick starts the next, so a
// step costs one clock read per unfinished core plus two.
func (m *machine) run(maxCycles uint64) error {
	t := m.t
	start := nanotime()
	defer func() {
		t.since(tLoop, start)
		m.collect()
	}()
	skip := m.cfg.StepMode == config.StepSkip
	for _, c := range m.cores {
		c.SetWakeHints(skip)
	}
	for !m.done() {
		if m.clock.Now() >= maxCycles {
			m.finish()
			return &sim.TimeoutError{MaxCycles: maxCycles, Model: m.cfg.Model.String(), Workload: m.st.Workload}
		}
		t.n[cSteps]++
		now := m.clock.Now()
		mark := nanotime()
		m.clock.Deliver(&m.h)
		next := nanotime()
		t.ns[tDeliver] += next - mark
		mark = next
		quiet := true
		for i, c := range m.cores {
			if c.Done() {
				// A finished core's Tick is a no-op; it is called, untimed,
				// only to keep the replica step-for-step identical.
				_, wake := c.Tick(now)
				m.clock.SetWake(i, wake)
				continue
			}
			progressed, wake := c.Tick(now)
			next = nanotime()
			t.ns[tTick] += next - mark
			mark = next
			t.n[cTicks]++
			if progressed {
				t.n[cProgressed]++
			}
			quiet = quiet && !progressed
			m.clock.SetWake(i, wake)
		}
		m.clock.Tick()
		if skip && quiet {
			m.skipAhead(maxCycles)
		}
	}
	m.finish()
	return nil
}

// skipAhead replicates sim.Machine.skipAhead after a quiescent step.
func (m *machine) skipAhead(bound uint64) {
	cur := m.clock.Now()
	if cur >= bound {
		return
	}
	start := nanotime()
	if target := m.clock.Horizon(bound); target > cur {
		for _, c := range m.cores {
			c.SkipCycles(target - cur)
		}
		m.clock.AdvanceTo(target)
		m.t.n[cJumps]++
		m.t.n[cSkipped] += target - cur
	}
	m.t.since(tSkip, start)
}

// finish replicates sim.Machine.finish: drain residual events, record the
// cycle count and the interconnect traffic.
func (m *machine) finish() {
	start := nanotime()
	for m.clock.Len() > 0 {
		next, _ := m.clock.NextCycle()
		m.clock.RunUntil(next, &m.h)
	}
	m.t.since(tDeliver, start)
	m.st.Cycles = m.clock.Now()
	tr := m.net.Traffic
	m.st.NoC = stats.NoCTraffic{ControlMsgs: tr.ControlMsgs, DataMsgs: tr.DataMsgs,
		ControlFlits: tr.ControlFlits, DataFlits: tr.DataFlits}
}

// collect adds the machine's simulated counters to its tally.
func (m *machine) collect() {
	n := &m.t.n
	tot := m.st.Total()
	n[cCycles] += m.st.Cycles
	n[cRetired] += tot.RetiredInsts
	n[cReexec] += tot.ReexecInsts
	n[cSquashes] += tot.Squashes + tot.DepSquashes
	n[cGateStall] += tot.GateStallCycles
	n[cSQSearches] += tot.SQSearches
	hs := m.hier.Stats
	n[cL1Hits] += hs.L1Hits
	n[cL1Misses] += hs.L1Misses
	n[cL3Misses] += hs.L3Misses
	n[cMemAccesses] += hs.MemAccesses
	n[cInvals] += hs.InvalsSent
	n[cUpgrades] += hs.Upgrades
	n[cOwnerFwd] += hs.OwnerForwards
	n[cEvictions] += hs.L1Evictions + hs.L2Evictions + hs.L3Evictions + hs.DirEvictions
	n[cCtrlMsgs] += m.net.Traffic.ControlMsgs
	n[cDataMsgs] += m.net.Traffic.DataMsgs
	n[cFlits] += m.net.Traffic.Flits
}

// tracedJob replicates runner.Pool's runOne for a job without Config,
// tracing or histograms.
func tracedJob(j runner.Job, cache *trace.Cache, t *tally) (*stats.Machine, error) {
	cfg := config.Default(j.Model)
	cfg.StepMode = j.StepMode
	w := cache.Workload(j.Profile, cfg.Cores, j.InstPerCore, j.Seed)
	m, err := build(cfg, w.Name, nil, w.Programs, t)
	if err != nil {
		return nil, err
	}
	return m.st, m.run(j.DefaultMaxCycles())
}

// modelPairs are the operational/axiomatic pairs fuzz.CrossValidate
// compares, in its order.
var modelPairs = []struct {
	op checker.Model
	ax axiomatic.Model
}{
	{checker.SC, axiomatic.SC},
	{checker.TSO370, axiomatic.TSO370},
	{checker.X86TSO, axiomatic.X86TSO},
}

// tracedProgram replicates fuzz.RunMany's work for one program — Generate,
// then CrossValidate — timing the generator, each engine and the witness
// runs separately.
func tracedProgram(seed uint64, opt fuzz.Options, t *tally) (*fuzz.Report, error) {
	start := nanotime()
	p := fuzz.Generate(seed, fuzz.DefaultBudget())
	t.since(tGenerate, start)
	r := &fuzz.Report{Prog: p}

	var opSets [3]checker.OutcomeSet
	for _, pr := range modelPairs {
		start := nanotime()
		opSets[pr.op] = checker.Enumerate(p, pr.op)
		t.since(tChecker, start)
		t.n[cCheckerCalls]++
		r.OpCount[pr.op] = len(opSets[pr.op])
	}
	for _, pr := range modelPairs {
		start := nanotime()
		axSet, err := axiomatic.Enumerate(p, pr.ax)
		t.since(tAxiomatic, start)
		t.n[cAxiomaticCalls]++
		if err != nil {
			return nil, err
		}
		pair := fmt.Sprintf("%s/%s", pr.op, pr.ax)
		for _, o := range opSets[pr.op].Sorted() {
			if !axSet.Contains(o) {
				r.Mismatches = append(r.Mismatches, fuzz.Mismatch{Kind: fuzz.KindOpVsAx, Model: pair, Outcome: o,
					Detail: "operational allows, axiomatic forbids"})
			}
		}
		for _, o := range axSet.Sorted() {
			if !opSets[pr.op].Contains(o) {
				r.Mismatches = append(r.Mismatches, fuzz.Mismatch{Kind: fuzz.KindOpVsAx, Model: pair, Outcome: o,
					Detail: "axiomatic allows, operational forbids"})
			}
		}
	}
	start = nanotime()
	r.Interesting = len(checker.Compare(p, checker.X86TSO, checker.TSO370)) > 0
	t.since(tChecker, start)
	t.n[cCheckerCalls] += 2

	witnessed := make(checker.OutcomeSet)
	for mi, m := range opt.Models {
		allowed := opSets[litmus.CheckerModelFor(m)]
		observed, err := witness(p, m, mi, opt, t)
		if err != nil {
			return nil, err
		}
		for _, o := range observed.Sorted() {
			witnessed[o] = true
			if !allowed.Contains(o) {
				r.Mismatches = append(r.Mismatches, fuzz.Mismatch{Kind: fuzz.KindSimForbidden, Model: m.String(),
					Outcome: o, Detail: fmt.Sprintf("simulator witnessed an outcome %s forbids", litmus.CheckerModelFor(m))})
			}
		}
	}
	r.Witnessed = len(witnessed)
	return r, nil
}

// witness replicates the fuzzer's witness search for one machine model over
// the same (variant, configuration) cells and seeds.
func witness(p checker.Program, m config.Model, modelIdx int, opt fuzz.Options, t *tally) (checker.OutcomeSet, error) {
	if opt.SimIters <= 0 {
		return nil, nil
	}
	base := litmus.Test{Name: "fuzz", Prog: p}
	variants := []litmus.Test{base}
	if opt.Pressure > 0 {
		variants = append(variants, litmus.WithSBPressure(base, opt.Pressure))
	}
	cores := len(p.Threads)
	configs := []config.Config{config.Skylake(cores, m)}
	if opt.SmallConfig {
		configs = append(configs, config.Small(cores, m))
	}
	observed := make(checker.OutcomeSet)
	for vi, v := range variants {
		for ci, cfg := range configs {
			cfg.StepMode = opt.StepMode
			seed := opt.SimSeed + uint64(modelIdx)*1000003 + uint64(vi)*101 + uint64(ci)*17
			if err := witnessRuns(v, cfg, opt.SimIters, seed, observed, t); err != nil {
				return nil, err
			}
		}
	}
	return observed, nil
}

// witnessRuns replicates litmus.RunConfigTraced: iters runs, each with its
// own jitter seed and start stagger, adding every final outcome to observed.
func witnessRuns(tst litmus.Test, base config.Config, iters int, seedBase uint64, observed checker.OutcomeSet, t *tally) error {
	start := nanotime()
	defer t.since(tWitness, start)
	rng := seedBase*2654435761 + 1
	for it := 0; it < iters; it++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		cfg := base
		cfg.Jitter = 9
		cfg.JitterSeed = rng
		progs := make([]isa.Program, len(tst.Prog.Threads))
		for ti, prog := range tst.Prog.Threads {
			progs[ti] = stagger(prog, int(rng>>16)%7+ti%3)
		}
		m, err := build(cfg, tst.Name, tst.Prog.Init, progs, t)
		if err != nil {
			return err
		}
		if err := m.run(1_000_000); err != nil {
			return err
		}
		t.n[cLitmusRuns]++
		observed[checker.RenderOutcome(tst.Prog, finalState{m})] = true
	}
	return nil
}

// stagger prepends n dependent ALU ops, as the litmus runner does, so that
// thread start times differ across iterations.
func stagger(p isa.Program, n int) isa.Program {
	out := make(isa.Program, 0, len(p)+n)
	for i := 0; i < n; i++ {
		out = append(out, isa.ALUImm(31, 31, 1, 3))
	}
	return append(out, p...)
}

// finalState reads a finished machine's observables for the checker.
type finalState struct{ m *machine }

func (f finalState) Reg(thread int, r isa.Reg) uint64 { return f.m.cores[thread].RegValue(r) }
func (f finalState) Mem(addr uint64) uint64           { return f.m.hier.ReadImage(addr, 8) }
