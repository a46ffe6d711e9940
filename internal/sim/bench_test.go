package sim

import (
	"math"
	"testing"

	"sesa/internal/config"
	"sesa/internal/trace"
)

// benchMachine builds a warm machine on the barnes workload: programs
// installed, predictors and tables past their cold-start transient. hints
// sets the cores' wake hints: off for the naive stepper, whose cores run
// the pipeline on every tick, and on for the skip clock, whose quiescent
// cores sleep.
func benchMachine(b *testing.B, n int, hints bool) *Machine {
	return benchMachineModel(b, n, config.X86, hints)
}

// benchMachineModel is benchMachine under an arbitrary consistency policy,
// so the perf-guard can pin the policy indirection itself at 0 allocs/op.
func benchMachineModel(b *testing.B, n int, model config.Model, hints bool) *Machine {
	b.Helper()
	p, ok := trace.Lookup("barnes")
	if !ok {
		b.Fatal("barnes workload missing")
	}
	cfg := config.Default(model)
	m, err := New(cfg, "barnes")
	if err != nil {
		b.Fatal(err)
	}
	w := trace.Build(p, cfg.Cores, n, 42)
	for c, prog := range w.Programs {
		if err := m.SetProgram(c, prog); err != nil {
			b.Fatal(err)
		}
	}
	for c := 0; c < cfg.Cores; c++ {
		m.Core(c).SetWakeHints(hints)
	}
	for i := 0; i < 20_000 && !m.Done(); i++ {
		m.Step()
	}
	if m.Done() {
		b.Fatal("workload finished during warmup")
	}
	return m
}

// BenchmarkMachineStepNaive is the hot loop itself: one naive-mode machine
// step — core.Tick on every core, with wake hints off as RunContext sets
// them for the naive stepper, plus batched event delivery. The CI
// perf-guard pins its allocs/op at zero.
func BenchmarkMachineStepNaive(b *testing.B) {
	m := benchMachine(b, 300_000, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Done() {
			b.StopTimer()
			m = benchMachine(b, 300_000, false)
			b.StartTimer()
		}
		m.Step()
	}
}

// BenchmarkMachineStepSkip is one iteration of the skip clock's loop: a
// machine step with wake hints on, in which quiescent cores sleep, and the
// jump that follows a fully quiescent one. The CI perf-guard pins its
// allocs/op at zero.
func BenchmarkMachineStepSkip(b *testing.B) {
	m := benchMachine(b, 300_000, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Done() {
			b.StopTimer()
			m = benchMachine(b, 300_000, true)
			b.StartTimer()
		}
		m.Step()
		m.skipAhead(math.MaxUint64)
	}
}

// BenchmarkMachineStepNaivePolicy runs the same hot loop under three more
// machines, each taking per-cycle branches of its registry row that x86
// never takes: Louvre's fence bypass (PastFences); RCP's invisible issue,
// where each load issuing to memory asks the snoop's speculation test at
// its LQ position, and its retirement validation (Invisible); and
// 370-NoSpec's blanket enforcement, whose loads park on the store they wait
// for. The perf-guard pins them at 0 allocs/op too (the regex
// `MachineStepNaive` matches the sub-benchmarks).
func BenchmarkMachineStepNaivePolicy(b *testing.B) {
	for _, model := range []config.Model{config.Louvre370, config.RCP370, config.NoSpec370} {
		b.Run(model.String(), func(b *testing.B) {
			m := benchMachineModel(b, 300_000, model, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m.Done() {
					b.StopTimer()
					m = benchMachineModel(b, 300_000, model, false)
					b.StartTimer()
				}
				m.Step()
			}
		})
	}
}

// BenchmarkSkipCyclesReplay is the two-level clock's bulk replay: applying
// one skipped quiescent cycle to every core. The CI perf-guard pins its
// allocs/op at zero.
func BenchmarkSkipCyclesReplay(b *testing.B) {
	m := benchMachine(b, 300_000, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.bulkTick(1)
	}
}
