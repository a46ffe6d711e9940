package sim

import (
	"reflect"
	"testing"

	"sesa/internal/config"
	"sesa/internal/obs"
	"sesa/internal/stats"
	"sesa/internal/trace"
)

// runTimedOut runs a workload far past its cycle budget under the given step
// mode with interval metrics attached, and returns the machine after the
// timeout path has finished it.
func runTimedOut(t *testing.T, mode config.StepMode, maxCycles uint64) *Machine {
	t.Helper()
	p, _ := trace.Lookup("barnes")
	cfg := config.Default(config.X86)
	cfg.StepMode = mode
	m := newMachine(t, cfg, "barnes")
	w := trace.Build(p, cfg.Cores, 5_000, 42)
	for c, prog := range w.Programs {
		if err := m.SetProgram(c, prog); err != nil {
			t.Fatal(err)
		}
	}
	m.AttachTracer(obs.New(cfg.Cores, obs.Options{MetricsInterval: 64}))
	err := m.Run(maxCycles)
	if _, ok := err.(*TimeoutError); !ok {
		t.Fatalf("Run returned %T (%v), want *TimeoutError", err, err)
	}
	return m
}

// TestStepModesAgreeOnTimeout pins down the timeout exit: both steppers must
// drain residual events, capture the NoC traffic and emit the closing
// metrics sample, leaving identical statistics at the cut-off cycle. The
// bound is deliberately not a multiple of the metrics interval so the
// closing sample only exists if the finish path emits it.
func TestStepModesAgreeOnTimeout(t *testing.T) {
	const maxCycles = 1000 // not a multiple of the 64-cycle interval
	naive := runTimedOut(t, config.StepNaive, maxCycles)
	skip := runTimedOut(t, config.StepSkip, maxCycles)

	if naive.Stats.Cycles != maxCycles || skip.Stats.Cycles != maxCycles {
		t.Errorf("Stats.Cycles = %d (naive), %d (skip), want %d",
			naive.Stats.Cycles, skip.Stats.Cycles, maxCycles)
	}
	if !reflect.DeepEqual(naive.Stats, skip.Stats) {
		t.Errorf("timed-out statistics differ:\nnaive: %+v\nskip:  %+v", naive.Stats, skip.Stats)
	}
	if naive.Stats.NoC == (stats.NoCTraffic{}) {
		t.Error("timed-out run captured no NoC traffic; finish path must snapshot the network")
	}

	for _, m := range []*Machine{naive, skip} {
		samples := m.Tracer().Metrics().Samples
		if len(samples) == 0 {
			t.Fatal("no metric samples on the timeout path")
		}
		if last := samples[len(samples)-1]; last.Cycle != maxCycles {
			t.Errorf("final sample at cycle %d, want the closing sample at %d", last.Cycle, maxCycles)
		}
	}
	mn, ms := naive.Tracer().Metrics(), skip.Tracer().Metrics()
	if !reflect.DeepEqual(mn.Samples, ms.Samples) {
		t.Error("timeout metrics series differ between step modes")
	}
}

// stepEveryCore is Step as it was before finished cores left the loop:
// every core ticks every cycle, a finished one doing nothing.
func stepEveryCore(m *Machine) {
	now := m.clock.Now()
	m.clock.Deliver(m.hier)
	quiet := true
	for i, c := range m.cores {
		progressed, wake := c.Tick(now)
		quiet = quiet && !progressed
		m.clock.SetWake(i, wake)
	}
	m.quiet = quiet
	m.clock.Tick()
}

// runEveryCore runs m to the end with the naive stepper as it was before
// finished cores left the loop and quiescent cores slept: wake hints off,
// every core ticked every cycle, and Done asked of every core.
func runEveryCore(m *Machine) {
	for _, c := range m.cores {
		c.SetWakeHints(false)
	}
	for {
		done := true
		for _, c := range m.cores {
			done = done && c.Done()
		}
		if done {
			break
		}
		stepEveryCore(m)
	}
	m.finish()
}

// TestFinishedCoresLeaveTheLoop: a sequential job, one program on an
// 8-core machine whose seven other cores finish at cycle 0, under both
// steppers, and a machine stepped by hand after Reset and SetProgram, with
// an empty program on one core and none on three, end with the statistics
// of the old stepper that ticked every core every cycle.
func TestFinishedCoresLeaveTheLoop(t *testing.T) {
	p, _ := trace.Lookup("502.gcc_1")
	seq := trace.Build(p, 8, 3000, 42)
	for _, model := range []config.Model{config.X86, config.SLFSoSKey370, config.RCP370} {
		for _, mode := range []config.StepMode{config.StepSkip, config.StepNaive} {
			cfg := config.Default(model)
			cfg.StepMode = mode
			got, want := newMachine(t, cfg, seq.Name), newMachine(t, cfg, seq.Name)
			for _, m := range []*Machine{got, want} {
				if err := m.SetProgram(0, seq.Programs[0]); err != nil {
					t.Fatal(err)
				}
			}
			mustRun(t, got)
			runEveryCore(want)
			if !reflect.DeepEqual(got.Stats, want.Stats) || got.hier.Stats != want.hier.Stats {
				t.Errorf("%s, step mode %d: statistics differ from ticking every core:\n got %+v\nwant %+v",
					model, mode, got.Stats, want.Stats)
			}
		}
	}

	b, _ := trace.Lookup("barnes")
	par := trace.Build(b, 8, 1500, 7)
	cfg := config.Default(config.SLFSoSKey370)
	got := newMachine(t, cfg, par.Name)
	for c, prog := range par.Programs {
		if err := got.SetProgram(c, prog); err != nil {
			t.Fatal(err)
		}
	}
	mustRun(t, got)
	if err := got.Reset(cfg, par.Name); err != nil {
		t.Fatal(err)
	}
	want := newMachine(t, cfg, par.Name)
	for _, m := range []*Machine{got, want} {
		for c, prog := range par.Programs[:4] {
			if err := m.SetProgram(c, prog); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.SetProgram(4, nil); err != nil {
			t.Fatal(err)
		}
	}
	for !got.Done() {
		got.Step()
	}
	got.finish()
	runEveryCore(want)
	if !reflect.DeepEqual(got.Stats, want.Stats) || got.hier.Stats != want.hier.Stats {
		t.Errorf("hand-stepped after Reset: statistics differ from ticking every core:\n got %+v\nwant %+v",
			got.Stats, want.Stats)
	}

	// Empty programs finish their cores before any Step, so a machine that
	// has only those is done at cycle 0.
	if err := got.Reset(cfg, "empty"); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cfg.Cores; c++ {
		if err := got.SetProgram(c, nil); err != nil {
			t.Fatal(err)
		}
	}
	mustRun(t, got)
	if got.Stats.Cycles != 0 {
		t.Errorf("a machine with only empty programs ran %d cycles, want 0", got.Stats.Cycles)
	}
}
