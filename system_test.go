package sesa_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"sesa"
)

// loadDemo installs a small two-core program mix on sys.
func loadDemo(t *testing.T, sys *sesa.System) {
	t.Helper()
	progs := []sesa.Program{
		{
			sesa.StoreImm(0x100, 1),
			sesa.Load(1, 0x100),
			sesa.StoreImm(0x200, 2),
			sesa.Load(2, 0x200),
		},
		{
			sesa.Load(1, 0x200),
			sesa.StoreImm(0x300, 3),
			sesa.Load(2, 0x300),
		},
	}
	for i, p := range progs {
		if err := sys.LoadProgram(i, p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNewRejectsBadDirectory: a directory geometry the machine would divide
// by or size its sets with comes back from NewSystem as an error, not a
// panic.
func TestNewRejectsBadDirectory(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ways     int
		coverage float64
	}{
		{"zero ways", 0, 2},
		{"negative ways", -8, 2},
		{"zero coverage", 8, 0},
		{"negative coverage", 8, -1},
		{"NaN coverage", 8, math.NaN()},
		{"infinite coverage", 8, math.Inf(1)},
	} {
		cfg := sesa.SkylakeConfig(2, sesa.X86)
		cfg.Mem.DirectoryWays, cfg.Mem.DirectoryCoverage = tc.ways, tc.coverage
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: NewSystem panicked: %v", tc.name, r)
				}
			}()
			if _, err := sesa.NewSystem(cfg, ""); err == nil {
				t.Errorf("%s: NewSystem accepted directory ways %d, coverage %v", tc.name, tc.ways, tc.coverage)
			}
		}()
	}
}

// TestNewRejectsNegativeLatencies: a negative latency or penalty wraps
// through the machine's uint64 cycle arithmetic, so NewSystem refuses each one;
// zero stays legal, and a machine with all seven at zero runs barnes to
// completion.
func TestNewRejectsNegativeLatencies(t *testing.T) {
	fields := []struct {
		name string
		f    func(*sesa.Config) *int
	}{
		{"L1 hit", func(c *sesa.Config) *int { return &c.Mem.L1D.HitCycles }},
		{"L2 hit", func(c *sesa.Config) *int { return &c.Mem.L2.HitCycles }},
		{"L3 hit", func(c *sesa.Config) *int { return &c.Mem.L3.HitCycles }},
		{"memory", func(c *sesa.Config) *int { return &c.Mem.MemCycles }},
		{"pipeline depth", func(c *sesa.Config) *int { return &c.Core.PipelineDepth }},
		{"branch penalty", func(c *sesa.Config) *int { return &c.Core.BranchMispredictPenalty }},
		{"squash penalty", func(c *sesa.Config) *int { return &c.Core.SquashRefillPenalty }},
	}
	zero := sesa.SkylakeConfig(2, sesa.X86)
	for _, fd := range fields {
		cfg := sesa.SkylakeConfig(2, sesa.X86)
		*fd.f(&cfg) = -1
		if _, err := sesa.NewSystem(cfg, ""); err == nil {
			t.Errorf("NewSystem accepted a %s latency of -1", fd.name)
		}
		*fd.f(&zero) = 0
	}
	p, _ := sesa.LookupProfile("barnes")
	w, err := sesa.BuildWorkload(p, 2, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sesa.RunWorkload(sesa.X86, zero, w, 10_000_000)
	if err != nil {
		t.Fatalf("all latencies zero: %v", err)
	}
	if got := st.Total().RetiredInsts; got != 4000 {
		t.Errorf("all latencies zero: retired %d, want 4000", got)
	}
}

func TestNewWithStepModeAndSinks(t *testing.T) {
	cfg := sesa.SmallConfig(2, sesa.X86)
	tracer := sesa.NewTracer(cfg.Cores, sesa.TraceOptions{MetricsInterval: 100, Hists: true})
	naive := cfg
	naive.StepMode = sesa.StepNaive
	sys, err := sesa.NewSystem(naive, "sinks")
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachTracer(tracer)
	loadDemo(t, sys)
	if err := sys.Run(100_000); err != nil {
		t.Fatal(err)
	}

	// The naive stepper must match the default skip clock byte-for-byte.
	ref, err := sesa.NewSystem(cfg, "sinks")
	if err != nil {
		t.Fatal(err)
	}
	loadDemo(t, ref)
	if err := ref.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if sys.Cycles() != ref.Cycles() {
		t.Errorf("naive %d cycles, skip %d", sys.Cycles(), ref.Cycles())
	}

	// The tracer's sinks must actually be attached.
	if len(tracer.Hists().Merged().Summaries()) == 0 {
		t.Error("the tracer collected no histograms: merged histogram is empty")
	}
	if len(tracer.Metrics().Samples) == 0 {
		t.Error("the tracer sampled no interval metrics")
	}
}

func TestRunContextTypedErrors(t *testing.T) {
	cfg := sesa.SmallConfig(1, sesa.X86)
	sys, err := sesa.NewSystem(cfg, "typed")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadProgram(0, sesa.Program{sesa.Load(1, 0x100)}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = sys.RunContext(ctx, 100_000)
	var ce *sesa.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *sesa.CanceledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false; err = %v", err)
	}

	// The timeout path stays intact and distinct.
	sys2, err := sesa.NewSystem(cfg, "typed2")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.LoadProgram(0, sesa.Program{sesa.Load(1, 0x100)}); err != nil {
		t.Fatal(err)
	}
	err = sys2.RunContext(context.Background(), 1)
	var te *sesa.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *sesa.TimeoutError", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("timeout must not match context.Canceled; err = %v", err)
	}
}

func TestRunSweepContextCancel(t *testing.T) {
	var jobs []sesa.SweepJob
	for seed := uint64(1); seed <= 4; seed++ {
		j, err := sesa.BenchmarkJob("radix", sesa.X86, 200_000, seed)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(150*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	results, sum := sesa.RunSweepContext(ctx, jobs, 2)
	if wall := time.Since(start); wall > 10*time.Second {
		t.Errorf("canceled sweep took %s; workers were not freed", wall)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i := range results {
		if !results[i].Canceled() {
			t.Errorf("job %d: Canceled() = false, err = %v", i, results[i].Err)
		}
	}
	if sum.Canceled != len(jobs) {
		t.Errorf("summary Canceled = %d, want %d", sum.Canceled, len(jobs))
	}

	// An uncanceled context reproduces RunSweep.
	small, err := sesa.BenchmarkJob("radix", sesa.X86, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sesa.RunSweep([]sesa.SweepJob{small}, 1)
	b, _ := sesa.RunSweepContext(context.Background(), []sesa.SweepJob{small}, 1)
	if a[0].Err != nil || b[0].Err != nil {
		t.Fatalf("small jobs failed: %v / %v", a[0].Err, b[0].Err)
	}
	if a[0].Char != b[0].Char {
		t.Error("RunSweep and RunSweepContext(Background) diverge")
	}
}
