package sesa_test

import (
	"testing"

	"sesa"
	"sesa/internal/trace"
)

func TestQuickstartFlow(t *testing.T) {
	sys, err := sesa.NewSystem(sesa.SkylakeConfig(1, sesa.SLFSoSKey370), "test")
	if err != nil {
		t.Fatal(err)
	}
	prog := sesa.Program{
		sesa.StoreImm(0x100, 41),
		sesa.Load(1, 0x100),
		sesa.ALUImm(2, 1, 1, 0),
		sesa.StoreReg(0x108, 2),
	}
	if err := sys.LoadProgram(0, prog); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if got := sys.Core(0).RegValue(2); got != 42 {
		t.Errorf("r2 = %d, want 42", got)
	}
	if got := sys.ReadMemory(0x108); got != 42 {
		t.Errorf("[0x108] = %d, want 42", got)
	}
	if st := sys.Stats().Total(); st.SLFLoads != 1 {
		t.Errorf("SLF loads = %d, want 1", st.SLFLoads)
	}
	if sys.MemoryStats().StoresCompleted == 0 {
		t.Error("memory stats not wired through")
	}
}

func TestInitMemoryVisible(t *testing.T) {
	sys, err := sesa.NewSystem(sesa.SmallConfig(1, sesa.X86), "init")
	if err != nil {
		t.Fatal(err)
	}
	sys.InitMemory(0x200, 1234)
	if err := sys.LoadProgram(0, sesa.Program{sesa.Load(1, 0x200)}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if got := sys.Core(0).RegValue(1); got != 1234 {
		t.Errorf("r1 = %d, want 1234", got)
	}
}

func TestRunBenchmarkAllModels(t *testing.T) {
	for _, model := range sesa.AllModels() {
		ch, st, err := sesa.RunBenchmark("swaptions", model, 3000, 1)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if ch.Instructions == 0 || st.Cycles == 0 {
			t.Errorf("%s: empty run", model)
		}
		if model == sesa.NoSpec370 && ch.ForwardedPct != 0 {
			t.Errorf("370-NoSpec forwarded %.3f%%", ch.ForwardedPct)
		}
	}
}

func TestRunBenchmarkUnknown(t *testing.T) {
	if _, _, err := sesa.RunBenchmark("nope", sesa.X86, 100, 1); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestWorkloadAPI(t *testing.T) {
	p, ok := sesa.LookupProfile("barnes")
	if !ok {
		t.Fatal("barnes missing")
	}
	w, err := sesa.BuildWorkload(p, 4, 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Programs) != 4 {
		t.Fatalf("programs = %d", len(w.Programs))
	}
	st, err := sesa.RunWorkload(sesa.X86, sesa.SkylakeConfig(4, sesa.X86), w, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total().RetiredInsts != 2000 {
		t.Errorf("retired %d, want 2000", st.Total().RetiredInsts)
	}
}

func TestWorkloadTooManyPrograms(t *testing.T) {
	p, _ := sesa.LookupProfile("barnes")
	w, err := sesa.BuildWorkload(p, 4, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sesa.RunWorkload(sesa.X86, sesa.SkylakeConfig(2, sesa.X86), w, 1_000_000); err == nil {
		t.Error("expected an error for more programs than cores")
	}
}

// TestRunWorkloadDefaultBound: a maxCycles of 0 applies the default bound,
// as SweepJob.MaxCycles does, instead of timing out at cycle 0.
func TestRunWorkloadDefaultBound(t *testing.T) {
	p, _ := sesa.LookupProfile("barnes")
	w, err := sesa.BuildWorkload(p, 2, 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sesa.RunWorkload(sesa.X86, sesa.SkylakeConfig(2, sesa.X86), w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total().RetiredInsts != 1000 {
		t.Errorf("retired %d, want 1000", st.Total().RetiredInsts)
	}
}

// TestBuildWorkloadRejectsInstCount checks that an instruction count
// outside 1..trace.MaxInstPerCore is an error, not a panic in the
// generator.
func TestBuildWorkloadRejectsInstCount(t *testing.T) {
	p, _ := sesa.LookupProfile("radix")
	for _, n := range []int{-1, 0, trace.MaxInstPerCore + 1} {
		if _, err := sesa.BuildWorkload(p, 8, n, 1); err == nil {
			t.Errorf("BuildWorkload(radix, 8, %d, 1) returned no error", n)
		}
	}
}

// TestRunBenchmarkRejectsInstCount: RunBenchmark runs as a sweep job, so
// an instruction count no trace can have returns the job's check error
// instead of panicking in the generator or running an empty trace.
func TestRunBenchmarkRejectsInstCount(t *testing.T) {
	for _, n := range []int{0, -5, trace.MaxInstPerCore + 1} {
		want := trace.CheckInstPerCore(n)
		if _, _, err := sesa.RunBenchmark("radix", sesa.X86, n, 1); err == nil || err.Error() != want.Error() {
			t.Errorf("RunBenchmark(radix, x86, %d, 1) = %v, want %v", n, err, want)
		}
	}
}

func TestPublicLitmusAPI(t *testing.T) {
	if len(sesa.LitmusTests()) < 9 {
		t.Error("litmus suite incomplete")
	}
	n6, err := sesa.GetLitmus("n6")
	if err != nil {
		t.Fatal(err)
	}
	out := sesa.Enumerate(n6.Prog, sesa.CheckerX86TSO)
	if !out.Contains(n6.Interesting) {
		t.Error("x86 must allow the n6 signature")
	}
	if diff := sesa.CompareModels(n6.Prog, sesa.CheckerX86TSO, sesa.Checker370TSO); len(diff) != 1 {
		t.Errorf("n6 x86-only outcomes = %d, want exactly 1", len(diff))
	}
}

func TestGateStorageBitsPublic(t *testing.T) {
	if got := sesa.GateStorageBits(sesa.DefaultConfig(sesa.SLFSoSKey370)); got != 640 {
		t.Errorf("storage = %d bits, want 640 (Section IV-D)", got)
	}
}

func TestGeoMeanPublic(t *testing.T) {
	if g := sesa.GeoMean([]float64{1, 1, 1}); g != 1 {
		t.Errorf("geomean = %f", g)
	}
	if m := sesa.Mean([]float64{2, 4}); m != 3 {
		t.Errorf("mean = %f", m)
	}
}

// TestLoadProgramValidates: LoadProgram rejects a program the simulator
// cannot run, a misaligned access or a register out of range.
func TestLoadProgramValidates(t *testing.T) {
	for name, p := range map[string]sesa.Program{
		"misaligned load":       {sesa.Load(1, 0x104)},
		"register out of range": {sesa.ALUImm(40, 1, 1, 0)},
	} {
		sys, err := sesa.NewSystem(sesa.SkylakeConfig(1, sesa.X86), "invalid")
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadProgram(0, p); err == nil {
			t.Errorf("%s: LoadProgram accepted %v", name, p)
		}
	}
}

// TestFuzzCrossValidateRejectsUnrunnable: a hand-built program whose load
// writes a register beyond the file is an error, not a panic in an engine.
func TestFuzzCrossValidateRejectsUnrunnable(t *testing.T) {
	p := sesa.CheckerProgram{
		Threads: []sesa.Program{{sesa.StoreImm(0x1000, 1)}, {sesa.Load(40, 0x1000)}},
		Init:    map[uint64]uint64{0x1000: 0},
		Regs:    []sesa.RegObs{{Thread: 1, Reg: 40, Name: "r"}},
	}
	if _, err := sesa.FuzzCrossValidate(p, sesa.DefaultFuzzOptions()); err == nil {
		t.Fatal("FuzzCrossValidate accepted a load into r40")
	}
}
