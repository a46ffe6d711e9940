package sim

import (
	"testing"

	"sesa/internal/config"
	"sesa/internal/isa"
)

func mustRun(t *testing.T, m *Machine) {
	t.Helper()
	if err := m.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
}

func newMachine(t *testing.T, cfg config.Config, name string) *Machine {
	t.Helper()
	m, err := New(cfg, name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSingleCoreStraightLine(t *testing.T) {
	for _, model := range config.AllModels() {
		t.Run(model.String(), func(t *testing.T) {
			m := newMachine(t, config.Small(1, model), "straight")
			prog := isa.Program{
				isa.StoreImm(0x1000, 7),
				isa.Load(1, 0x1000),
				isa.ALUImm(2, 1, 5, 0), // r2 = r1 + 5
				isa.StoreReg(0x1008, 2),
				isa.Load(3, 0x1008),
			}
			if err := m.SetProgram(0, prog); err != nil {
				t.Fatal(err)
			}
			mustRun(t, m)
			if got := m.Core(0).RegValue(1); got != 7 {
				t.Errorf("r1 = %d, want 7", got)
			}
			if got := m.Core(0).RegValue(3); got != 12 {
				t.Errorf("r3 = %d, want 12", got)
			}
			if got := m.ReadMemory(0x1008); got != 12 {
				t.Errorf("[0x1008] = %d, want 12", got)
			}
			st := m.Stats.Total()
			if st.RetiredInsts != 5 {
				t.Errorf("retired %d instructions, want 5", st.RetiredInsts)
			}
			// The two loads both hit younger stores in the SQ/SB.
			// Under x86 and the speculative 370 models they are SLF
			// loads; under 370-NoSpec forwarding is forbidden.
			if model == config.NoSpec370 {
				if st.SLFLoads != 0 {
					t.Errorf("370-NoSpec forwarded %d loads, want 0", st.SLFLoads)
				}
				if st.NoSpecWaits == 0 {
					t.Error("370-NoSpec should have counted blanket-enforcement waits")
				}
			} else if st.SLFLoads != 2 {
				t.Errorf("forwarded %d loads, want 2", st.SLFLoads)
			}
		})
	}
}

func TestStoreValueReachesMemory(t *testing.T) {
	m := newMachine(t, config.Small(1, config.X86), "stores")
	var prog isa.Program
	for i := uint64(0); i < 100; i++ {
		prog = append(prog, isa.StoreImm(0x2000+8*i, i*i))
	}
	if err := m.SetProgram(0, prog); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	for i := uint64(0); i < 100; i++ {
		if got := m.ReadMemory(0x2000 + 8*i); got != i*i {
			t.Fatalf("[%#x] = %d, want %d", 0x2000+8*i, got, i*i)
		}
	}
}

func TestRegisterDependencyChain(t *testing.T) {
	m := newMachine(t, config.Small(1, config.SLFSoSKey370), "chain")
	prog := isa.Program{
		isa.ALUImm(1, isa.RegNone, 1, 0),
	}
	for i := 0; i < 50; i++ {
		prog = append(prog, isa.ALUImm(1, 1, 1, 0)) // r1++
	}
	if err := m.SetProgram(0, prog); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	if got := m.Core(0).RegValue(1); got != 51 {
		t.Errorf("r1 = %d, want 51", got)
	}
}

func TestTwoCoresProducerConsumer(t *testing.T) {
	// Core 0 publishes data then a flag with a fence between; core 1
	// spins are not expressible in a trace, so it simply loads both after
	// the machine settles; TSO guarantees it can never see flag=1 with
	// data=0 — here we just check the final memory image.
	for _, model := range config.AllModels() {
		m := newMachine(t, config.Small(2, model), "prodcons")
		p0 := isa.Program{
			isa.StoreImm(0x100, 42),
			isa.Fence(),
			isa.StoreImm(0x200, 1),
		}
		p1 := isa.Program{
			isa.Load(1, 0x200),
			isa.Load(2, 0x100),
		}
		if err := m.SetProgram(0, p0); err != nil {
			t.Fatal(err)
		}
		if err := m.SetProgram(1, p1); err != nil {
			t.Fatal(err)
		}
		mustRun(t, m)
		if m.ReadMemory(0x100) != 42 || m.ReadMemory(0x200) != 1 {
			t.Fatalf("%s: memory image wrong: data=%d flag=%d",
				model, m.ReadMemory(0x100), m.ReadMemory(0x200))
		}
		flag := m.Core(1).RegValue(1)
		data := m.Core(1).RegValue(2)
		if flag == 1 && data != 42 {
			t.Errorf("%s: TSO violation: flag=1 but data=%d", model, data)
		}
	}
}

func TestRMWFetchAdd(t *testing.T) {
	for _, model := range config.AllModels() {
		m := newMachine(t, config.Small(2, model), "rmw")
		p := isa.Program{
			isa.RMW(1, 0x300, 1),
			isa.RMW(2, 0x300, 1),
		}
		if err := m.SetProgram(0, p); err != nil {
			t.Fatal(err)
		}
		if err := m.SetProgram(1, p); err != nil {
			t.Fatal(err)
		}
		mustRun(t, m)
		if got := m.ReadMemory(0x300); got != 4 {
			t.Errorf("%s: counter = %d, want 4 (atomicity lost)", model, got)
		}
	}
}

func TestBranchesRetire(t *testing.T) {
	m := newMachine(t, config.Small(1, config.X86), "branches")
	var prog isa.Program
	for i := 0; i < 200; i++ {
		prog = append(prog, isa.Branch(uint64(0x4000+i*4), i%3 == 0))
		prog = append(prog, isa.ALUImm(1, 1, 1, 0))
	}
	if err := m.SetProgram(0, prog); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	st := m.Stats.Total()
	if st.RetiredInsts != 400 {
		t.Errorf("retired %d, want 400", st.RetiredInsts)
	}
	if st.BranchMispredicts == 0 {
		t.Error("expected some branch mispredictions on an irregular pattern")
	}
}

func TestMachineDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		m := newMachine(t, config.Small(2, config.SLFSoSKey370), "det")
		p0 := isa.Program{isa.StoreImm(0x40, 1), isa.Load(1, 0x80)}
		p1 := isa.Program{isa.StoreImm(0x80, 1), isa.Load(1, 0x40)}
		if err := m.SetProgram(0, p0); err != nil {
			t.Fatal(err)
		}
		if err := m.SetProgram(1, p1); err != nil {
			t.Fatal(err)
		}
		mustRun(t, m)
		return m.Stats.Cycles, m.Core(0).RegValue(1)<<1 | m.Core(1).RegValue(1)
	}
	c1, v1 := run()
	c2, v2 := run()
	if c1 != c2 || v1 != v2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", c1, v1, c2, v2)
	}
}

func TestTimeoutRecordsCycles(t *testing.T) {
	m := newMachine(t, config.Small(1, config.X86), "timeout")
	prog := make(isa.Program, 0, 200)
	for i := 0; i < 200; i++ {
		prog = append(prog, isa.ALUImm(1, 1, 1, 10))
	}
	if err := m.SetProgram(0, prog); err != nil {
		t.Fatal(err)
	}
	err := m.Run(30) // far too few cycles for a 200-op dependency chain
	if err == nil {
		t.Fatal("expected a timeout error")
	}
	if m.Stats.Cycles == 0 {
		t.Error("timed-out run reports 0 cycles; it must record the cut-off point")
	}
	if m.Stats.Cycles != m.Cycle() {
		t.Errorf("Stats.Cycles = %d, want the machine cycle %d", m.Stats.Cycles, m.Cycle())
	}
}

// TestSetProgramValidates: SetProgram rejects a program the core cannot
// run, a misaligned access or a register out of range.
func TestSetProgramValidates(t *testing.T) {
	for name, p := range map[string]isa.Program{
		"misaligned load":       {isa.Load(1, 0x104)},
		"register out of range": {isa.ALUImm(40, 1, 1, 0)},
	} {
		m := newMachine(t, config.Small(1, config.X86), "invalid")
		if err := m.SetProgram(0, p); err == nil {
			t.Errorf("%s: SetProgram accepted %v", name, p)
		}
	}
}
