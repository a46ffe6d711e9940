package sim

import (
	"testing"
	"testing/quick"

	"sesa/internal/config"
	"sesa/internal/isa"
)

// slowStorePrefix returns instructions that put n stores with
// late-resolving addresses into the pipeline, so everything behind them
// stays in the SQ/SB for hundreds of cycles (the litmus SB-pressure trick).
func slowStorePrefix(n int, base uint64) isa.Program {
	var p isa.Program
	const delayReg = isa.Reg(30)
	for i := 0; i < n; i++ {
		p = append(p, isa.ALUImm(delayReg, delayReg, 1, 200))
		st := isa.StoreImm(base+uint64(i)*0x80, uint64(i+1))
		st.Src2 = delayReg
		p = append(p, st)
	}
	return p
}

// TestRetireGateClosesAndReopens drives Figure 8 end to end: an SLF load
// retires while its forwarding store is in limbo, closing the gate; the
// store's L1 write reopens it; a younger load retires only afterwards.
func TestRetireGateClosesAndReopens(t *testing.T) {
	for _, model := range []config.Model{config.SLFSoS370, config.SLFSoSKey370} {
		prog := append(slowStorePrefix(2, 0x90000),
			isa.StoreImm(0x1000, 7), // forwarding store, stuck behind the slow drain
			isa.Load(1, 0x1000),     // SLF load
			isa.Load(2, 0x2000),     // younger load: SA-speculative
		)
		m := newMachine(t, config.Skylake(1, model), "gate")
		if err := m.SetProgram(0, prog); err != nil {
			t.Fatal(err)
		}
		mustRun(t, m)
		st := m.Stats.Total()
		if st.GateCloses == 0 {
			t.Errorf("%s: retire gate never closed", model)
		}
		if st.GateReopens != st.GateCloses {
			t.Errorf("%s: closes=%d reopens=%d, every close must reopen",
				model, st.GateCloses, st.GateReopens)
		}
		if st.GateStalls == 0 {
			t.Errorf("%s: the younger load should have stalled at the gate", model)
		}
		if got := m.Core(0).RegValue(1); got != 7 {
			t.Errorf("%s: forwarded value = %d, want 7", model, got)
		}
	}
}

// TestX86NeverClosesGate: the baseline has no gate.
func TestX86NeverClosesGate(t *testing.T) {
	prog := append(slowStorePrefix(2, 0x90000),
		isa.StoreImm(0x1000, 7), isa.Load(1, 0x1000), isa.Load(2, 0x2000))
	m := newMachine(t, config.Skylake(1, config.X86), "nogate")
	if err := m.SetProgram(0, prog); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	if st := m.Stats.Total(); st.GateCloses != 0 || st.GateStalls != 0 {
		t.Errorf("x86 used the gate: %+v", st)
	}
}

// TestVulnerabilityWindowSquash recreates Figures 6-7: core 0 forwards from
// an in-limbo store and a younger load performs; core 1's store to that
// younger load's address arrives inside the window of vulnerability. The
// SA-speculative load must be squashed and re-executed (reading the new
// value); the machine result is store-atomic.
func TestVulnerabilityWindowSquash(t *testing.T) {
	for _, model := range []config.Model{config.SLFSoS370, config.SLFSoSKey370} {
		p0 := append(slowStorePrefix(3, 0x90000),
			isa.StoreImm(0x1000, 1), // st x
			isa.Load(1, 0x1000),     // ld x: SLF
			isa.Load(2, 0x2000),     // ld y: performs early, sees 0
		)
		p1 := isa.Program{isa.StoreImm(0x2000, 1)} // st y from another core
		m := newMachine(t, config.Skylake(2, model), "window")
		if err := m.SetProgram(0, p0); err != nil {
			t.Fatal(err)
		}
		if err := m.SetProgram(1, p1); err != nil {
			t.Fatal(err)
		}
		mustRun(t, m)
		st := m.Stats.Total()
		if st.SASquashes == 0 {
			t.Errorf("%s: expected an SA-speculation squash in the vulnerability window", model)
		}
		if got := m.Core(0).RegValue(2); got != 1 {
			t.Errorf("%s: ld y = %d after squash, want the re-executed value 1", model, got)
		}
	}
}

// TestX86KeepsStaleValueInWindow: under x86 the same scenario retires the
// stale value — the observable store-atomicity violation the paper fixes.
func TestX86KeepsStaleValueInWindow(t *testing.T) {
	p0 := append(slowStorePrefix(3, 0x90000),
		isa.StoreImm(0x1000, 1),
		isa.Load(1, 0x1000),
		isa.Load(2, 0x2000),
	)
	p1 := isa.Program{isa.StoreImm(0x2000, 1)}
	m := newMachine(t, config.Skylake(2, config.X86), "window-x86")
	if err := m.SetProgram(0, p0); err != nil {
		t.Fatal(err)
	}
	if err := m.SetProgram(1, p1); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	if st := m.Stats.Total(); st.SASquashes != 0 {
		t.Errorf("x86 performed SA squashes: %+v", st)
	}
	if got := m.Core(0).RegValue(2); got != 0 {
		t.Errorf("x86 ld y = %d; expected the stale 0 (the violation)", got)
	}
}

// TestNoSpecBlocksForwarding checks blanket 370 enforcement: the load gets
// the correct value but only after the store writes, and is never SLF.
func TestNoSpecBlocksForwarding(t *testing.T) {
	prog := append(slowStorePrefix(2, 0x90000),
		isa.StoreImm(0x1000, 9),
		isa.Load(1, 0x1000),
	)
	m := newMachine(t, config.Skylake(1, config.NoSpec370), "nospec")
	if err := m.SetProgram(0, prog); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	st := m.Stats.Total()
	if st.SLFLoads != 0 {
		t.Error("370-NoSpec must never forward")
	}
	if st.NoSpecWaits == 0 {
		t.Error("the matching load should have waited for the store drain")
	}
	if got := m.Core(0).RegValue(1); got != 9 {
		t.Errorf("value = %d, want 9", got)
	}
}

// TestRMWBlocksYoungerOverlappingLoad: an RMW bypasses the store queue, so
// its write is invisible to load disambiguation; a younger same-address load
// must nonetheless observe it. The slow-store prefix keeps the SB busy so
// the RMW (which waits for the drain) issues long after the load is ready —
// exactly the window where an unblocked load would read the pre-RMW value.
func TestRMWBlocksYoungerOverlappingLoad(t *testing.T) {
	for _, model := range []config.Model{config.X86, config.NoSpec370,
		config.SLFSpec370, config.SLFSoS370, config.SLFSoSKey370} {
		prog := append(slowStorePrefix(2, 0x90000),
			isa.RMW(1, 0x1000, 5), // old value -> r1, writes 5
			isa.Load(2, 0x1000),   // must see the RMW's write
			isa.Load(3, 0x1040),   // disjoint address: unconstrained
		)
		m := newMachine(t, config.Skylake(1, model), "rmw-load")
		if err := m.SetProgram(0, prog); err != nil {
			t.Fatal(err)
		}
		mustRun(t, m)
		if got := m.Core(0).RegValue(1); got != 0 {
			t.Errorf("%s: rmw old value = %d, want 0", model, got)
		}
		if got := m.Core(0).RegValue(2); got != 5 {
			t.Errorf("%s: ld after rmw = %d, want the rmw's write 5", model, got)
		}
	}
}

// TestSLFSpecHoldsSLFLoadAtRetire: SC-like speculation retires the SLF load
// only when the store buffer has drained.
func TestSLFSpecHoldsSLFLoadAtRetire(t *testing.T) {
	prog := append(slowStorePrefix(2, 0x90000),
		isa.StoreImm(0x1000, 9),
		isa.Load(1, 0x1000),
	)
	m := newMachine(t, config.Skylake(1, config.SLFSpec370), "slfspec")
	if err := m.SetProgram(0, prog); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	st := m.Stats.Total()
	if st.SLFLoads != 1 {
		t.Errorf("SLF loads = %d, want 1 (forwarding allowed)", st.SLFLoads)
	}
	if st.SLFSpecRetWaits == 0 {
		t.Error("the SLF load should have been held at retirement")
	}
}

// TestStoreSetLearnsDependence: a load that repeatedly collides with a
// late-resolving store is squashed at first, then predicted dependent.
func TestStoreSetLearnsDependence(t *testing.T) {
	var prog isa.Program
	const delayReg = isa.Reg(30)
	for i := 0; i < 40; i++ {
		// The store's address resolves late; the load to the same
		// address is tempted to bypass it. Identical PCs every
		// iteration let the StoreSet train.
		prog = append(prog, isa.ALUImm(delayReg, delayReg, 1, 30))
		st := isa.StoreImm(0x5000, uint64(i))
		st.Src2 = delayReg
		st.PC = 0x100
		prog = append(prog, st)
		ld := isa.Load(1, 0x5000)
		ld.PC = 0x104
		prog = append(prog, ld)
		for j := 0; j < 5; j++ {
			prog = append(prog, isa.ALUImm(1, 1, 1, 0))
		}
	}
	m := newMachine(t, config.Skylake(1, config.X86), "storeset")
	if err := m.SetProgram(0, prog); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	st := m.Stats.Total()
	if st.DepSquashes == 0 {
		t.Error("expected at least one memory-dependence violation before training")
	}
	if st.DepSquashes > 10 {
		t.Errorf("StoreSet never learned: %d dependence squashes in 40 iterations", st.DepSquashes)
	}
	if got := m.Core(0).RegValue(1); got < 39 {
		t.Errorf("final forwarded value = %d, want >= 39", got)
	}
}

// TestInFlightLoadSeesOlderStore: a load that issues to memory before an
// older store to its address resolves that address is a dependence
// violation even while the load is still in flight, so it re-executes and
// reads the store's value on every machine.
func TestInFlightLoadSeesOlderStore(t *testing.T) {
	const delayReg = isa.Reg(30)
	for _, lat := range []uint8{20, 60, 200} {
		st := isa.StoreImm(0x3000, 5)
		st.Src2 = delayReg
		prog := isa.Program{isa.ALUImm(delayReg, delayReg, 1, lat), st, isa.Load(2, 0x3000)}
		for _, model := range config.AllModels() {
			m := newMachine(t, config.Skylake(1, model), "inflight")
			if err := m.SetProgram(0, prog); err != nil {
				t.Fatal(err)
			}
			mustRun(t, m)
			if got := m.Core(0).RegValue(2); got != 5 {
				t.Errorf("%s, lat %d: r2 = %d, want 5 (%d dependence squashes)",
					model, lat, got, m.Stats.Total().DepSquashes)
			}
		}
	}
}

// TestNoDeadlockProperty is the Section IV-C liveness argument as a
// property test: random programs on random models always finish.
func TestNoDeadlockProperty(t *testing.T) {
	f := func(seed uint64, modelSel, coreSel uint8) bool {
		model := config.AllModels()[int(modelSel)%5]
		cores := 1 + int(coreSel)%3
		m, err := New(config.Small(cores, model), "deadlock")
		if err != nil {
			return false
		}
		rng := seed
		next := func() uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return rng >> 11
		}
		for c := 0; c < cores; c++ {
			var p isa.Program
			for i := 0; i < 120; i++ {
				addr := (next() % 64) * 8
				switch next() % 6 {
				case 0:
					p = append(p, isa.Load(isa.Reg(next()%8), addr))
				case 1:
					p = append(p, isa.StoreImm(addr, next()))
				case 2:
					p = append(p, isa.ALU(isa.Reg(next()%8), isa.Reg(next()%8), isa.Reg(next()%8)))
				case 3:
					p = append(p, isa.Branch(0x40+(next()%16)*4, next()%2 == 0))
				case 4:
					p = append(p, isa.Fence())
				case 5:
					p = append(p, isa.RMW(isa.Reg(next()%8), addr, 1))
				}
			}
			if err := m.SetProgram(c, p); err != nil {
				return false
			}
		}
		return m.Run(3_000_000) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGateStallsAccounted: Table IV bookkeeping — every gate stall has
// positive cycles and the averages are sane.
func TestGateStallsAccounted(t *testing.T) {
	prog := append(slowStorePrefix(2, 0x90000),
		isa.StoreImm(0x1000, 7), isa.Load(1, 0x1000), isa.Load(2, 0x2000))
	m := newMachine(t, config.Skylake(1, config.SLFSoSKey370), "acct")
	if err := m.SetProgram(0, prog); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m)
	st := m.Stats.Total()
	if st.GateStalls > 0 && st.GateStallCycles < st.GateStalls {
		t.Errorf("stall cycles %d < stalls %d", st.GateStallCycles, st.GateStalls)
	}
	ch := m.Stats.Characterize()
	if ch.GateStallsPct <= 0 || ch.AvgStallCycles <= 0 {
		t.Errorf("characterization lost the gate stalls: %+v", ch)
	}
}
