package sim

import (
	"testing"

	"sesa/internal/config"
	"sesa/internal/hist"
	"sesa/internal/obs"
	"sesa/internal/trace"
)

// runWithHists runs a generated workload with histograms attached and
// returns the machine.
func runWithHists(t *testing.T, model config.Model, bench string, n int) *Machine {
	t.Helper()
	p, ok := trace.Lookup(bench)
	if !ok {
		t.Fatalf("unknown profile %q", bench)
	}
	cfg := config.Default(model)
	m := newMachine(t, cfg, bench)
	w := trace.Build(p, cfg.Cores, n, 42)
	for c, prog := range w.Programs {
		if err := m.SetProgram(c, prog); err != nil {
			t.Fatal(err)
		}
	}
	m.AttachTracer(obs.New(cfg.Cores, obs.Options{Hists: true}))
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestHistCountInvariants pins the histogram sample counts to the
// independently maintained scalar counters: every hook fires exactly once
// per counted event.
func TestHistCountInvariants(t *testing.T) {
	m := runWithHists(t, config.SLFSoSKey370, "barnes", 5_000)
	merged := m.Tracer().Hists().Merged()
	st := m.Stats.Total()
	mem := m.Hierarchy().Stats

	// Every hierarchy load completion records exactly one service-level
	// sample. (SLF loads never reach the hierarchy; prefetches are not
	// recorded.)
	var served uint64
	for _, lvl := range []hist.Metric{hist.LoadL1, hist.LoadL2, hist.LoadL3, hist.LoadRemote, hist.LoadMem} {
		served += merged.H(lvl).Count()
	}
	if served != mem.LoadsCompleted {
		t.Errorf("service-level samples %d != LoadsCompleted %d", served, mem.LoadsCompleted)
	}

	// Every delivered NoC message records one per-class latency sample,
	// and the per-kind flit split sums to the total.
	noc := m.Network().Traffic
	if got := merged.H(hist.NoCControl).Count(); got != noc.ControlMsgs {
		t.Errorf("noc-control samples %d != ControlMsgs %d", got, noc.ControlMsgs)
	}
	if got := merged.H(hist.NoCData).Count(); got != noc.DataMsgs {
		t.Errorf("noc-data samples %d != DataMsgs %d", got, noc.DataMsgs)
	}
	if noc.ControlFlits+noc.DataFlits != noc.Flits {
		t.Errorf("flit split %d+%d != total %d", noc.ControlFlits, noc.DataFlits, noc.Flits)
	}
	// And the traffic is mirrored into the machine stats (satellite view).
	if m.Stats.NoC.Msgs() != noc.ControlMsgs+noc.DataMsgs {
		t.Errorf("stats NoC msgs %d != network %d", m.Stats.NoC.Msgs(), noc.ControlMsgs+noc.DataMsgs)
	}
	if m.Stats.NoC.Flits() != noc.Flits {
		t.Errorf("stats NoC flits %d != network %d", m.Stats.NoC.Flits(), noc.Flits)
	}

	// Every gate-closed episode ends in exactly one reopen, which records
	// its duration.
	if got := merged.H(hist.GateClosed).Count(); got != st.GateReopens {
		t.Errorf("gate-closed samples %d != GateReopens %d", got, st.GateReopens)
	}

	// Every squash (speculation or dependence) records one refill sample.
	if got, want := merged.H(hist.SquashRefill).Count(), st.Squashes+st.DepSquashes; got != want {
		t.Errorf("squash-refill samples %d != Squashes+DepSquashes %d", got, want)
	}

	// SLF latency is recorded at issue; squashed-and-reexecuted loads are
	// observed again, so the count can only exceed the retired SLF loads.
	if got := merged.H(hist.LoadSLF).Count(); got < st.SLFLoads {
		t.Errorf("load-slf samples %d < retired SLF loads %d", got, st.SLFLoads)
	}

	// Every retired store resides in the SB between retirement and its L1
	// write, recording exactly one residency sample.
	if got := merged.H(hist.SBResidency).Count(); got != st.RetiredStores {
		t.Errorf("sb-residency samples %d != RetiredStores %d", got, st.RetiredStores)
	}
}

// TestHistDisabledIdentical verifies the nil-hook discipline: attaching
// histograms must not perturb the simulation in any way.
func TestHistDisabledIdentical(t *testing.T) {
	with := runWithHists(t, config.SLFSoSKey370, "ferret", 3_000)

	p, _ := trace.Lookup("ferret")
	cfg := config.Default(config.SLFSoSKey370)
	without := newMachine(t, cfg, "ferret")
	w := trace.Build(p, cfg.Cores, 3_000, 42)
	for c, prog := range w.Programs {
		if err := without.SetProgram(c, prog); err != nil {
			t.Fatal(err)
		}
	}
	if err := without.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if with.Stats.Cycles != without.Stats.Cycles {
		t.Errorf("cycles with hists %d != without %d", with.Stats.Cycles, without.Stats.Cycles)
	}
	wt, wo := with.Stats.Total(), without.Stats.Total()
	if wt != wo {
		t.Errorf("totals differ:\nwith:    %+v\nwithout: %+v", wt, wo)
	}
}

// TestTimeoutError verifies the typed timeout: a machine cut off by its
// cycle bound reports a *TimeoutError carrying the bound.
func TestTimeoutError(t *testing.T) {
	p, _ := trace.Lookup("barnes")
	cfg := config.Default(config.X86)
	m := newMachine(t, cfg, "barnes")
	w := trace.Build(p, cfg.Cores, 5_000, 42)
	for c, prog := range w.Programs {
		if err := m.SetProgram(c, prog); err != nil {
			t.Fatal(err)
		}
	}
	err := m.Run(100)
	te, ok := err.(*TimeoutError)
	if !ok {
		t.Fatalf("Run returned %T (%v), want *TimeoutError", err, err)
	}
	if te.MaxCycles != 100 || te.Workload != "barnes" {
		t.Errorf("TimeoutError = %+v", te)
	}
	if m.Stats.Cycles != 100 {
		t.Errorf("timed-out machine reports %d cycles, want 100", m.Stats.Cycles)
	}
}
