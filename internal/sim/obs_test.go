// Observability-layer tests live in an external test package: they drive the
// machine through the litmus harness, which itself imports sim.
package sim_test

import (
	"testing"

	"sesa/internal/config"
	"sesa/internal/litmus"
	"sesa/internal/obs"
	"sesa/internal/sim"
	"sesa/internal/stats"
	"sesa/internal/trace"
)

// runTracedWorkload runs one generated workload under the model with a
// tracer attached and returns the machine.
func runTracedWorkload(t *testing.T, profile string, model config.Model, n int) *sim.Machine {
	t.Helper()
	p, ok := trace.Lookup(profile)
	if !ok {
		t.Fatalf("unknown profile %q", profile)
	}
	cfg := config.Default(model)
	w := trace.Build(p, cfg.Cores, n, 42)
	m, err := sim.New(cfg, w.Name)
	if err != nil {
		t.Fatal(err)
	}
	for c, prog := range w.Programs {
		if err := m.SetProgram(c, prog); err != nil {
			t.Fatal(err)
		}
	}
	m.AttachTracer(obs.New(cfg.Cores, obs.Options{BufCap: obs.DefaultBufCap, MetricsInterval: 500}))
	if err := m.Run(uint64(n)*200 + 2_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

// checkGateInvariant asserts the retire-gate bookkeeping invariant: at the
// end of a completed run every close has been matched by a reopen — the gate
// cannot end a run closed, since its SLF load's forwarding store must
// eventually write to the L1 (the paper's no-deadlock argument, IV-C).
func checkGateInvariant(t *testing.T, name string, st *stats.Machine) {
	t.Helper()
	for i := range st.Cores {
		c := &st.Cores[i]
		if c.GateCloses != c.GateReopens {
			t.Errorf("%s core %d: GateCloses=%d GateReopens=%d — gate left closed",
				name, i, c.GateCloses, c.GateReopens)
		}
	}
}

// TestGateInvariantAcrossLitmusSuite runs every litmus test (with SB
// pressure, which provokes forwarding) under every model and checks the
// close/reopen balance of each iteration. The iterations share one reset
// machine, so the hook keeps each iteration's Stats, not the machine.
func TestGateInvariantAcrossLitmusSuite(t *testing.T) {
	for _, test := range litmus.Tests() {
		variant := litmus.WithSBPressure(test, 3)
		for _, model := range config.AllModels() {
			var sts []*stats.Machine
			_, err := litmus.RunTraced(variant, model, 2, 1, func(iter int, m *sim.Machine) {
				sts = append(sts, m.Stats)
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", variant.Name, model, err)
			}
			for _, st := range sts {
				checkGateInvariant(t, variant.Name+"/"+model.String(), st)
			}
		}
	}
}

// TestGateInvariantOnWorkloads checks the same invariant at benchmark scale,
// on a forwarding-heavy profile (x264) and a sharing-heavy one (ocean_cp).
func TestGateInvariantOnWorkloads(t *testing.T) {
	for _, profile := range []string{"x264", "ocean_cp"} {
		for _, model := range config.AllModels() {
			m := runTracedWorkload(t, profile, model, 2000)
			checkGateInvariant(t, profile+"/"+model.String(), m.Stats)
		}
	}
}

// TestTraceCountsMatchStats is the tentpole's acceptance check: the traced
// gate close/reopen event counts equal the statistics counters, and retire /
// squash events line up with the aggregate counts too.
func TestTraceCountsMatchStats(t *testing.T) {
	m := runTracedWorkload(t, "x264", config.SLFSoSKey370, 5000)
	tr := m.Tracer()
	for i := range m.Stats.Cores {
		st := &m.Stats.Cores[i]
		ct := tr.Core(i)
		if got := ct.Count(obs.KGateClose); got != st.GateCloses {
			t.Errorf("core %d: traced gate closes %d != stats %d", i, got, st.GateCloses)
		}
		if got := ct.Count(obs.KGateReopen); got != st.GateReopens {
			t.Errorf("core %d: traced gate reopens %d != stats %d", i, got, st.GateReopens)
		}
		if got := ct.Count(obs.KRetire); got != st.RetiredInsts {
			t.Errorf("core %d: traced retires %d != stats %d", i, got, st.RetiredInsts)
		}
		if got := ct.Count(obs.KSquash); got != st.Squashes+st.DepSquashes {
			t.Errorf("core %d: traced squashes %d != stats %d", i, got, st.Squashes+st.DepSquashes)
		}
		if got := ct.Count(obs.KSLFHit); got < st.SLFLoads {
			// Every retired SLF load issued with a hit; squashed ones may add more.
			t.Errorf("core %d: traced SLF hits %d < retired SLF loads %d", i, got, st.SLFLoads)
		}
	}
	// The SLFSoS-key machine on a forwarding-heavy profile must actually
	// exercise the gate, or this test checks nothing.
	if m.Stats.Total().GateCloses == 0 {
		t.Error("expected gate activity on x264 under 370-SLFSoS-key")
	}
}

// TestMetricsSampledOverRun checks the interval series covers the whole run
// with per-core rows at every boundary.
func TestMetricsSampledOverRun(t *testing.T) {
	m := runTracedWorkload(t, "x264", config.SLFSoSKey370, 2000)
	mt := m.Tracer().Metrics()
	if mt == nil {
		t.Fatal("metrics disabled")
	}
	cores := m.Config().Cores
	if len(mt.Samples) == 0 || len(mt.Samples)%cores != 0 {
		t.Fatalf("got %d samples, want a positive multiple of %d", len(mt.Samples), cores)
	}
	last := mt.Samples[len(mt.Samples)-1]
	if last.Cycle != m.Stats.Cycles {
		t.Errorf("final sample at cycle %d, machine finished at %d", last.Cycle, m.Stats.Cycles)
	}
	var retired float64
	for _, s := range mt.Samples {
		if s.GateClosedFrac < 0 || s.GateClosedFrac > 1 {
			t.Errorf("gate closed fraction %f out of range", s.GateClosedFrac)
		}
		retired += s.IPC * float64(s.Span)
	}
	if want := float64(m.Stats.Total().RetiredInsts); retired < want-0.5 || retired > want+0.5 {
		t.Errorf("integrated IPC gives %.1f retired instructions, stats say %d", retired, m.Stats.Total().RetiredInsts)
	}
}

// TestTracingDoesNotPerturbResults: attaching a tracer must not change a
// single statistic — the observability layer is read-only.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	run := func(attach bool) *stats.Machine {
		p, _ := trace.Lookup("x264")
		cfg := config.Default(config.SLFSoSKey370)
		w := trace.Build(p, cfg.Cores, 2000, 42)
		m, err := sim.New(cfg, w.Name)
		if err != nil {
			t.Fatal(err)
		}
		for c, prog := range w.Programs {
			if err := m.SetProgram(c, prog); err != nil {
				t.Fatal(err)
			}
		}
		if attach {
			m.AttachTracer(obs.New(cfg.Cores, obs.Options{BufCap: 1 << 16, MetricsInterval: 100}))
		}
		if err := m.Run(2_400_000); err != nil {
			t.Fatal(err)
		}
		return m.Stats
	}
	plain, traced := run(false), run(true)
	if plain.Cycles != traced.Cycles {
		t.Errorf("cycles diverge with tracing: %d vs %d", plain.Cycles, traced.Cycles)
	}
	for i := range plain.Cores {
		if plain.Cores[i] != traced.Cores[i] {
			t.Errorf("core %d stats diverge with tracing:\n%+v\nvs\n%+v", i, plain.Cores[i], traced.Cores[i])
		}
	}
}
