package sim

import (
	"testing"

	"sesa/internal/config"
	"sesa/internal/trace"
)

// TestStepZeroAllocSteadyState pins the hot loop's allocation budget at
// zero: once the arenas, rings, address tables and event heap are warm, a
// full machine step — core.Tick on every core plus the batched event
// delivery — must not allocate. This is the contract the index-based entry
// arena and the typed event queue exist to provide; any regression here
// reintroduces per-cycle GC pressure on every simulated cycle. Barnes runs
// eight cores with coherence traffic; 505.mcf runs one core whose pointer
// chases park loads on the misses that produce their addresses.
func TestStepZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		profile string
		cores   int
	}{{"barnes", 8}, {"505.mcf", 1}} {
		t.Run(tc.profile, func(t *testing.T) {
			p, ok := trace.Lookup(tc.profile)
			if !ok {
				t.Fatalf("%s workload missing", tc.profile)
			}
			cfg := config.Skylake(tc.cores, config.X86)
			m, err := New(cfg, tc.profile)
			if err != nil {
				t.Fatal(err)
			}
			w := trace.Build(p, cfg.Cores, 200_000, 42)
			for c, prog := range w.Programs {
				if err := m.SetProgram(c, prog); err != nil {
					t.Fatal(err)
				}
			}
			// Warm up: fill the branch-predictor paths, grow the event
			// heap and address tables to their steady-state footprint.
			for i := 0; i < 20_000 && !m.Done(); i++ {
				m.Step()
			}
			if m.Done() {
				t.Fatal("workload finished during warmup; steady state never reached")
			}
			allocs := testing.AllocsPerRun(2000, func() {
				if !m.Done() {
					m.Step()
				}
			})
			if allocs != 0 {
				t.Errorf("machine step allocates %.2f per cycle in steady state, want 0", allocs)
			}
		})
	}
}
