package sim

import (
	"fmt"
	"runtime"
	"testing"

	"sesa/internal/config"
	"sesa/internal/isa"
	"sesa/internal/trace"
)

// TestBuildAllocBudget pins what building a Table III machine and running
// the mp litmus test on it allocates. Cache sets and directory entries are
// allocated a page at a time on first insert, and each core's entry arena is
// sized by its trace, so construction costs what the program touches: mp
// touches two lines. The predictor tables are allocated on first use, and
// mp has no branch. The budget sits above what that costs (about 62 KiB
// for two cores, 108 KiB for eight, most of it the cache page indexes,
// mp's pages and each core's queues and store-queue word counts) and below
// a build that allocates every core's predictor tables (145 KiB and
// 424 KiB), let alone every set of the configured machine (4.2 MiB and
// 6.5 MiB).
//
// A reused machine pays almost nothing: after a warm-up run, Reset,
// SetProgram and Run of mp allocate at most 4 KiB (608 B on two cores and
// 2.1 KiB on eight, nearly all of it the run's new Stats).
func TestBuildAllocBudget(t *testing.T) {
	const budget, reuseBudget = 128 << 10, 4 << 10
	mp := []isa.Program{
		{isa.Load(1, 0x1000), isa.Load(2, 0x1040)},
		{isa.StoreImm(0x1040, 1), isa.StoreImm(0x1000, 1)},
	}
	runMP := func(t *testing.T, m *Machine) {
		for i, p := range mp {
			if err := m.SetProgram(i, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	for _, cores := range []int{2, 8} {
		t.Run(fmt.Sprintf("%d cores", cores), func(t *testing.T) {
			cfg := config.Skylake(cores, config.X86)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := New(cfg, "mp")
			if err != nil {
				t.Fatal(err)
			}
			runMP(t, m)
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("building and running mp allocated %d KiB", got>>10)
			if got > budget {
				t.Errorf("building and running mp allocated %d KiB, budget %d KiB", got>>10, budget>>10)
			}

			runtime.ReadMemStats(&before)
			if err := m.Reset(cfg, "mp"); err != nil {
				t.Fatal(err)
			}
			runMP(t, m)
			runtime.ReadMemStats(&after)
			got = after.TotalAlloc - before.TotalAlloc
			t.Logf("resetting the machine and running mp again allocated %d B", got)
			if got > reuseBudget {
				t.Errorf("resetting the machine and running mp again allocated %d B, budget %d B", got, reuseBudget)
			}
		})
	}
}

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
