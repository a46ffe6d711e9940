package litmus

import (
	"testing"

	"sesa/internal/checker"
	"sesa/internal/config"
	"sesa/internal/isa"
	"sesa/internal/sim"
)

// TestWitnessAllocBudget: once RunConfigTraced has run its first
// iteration, a further one allocates only what sim.Machine.Reset must (the
// iteration's new stats.Machine) and the run's outcome string. Each
// thread's staggered program is rebuilt in a buffer the call allocates
// once, so a program copy per run, or a fmt rendering, breaks the budget.
func TestWitnessAllocBudget(t *testing.T) {
	// rx reads the thread's own store and [y] holds the only store to y,
	// so every run has one outcome and the result map never grows.
	test := Test{Name: "fixed", Prog: checker.Program{
		Threads: []isa.Program{
			{isa.StoreImm(X, 1), isa.Load(1, X)},
			{isa.Load(1, X), isa.StoreImm(Y, 2)},
		},
		Init: map[uint64]uint64{X: 0, Y: 0},
		Regs: []checker.RegObs{{Thread: 0, Reg: 1, Name: "rx"}},
		Mem:  []checker.MemObs{{Addr: Y, Name: "y"}},
	}}
	for _, variant := range []Test{test, WithSBPressure(test, 3)} {
		cfg := config.Small(len(variant.Prog.Threads), config.X86)
		m, err := sim.New(cfg, variant.Name)
		if err != nil {
			t.Fatal(err)
		}
		// Each call runs the same iterations from the same seed, and
		// AllocsPerRun's warm-up call sizes the machine for all of them.
		allocs := func(iters int) float64 {
			return testing.AllocsPerRun(20, func() {
				res, err := RunConfigTraced(m, variant, cfg, iters, 7, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Outcomes) != 1 {
					t.Fatalf("%s: outcomes %v, want one", variant.Name, res.Outcomes)
				}
			})
		}
		const further = 4
		perIter := (allocs(1+further) - allocs(1)) / further
		reset := testing.AllocsPerRun(20, func() {
			if err := m.Reset(cfg, variant.Name); err != nil {
				t.Fatal(err)
			}
		})
		render := testing.AllocsPerRun(20, func() {
			checker.RenderOutcome(variant.Prog, finalState{m})
		})
		t.Logf("%s: a further iteration allocates %.2f times, Reset %.0f, a rendering %.0f",
			variant.Name, perIter, reset, render)
		if budget := reset + render; perIter > budget {
			t.Errorf("%s: a further iteration allocated %.2f times, budget %.0f (Reset and one rendering)",
				variant.Name, perIter, budget)
		}
	}
}

// TestStaggerOpsBound: no thread's stagger exceeds maxStagger, the spare
// capacity RunConfigTraced gives each thread's program buffer, and some
// thread reaches it.
func TestStaggerOpsBound(t *testing.T) {
	most := 0
	rng := uint64(1)
	for i := 0; i < 1000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		for ti := 0; ti < 8; ti++ {
			n := staggerOps(rng, ti)
			if n < 0 || n > maxStagger {
				t.Fatalf("staggerOps(%#x, %d) = %d, outside [0, %d]", rng, ti, n, maxStagger)
			}
			most = max(most, n)
		}
	}
	if most != maxStagger {
		t.Errorf("the largest stagger is %d, want maxStagger %d", most, maxStagger)
	}
}
