// Package litmus defines the litmus tests the paper builds its argument on
// (mp, n6, iriw, the Figure 5 disagreement test, and classic TSO tests) and
// runs them both through the exhaustive checker and on the timing simulator.
package litmus

import (
	"fmt"
	"strings"

	"sesa/internal/checker"
	"sesa/internal/config"
	"sesa/internal/isa"
	"sesa/internal/sim"
)

// Well-known variable addresses, placed on distinct cache lines.
const (
	X = uint64(0x1000)
	Y = uint64(0x1040)
)

// Test is one litmus test: a checker program plus the outcome the paper
// highlights for it.
type Test struct {
	Name string
	// Doc describes what the test demonstrates.
	Doc  string
	Prog checker.Program
	// Interesting is the outcome the paper discusses: forbidden under the
	// store-atomic model, or the hallmark relaxed behaviour.
	Interesting checker.Outcome
}

// Allowed returns the exhaustive outcome set under the operational model.
func (t Test) Allowed(m checker.Model) checker.OutcomeSet {
	return checker.Enumerate(t.Prog, m)
}

// CheckerModelFor maps a microarchitectural machine model to the
// operational model that bounds its observable outcomes, by its registry
// classification: store-atomic machines (every 370 variant, including the
// ones added through the policy registry) are bounded by TSO370, the
// non-store-atomic baseline by x86-TSO.
func CheckerModelFor(m config.Model) checker.Model {
	if !m.StoreAtomic() {
		return checker.X86TSO
	}
	return checker.TSO370
}

// MP is Figure 1: message passing. rx=1 ry=0 is forbidden under TSO — both
// flavours — because loads and stores each stay ordered.
func MP() Test {
	return Test{
		Name: "mp",
		Doc:  "Fig. 1: two ordered loads observe two ordered stores; rx=1 ry=0 forbidden in TSO",
		Prog: checker.Program{
			Threads: []isa.Program{
				{isa.Load(1, X), isa.Load(2, Y)},
				{isa.StoreImm(Y, 1), isa.StoreImm(X, 1)},
			},
			Init: map[uint64]uint64{X: 0, Y: 0},
			Regs: []checker.RegObs{
				{Thread: 0, Reg: 1, Name: "rx"},
				{Thread: 0, Reg: 2, Name: "ry"},
			},
		},
		Interesting: "rx=1 ry=0",
	}
}

// N6 is Figure 2: the store-atomicity litmus test. rx=1 ry=0 [x]=1 [y]=2 is
// allowed in x86 (store-to-load forwarding lets Core1 see its own st x,1
// early) but forbidden in store-atomic TSO.
func N6() Test {
	return Test{
		Name: "n6",
		Doc:  "Fig. 2: allowed in x86, forbidden in store-atomic TSO (370)",
		Prog: checker.Program{
			Threads: []isa.Program{
				{isa.StoreImm(X, 1), isa.Load(1, X), isa.Load(2, Y)},
				{isa.StoreImm(Y, 2), isa.StoreImm(X, 2)},
			},
			Init: map[uint64]uint64{X: 0, Y: 0},
			Regs: []checker.RegObs{
				{Thread: 0, Reg: 1, Name: "rx"},
				{Thread: 0, Reg: 2, Name: "ry"},
			},
			Mem: []checker.MemObs{
				{Addr: X, Name: "x"},
				{Addr: Y, Name: "y"},
			},
		},
		Interesting: "rx=1 ry=0 [x]=1 [y]=2",
	}
}

// IRIW is Figure 3: independent reads of independent writes. The two
// observers disagreeing on the store order (both reading 1 then 0) is
// forbidden in any write-atomic TSO, x86 included.
func IRIW() Test {
	return Test{
		Name: "iriw",
		Doc:  "Fig. 3: observers must agree on the order of independent stores",
		Prog: checker.Program{
			Threads: []isa.Program{
				{isa.StoreImm(X, 1)},
				{isa.StoreImm(Y, 1)},
				{isa.Load(1, X), isa.Load(2, Y)},
				{isa.Load(1, Y), isa.Load(2, X)},
			},
			Init: map[uint64]uint64{X: 0, Y: 0},
			Regs: []checker.RegObs{
				{Thread: 2, Reg: 1, Name: "r0x"},
				{Thread: 2, Reg: 2, Name: "r0y"},
				{Thread: 3, Reg: 1, Name: "r1y"},
				{Thread: 3, Reg: 2, Name: "r1x"},
			},
		},
		Interesting: "r0x=1 r0y=0 r1y=1 r1x=0",
	}
}

// Fig5 is the paper's Figure 5 / Table II test: each core stores to one
// variable and tries to observe the opposite order of the two independent
// stores. Under x86 both cores can claim their own store came first
// (Table II case 1); a store-atomic implementation admits exactly the other
// three outcomes.
func Fig5() Test {
	return Test{
		Name: "fig5",
		Doc:  "Fig. 5 / Table II: disagreement on independent store order",
		Prog: checker.Program{
			Threads: []isa.Program{
				{isa.StoreImm(X, 1), isa.Load(1, X), isa.Load(2, Y)},
				{isa.StoreImm(Y, 1), isa.Load(1, Y), isa.Load(2, X)},
			},
			Init: map[uint64]uint64{X: 0, Y: 0},
			Regs: []checker.RegObs{
				{Thread: 0, Reg: 1, Name: "c1x"},
				{Thread: 0, Reg: 2, Name: "c1y"},
				{Thread: 1, Reg: 1, Name: "c2y"},
				{Thread: 1, Reg: 2, Name: "c2x"},
			},
		},
		Interesting: "c1x=1 c1y=0 c2y=1 c2x=0",
	}
}

// SB is the store-buffering (Dekker) test: rx=0 ry=0 is the hallmark TSO
// relaxation, allowed in both x86 and 370 but forbidden in SC.
func SB() Test {
	return Test{
		Name: "sb",
		Doc:  "store buffering: rx=0 ry=0 allowed in TSO (both flavours), forbidden in SC",
		Prog: checker.Program{
			Threads: []isa.Program{
				{isa.StoreImm(X, 1), isa.Load(1, Y)},
				{isa.StoreImm(Y, 1), isa.Load(1, X)},
			},
			Init: map[uint64]uint64{X: 0, Y: 0},
			Regs: []checker.RegObs{
				{Thread: 0, Reg: 1, Name: "ry"},
				{Thread: 1, Reg: 1, Name: "rx"},
			},
		},
		Interesting: "ry=0 rx=0",
	}
}

// SBFence is SB with full fences: rx=0 ry=0 becomes forbidden everywhere.
func SBFence() Test {
	return Test{
		Name: "sb+fence",
		Doc:  "store buffering with mfence: rx=0 ry=0 forbidden in all models",
		Prog: checker.Program{
			Threads: []isa.Program{
				{isa.StoreImm(X, 1), isa.Fence(), isa.Load(1, Y)},
				{isa.StoreImm(Y, 1), isa.Fence(), isa.Load(1, X)},
			},
			Init: map[uint64]uint64{X: 0, Y: 0},
			Regs: []checker.RegObs{
				{Thread: 0, Reg: 1, Name: "ry"},
				{Thread: 1, Reg: 1, Name: "rx"},
			},
		},
		Interesting: "ry=0 rx=0",
	}
}

// LB is load buffering: rx=1 ry=1 would need load→store reordering, which
// TSO forbids.
func LB() Test {
	return Test{
		Name: "lb",
		Doc:  "load buffering: rx=1 ry=1 forbidden in TSO",
		Prog: checker.Program{
			Threads: []isa.Program{
				{isa.Load(1, X), isa.StoreImm(Y, 1)},
				{isa.Load(1, Y), isa.StoreImm(X, 1)},
			},
			Init: map[uint64]uint64{X: 0, Y: 0},
			Regs: []checker.RegObs{
				{Thread: 0, Reg: 1, Name: "rx"},
				{Thread: 1, Reg: 1, Name: "ry"},
			},
		},
		Interesting: "rx=1 ry=1",
	}
}

// Fig4 is the Figure 4 observer: one core tries to detect the order of two
// independent stores; all four observations are possible and only {1,0}
// establishes an order.
func Fig4() Test {
	return Test{
		Name: "fig4",
		Doc:  "Fig. 4: the four possible observations of two independent stores",
		Prog: checker.Program{
			Threads: []isa.Program{
				{isa.StoreImm(X, 1)},
				{isa.StoreImm(Y, 1)},
				{isa.Load(1, Y), isa.Load(2, X)},
			},
			Init: map[uint64]uint64{X: 0, Y: 0},
			Regs: []checker.RegObs{
				{Thread: 2, Reg: 1, Name: "ry"},
				{Thread: 2, Reg: 2, Name: "rx"},
			},
		},
		Interesting: "ry=1 rx=0",
	}
}

// WRC is write-to-read causality: Thread1 reads x then writes y; Thread2
// reads y then x. r1=1 r2=1 rx=0 requires non-write-atomic stores, so it is
// forbidden in both x86 and 370.
func WRC() Test {
	return Test{
		Name: "wrc",
		Doc:  "write-to-read causality: forbidden without PC-style non-write-atomicity",
		Prog: checker.Program{
			Threads: []isa.Program{
				{isa.StoreImm(X, 1)},
				{isa.Load(1, X), isa.StoreImm(Y, 1)},
				{isa.Load(1, Y), isa.Load(2, X)},
			},
			Init: map[uint64]uint64{X: 0, Y: 0},
			Regs: []checker.RegObs{
				{Thread: 1, Reg: 1, Name: "r1"},
				{Thread: 2, Reg: 1, Name: "r2"},
				{Thread: 2, Reg: 2, Name: "rx"},
			},
		},
		Interesting: "r1=1 r2=1 rx=0",
	}
}

// N6Fence is n6 with an mfence after the store: the software-fencing remedy
// the paper's Section I describes (and Section VIII's "patching the software
// with fences"). The fence forbids the forwarding-early behaviour, so the
// store-atomicity signature disappears even on x86 — at the cost of fencing
// every such code site, which is exactly what the paper's hardware mechanism
// avoids.
func N6Fence() Test {
	t := N6()
	t.Name = "n6+fence"
	t.Doc = "n6 with mfence after st x: the signature outcome is gone even on x86"
	th0 := t.Prog.Threads[0]
	t.Prog.Threads[0] = isa.Program{th0[0], isa.Fence(), th0[1], th0[2]}
	return t
}

// CoRR is coherence read-read: two loads of the same location must not see
// a newer write and then an older one; forbidden in every model.
func CoRR() Test {
	return Test{
		Name: "corr",
		Doc:  "coherence: two reads of one location never see new-then-old",
		Prog: checker.Program{
			Threads: []isa.Program{
				{isa.StoreImm(X, 1)},
				{isa.Load(1, X), isa.Load(2, X)},
			},
			Init: map[uint64]uint64{X: 0},
			Regs: []checker.RegObs{
				{Thread: 1, Reg: 1, Name: "r1"},
				{Thread: 1, Reg: 2, Name: "r2"},
			},
		},
		Interesting: "r1=1 r2=0",
	}
}

// S is the classic S test: the final value of x decides whether T1's store
// overtook T0's; with T1's load reading T0's y, TSO forbids final x=2.
func S() Test {
	return Test{
		Name: "s",
		Doc:  "S: store-store order observed through a read; [x]=2 with ry=1 forbidden in TSO",
		Prog: checker.Program{
			Threads: []isa.Program{
				{isa.StoreImm(X, 2), isa.StoreImm(Y, 1)},
				{isa.Load(1, Y), isa.StoreImm(X, 1)},
			},
			Init: map[uint64]uint64{X: 0, Y: 0},
			Regs: []checker.RegObs{{Thread: 1, Reg: 1, Name: "ry"}},
			Mem:  []checker.MemObs{{Addr: X, Name: "x"}},
		},
		Interesting: "ry=1 [x]=2",
	}
}

// TwoPlusTwoW is 2+2W: both cores write both variables in opposite orders;
// both locations ending on their first writer needs store-store reordering.
func TwoPlusTwoW() Test {
	return Test{
		Name: "2+2w",
		Doc:  "2+2W: [x]=1 [y]=1 needs store-store reordering, forbidden in TSO",
		Prog: checker.Program{
			Threads: []isa.Program{
				{isa.StoreImm(X, 1), isa.StoreImm(Y, 2)},
				{isa.StoreImm(Y, 1), isa.StoreImm(X, 2)},
			},
			Init: map[uint64]uint64{X: 0, Y: 0},
			Mem: []checker.MemObs{
				{Addr: X, Name: "x"},
				{Addr: Y, Name: "y"},
			},
		},
		Interesting: "[x]=1 [y]=1",
	}
}

// R is the R test: allowed in plain TSO (the store->load relaxation lets
// T1's read run ahead of its write), forbidden once T1 fences.
func R() Test {
	return Test{
		Name: "r",
		Doc:  "R: [y]=2 with rx=0 allowed in TSO via the store->load relaxation",
		Prog: checker.Program{
			Threads: []isa.Program{
				{isa.StoreImm(X, 1), isa.StoreImm(Y, 1)},
				{isa.StoreImm(Y, 2), isa.Load(1, X)},
			},
			Init: map[uint64]uint64{X: 0, Y: 0},
			Regs: []checker.RegObs{{Thread: 1, Reg: 1, Name: "rx"}},
			Mem:  []checker.MemObs{{Addr: Y, Name: "y"}},
		},
		Interesting: "rx=0 [y]=2",
	}
}

// RFence is R with a fence in the writing-then-reading thread: the
// relaxation disappears.
func RFence() Test {
	t := R()
	t.Name = "r+fence"
	t.Doc = "R with mfence: rx=0 [y]=2 forbidden everywhere"
	th1 := t.Prog.Threads[1]
	t.Prog.Threads[1] = isa.Program{th1[0], isa.Fence(), th1[1]}
	return t
}

// Tests returns the full suite in presentation order.
func Tests() []Test {
	return []Test{
		MP(), N6(), N6Fence(), IRIW(), Fig5(), Fig4(),
		SB(), SBFence(), LB(), WRC(), CoRR(),
		S(), TwoPlusTwoW(), R(), RFence(),
	}
}

// Names returns the names of the full suite in presentation order.
func Names() []string {
	ts := Tests()
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	return names
}

// Get returns the named test; the error for an unknown name lists every
// valid one.
func Get(name string) (Test, error) {
	for _, t := range Tests() {
		if t.Name == name {
			return t, nil
		}
	}
	return Test{}, fmt.Errorf("litmus: unknown test %q (valid tests: %s)",
		name, strings.Join(Names(), ", "))
}

// Select resolves a -test flag value, a comma-separated list of test names,
// in list order; an empty spec selects the full suite. Blank list elements
// are skipped, an unknown name fails as in Get, and so does a list that
// names no test.
func Select(spec string) ([]Test, error) {
	if spec == "" {
		return Tests(), nil
	}
	var tests []Test
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		t, err := Get(name)
		if err != nil {
			return nil, err
		}
		tests = append(tests, t)
	}
	if len(tests) == 0 {
		return nil, fmt.Errorf("-test %q selects no tests (valid tests: %s)",
			spec, strings.Join(Names(), ", "))
	}
	return tests, nil
}

// WithSBPressure returns a variant of the test in which every thread that
// stores first issues n stores to private scratch cache lines. The scratch
// stores occupy the store buffer and delay the drain of the test's stores —
// the backlog real programs always have and the reason litmus7 needs many
// iterations on hardware — without touching any observable. The allowed
// outcome sets are unchanged; the timing simulator, however, becomes able
// to witness the store-atomicity signatures.
func WithSBPressure(t Test, n int) Test {
	out := t
	out.Name = t.Name + "+sbp"
	out.Prog.Threads = make([]isa.Program, len(t.Prog.Threads))

	// Pressure the threads that forward (a store later loaded by the same
	// thread); if none, fall back to every storing thread.
	forwarding := func(p isa.Program) bool {
		stored := map[uint64]bool{}
		for _, in := range p {
			switch in.Op {
			case isa.OpStore:
				stored[in.Addr] = true
			case isa.OpLoad:
				if stored[in.Addr] {
					return true
				}
			}
		}
		return false
	}
	anyForwards := false
	for _, p := range t.Prog.Threads {
		if forwarding(p) {
			anyForwards = true
			break
		}
	}
	for ti, p := range t.Prog.Threads {
		hasStore := false
		for _, in := range p {
			if in.Op == isa.OpStore {
				hasStore = true
				break
			}
		}
		if !hasStore || (anyForwards && !forwarding(p)) {
			out.Prog.Threads[ti] = p
			continue
		}
		// Each scratch store's address depends on a long ALU chain, so
		// it resolves (and drains) late; the thread's test store,
		// sitting behind them in the FIFO store buffer, is held in
		// limbo long past the point where the thread's loads perform.
		pre := make(isa.Program, 0, 2*n+len(p))
		const delayReg = isa.Reg(30)
		for i := 0; i < n; i++ {
			pre = append(pre, isa.ALUImm(delayReg, delayReg, 1, 200))
			st := isa.StoreImm(uint64(0x20000)+uint64(ti)*0x2000+uint64(i)*0x80, uint64(i+1))
			st.Src2 = delayReg // address available only after the chain
			pre = append(pre, st)
		}
		out.Prog.Threads[ti] = append(pre, p...)
	}
	return out
}

// Result is the outcome histogram of running a test on the timing simulator.
type Result struct {
	Test     string
	Model    config.Model
	Iters    int
	Outcomes map[checker.Outcome]int
}

// Observed reports whether the outcome was witnessed.
func (r *Result) Observed(o checker.Outcome) bool { return r.Outcomes[o] > 0 }

// Run executes the test on the cycle-accurate simulator `iters` times with
// varied jitter seeds and start staggering, collecting the outcome
// histogram. This is the analogue of running litmus7 on real hardware.
func Run(t Test, model config.Model, iters int, seedBase uint64) (*Result, error) {
	return RunTraced(t, model, iters, seedBase, nil)
}

// RunTraced is Run with an observability hook: when attach is non-nil it is
// called on every iteration before the machine runs (e.g. to attach a
// tracer). Every iteration runs on one machine, reset before the hook sees
// it, so the hook receives the same machine each time, with no tracer
// attached: a hook that keeps per-iteration data must keep the tracer or
// m.Stats, not the machine. The hook must not keep the machine running
// concurrently — iterations stay sequential and deterministic.
func RunTraced(t Test, model config.Model, iters int, seedBase uint64, attach func(iter int, m *sim.Machine)) (*Result, error) {
	cfg := config.Skylake(len(t.Prog.Threads), model)
	m, err := sim.New(cfg, t.Name)
	if err != nil {
		return nil, err
	}
	return RunConfigTraced(m, t, cfg, iters, seedBase, attach)
}

// RunConfigTraced is RunTraced on the machine m with an explicit base
// configuration: the litmus fuzzer's witness search runs each program both
// on the Table III machine and on the tiny-cache variant, whose evictions
// perturb timing into orderings the big caches never exhibit, and keeps one
// machine for each. Every iteration resets m to base with its own jitter
// seed (sim.Machine.Reset), so m must have base's cores, core and memory
// configuration; a reset machine runs exactly as a new one. Start
// staggering is layered on top exactly as in RunTraced.
func RunConfigTraced(m *sim.Machine, t Test, base config.Config, iters int, seedBase uint64, attach func(iter int, m *sim.Machine)) (*Result, error) {
	res := &Result{Test: t.Name, Model: base.Model, Iters: iters, Outcomes: make(map[checker.Outcome]int)}
	// Each thread's staggered program, rebuilt in place every iteration.
	progs := make([]isa.Program, len(t.Prog.Threads))
	for ti, prog := range t.Prog.Threads {
		progs[ti] = make(isa.Program, 0, maxStagger+len(prog))
	}
	rng := seedBase*2654435761 + 1
	for it := 0; it < iters; it++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		cfg := base
		cfg.Jitter = 9
		cfg.JitterSeed = rng
		if err := m.Reset(cfg, t.Name); err != nil {
			return nil, err
		}
		if attach != nil {
			attach(it, m)
		}
		for a, v := range t.Prog.Init {
			m.InitMemory(a, v)
		}
		for ti, prog := range t.Prog.Threads {
			progs[ti] = stagger(progs[ti][:0], prog, staggerOps(rng, ti))
			if err := m.SetProgram(ti, progs[ti]); err != nil {
				return nil, err
			}
		}
		if err := m.Run(1_000_000); err != nil {
			return nil, err
		}
		res.Outcomes[checker.RenderOutcome(t.Prog, finalState{m})]++
	}
	return res, nil
}

// An iteration staggers every thread by 0 to iterStagger-1 ops, and thread
// ti by ti%threadStagger more, so no thread gets more than maxStagger.
const (
	iterStagger   = 7
	threadStagger = 3
	maxStagger    = iterStagger - 1 + threadStagger - 1
)

// staggerOps is the number of ops stagger prepends to thread ti's program
// in the iteration whose random state is rng.
func staggerOps(rng uint64, ti int) int {
	return int(rng>>16)%iterStagger + ti%threadStagger
}

// stagger appends to dst n dependent ALU ops, so that thread start times
// differ across iterations, exploring interleavings, and then p.
func stagger(dst, p isa.Program, n int) isa.Program {
	for i := 0; i < n; i++ {
		dst = append(dst, isa.ALUImm(31, 31, 1, 3))
	}
	return append(dst, p...)
}

// finalState adapts a finished machine to the checker's observable reader.
type finalState struct{ m *sim.Machine }

func (f finalState) Reg(thread int, r isa.Reg) uint64 { return f.m.Core(thread).RegValue(r) }
func (f finalState) Mem(addr uint64) uint64           { return f.m.ReadMemory(addr) }
