package checker

import (
	"testing"

	"sesa/internal/isa"
)

const (
	x = uint64(0x100)
	y = uint64(0x140)
)

func mp() Program {
	return Program{
		Threads: []isa.Program{
			{isa.Load(1, x), isa.Load(2, y)},
			{isa.StoreImm(y, 1), isa.StoreImm(x, 1)},
		},
		Init: map[uint64]uint64{x: 0, y: 0},
		Regs: []RegObs{
			{Thread: 0, Reg: 1, Name: "rx"},
			{Thread: 0, Reg: 2, Name: "ry"},
		},
	}
}

func n6() Program {
	return Program{
		Threads: []isa.Program{
			{isa.StoreImm(x, 1), isa.Load(1, x), isa.Load(2, y)},
			{isa.StoreImm(y, 2), isa.StoreImm(x, 2)},
		},
		Init: map[uint64]uint64{x: 0, y: 0},
		Regs: []RegObs{
			{Thread: 0, Reg: 1, Name: "rx"},
			{Thread: 0, Reg: 2, Name: "ry"},
		},
		Mem: []MemObs{{Addr: x, Name: "x"}, {Addr: y, Name: "y"}},
	}
}

// TestMPForbiddenInTSO checks Figure 1: rx=1 ry=0 is forbidden under both
// TSO flavours (the stores drain in order; the loads execute in order).
func TestMPForbiddenInTSO(t *testing.T) {
	for _, m := range []Model{X86TSO, TSO370, SC} {
		out := Enumerate(mp(), m)
		if out.Contains("rx=1 ry=0") {
			t.Errorf("%s: mp allowed rx=1 ry=0", m)
		}
		for _, legal := range []Outcome{"rx=0 ry=0", "rx=0 ry=1", "rx=1 ry=1"} {
			if !out.Contains(legal) {
				t.Errorf("%s: mp should allow %q", m, legal)
			}
		}
	}
}

// TestN6 checks Figure 2: the store-atomicity signature outcome is allowed
// in x86 but forbidden in store-atomic TSO and SC.
func TestN6(t *testing.T) {
	sig := Outcome("rx=1 ry=0 [x]=1 [y]=2")
	if !Enumerate(n6(), X86TSO).Contains(sig) {
		t.Error("x86-TSO: n6 signature outcome should be allowed")
	}
	if Enumerate(n6(), TSO370).Contains(sig) {
		t.Error("370-TSO: n6 signature outcome must be forbidden")
	}
	if Enumerate(n6(), SC).Contains(sig) {
		t.Error("SC: n6 signature outcome must be forbidden")
	}
}

// TestN6CompareIsExactlyTheStoreAtomicityGap reproduces the paper's
// ConsistencyChecker workflow: the outcomes allowed in x86 but not in 370.
func TestN6CompareIsExactlyTheStoreAtomicityGap(t *testing.T) {
	diff := Compare(n6(), X86TSO, TSO370)
	if len(diff) == 0 {
		t.Fatal("expected x86-only outcomes for n6")
	}
	for _, o := range diff {
		// Every x86-only outcome of n6 must include the early read of
		// the own store: rx=1.
		if o[:4] != "rx=1" {
			t.Errorf("unexpected x86-only outcome without forwarding: %q", o)
		}
	}
}

func iriw() Program {
	return Program{
		Threads: []isa.Program{
			{isa.StoreImm(x, 1)},
			{isa.StoreImm(y, 1)},
			{isa.Load(1, x), isa.Load(2, y)},
			{isa.Load(1, y), isa.Load(2, x)},
		},
		Init: map[uint64]uint64{x: 0, y: 0},
		Regs: []RegObs{
			{Thread: 2, Reg: 1, Name: "a"},
			{Thread: 2, Reg: 2, Name: "b"},
			{Thread: 3, Reg: 1, Name: "c"},
			{Thread: 3, Reg: 2, Name: "d"},
		},
	}
}

// TestIRIWForbidden checks Figure 3: both write-atomic models forbid the
// observers disagreeing about the order of independent stores.
func TestIRIWForbidden(t *testing.T) {
	for _, m := range []Model{X86TSO, TSO370, SC} {
		if Enumerate(iriw(), m).Contains("a=1 b=0 c=1 d=0") {
			t.Errorf("%s: iriw disagreement must be forbidden", m)
		}
	}
}

func fig5() Program {
	return Program{
		Threads: []isa.Program{
			{isa.StoreImm(x, 1), isa.Load(1, x), isa.Load(2, y)},
			{isa.StoreImm(y, 1), isa.Load(1, y), isa.Load(2, x)},
		},
		Init: map[uint64]uint64{x: 0, y: 0},
		Regs: []RegObs{
			{Thread: 0, Reg: 1, Name: "c1x"},
			{Thread: 0, Reg: 2, Name: "c1y"},
			{Thread: 1, Reg: 1, Name: "c2y"},
			{Thread: 1, Reg: 2, Name: "c2x"},
		},
	}
}

// TestTableII checks the paper's Table II exactly: under 370 the Figure 5
// program has precisely three outcomes; x86 adds the disagreement case.
func TestTableII(t *testing.T) {
	disagree := Outcome("c1x=1 c1y=0 c2y=1 c2x=1") // placeholder, fixed below
	_ = disagree

	out370 := Enumerate(fig5(), TSO370)
	want370 := []Outcome{
		"c1x=1 c1y=0 c2y=1 c2x=1", // case 2: Core2 cannot see order
		"c1x=1 c1y=1 c2y=1 c2x=0", // case 3: Core1 cannot see order
		"c1x=1 c1y=1 c2y=1 c2x=1", // case 4: none can see any order
	}
	if len(out370) != len(want370) {
		t.Errorf("370: got %d outcomes %v, want %d", len(out370), out370.Sorted(), len(want370))
	}
	for _, o := range want370 {
		if !out370.Contains(o) {
			t.Errorf("370: missing outcome %q", o)
		}
	}

	outX86 := Enumerate(fig5(), X86TSO)
	caseOne := Outcome("c1x=1 c1y=0 c2y=1 c2x=0") // disagreement in order
	if !outX86.Contains(caseOne) {
		t.Error("x86: the Table II case-1 disagreement must be allowed")
	}
	for _, o := range want370 {
		if !outX86.Contains(o) {
			t.Errorf("x86: missing common outcome %q", o)
		}
	}
	if len(outX86) != 4 {
		t.Errorf("x86: got %d outcomes %v, want 4", len(outX86), outX86.Sorted())
	}
}

// TestFig4AllFourObservations checks Figure 4: a third-party observer of two
// independent stores can see any of the four value pairs, in every model.
func TestFig4AllFourObservations(t *testing.T) {
	p := Program{
		Threads: []isa.Program{
			{isa.StoreImm(x, 1)},
			{isa.StoreImm(y, 1)},
			{isa.Load(1, y), isa.Load(2, x)},
		},
		Init: map[uint64]uint64{x: 0, y: 0},
		Regs: []RegObs{
			{Thread: 2, Reg: 1, Name: "ry"},
			{Thread: 2, Reg: 2, Name: "rx"},
		},
	}
	for _, m := range []Model{X86TSO, TSO370, SC} {
		out := Enumerate(p, m)
		for _, o := range []Outcome{"ry=0 rx=0", "ry=0 rx=1", "ry=1 rx=0", "ry=1 rx=1"} {
			if !out.Contains(o) {
				t.Errorf("%s: observer outcome %q should be reachable", m, o)
			}
		}
	}
}

// TestSBDistinguishesTSOFromSC: the classic store-buffering relaxation.
func TestSBDistinguishesTSOFromSC(t *testing.T) {
	p := Program{
		Threads: []isa.Program{
			{isa.StoreImm(x, 1), isa.Load(1, y)},
			{isa.StoreImm(y, 1), isa.Load(1, x)},
		},
		Init: map[uint64]uint64{x: 0, y: 0},
		Regs: []RegObs{
			{Thread: 0, Reg: 1, Name: "ry"},
			{Thread: 1, Reg: 1, Name: "rx"},
		},
	}
	relaxed := Outcome("ry=0 rx=0")
	if !Enumerate(p, X86TSO).Contains(relaxed) {
		t.Error("x86-TSO must allow the SB relaxation")
	}
	if !Enumerate(p, TSO370).Contains(relaxed) {
		t.Error("370-TSO also relaxes store->load, so SB must be allowed")
	}
	if Enumerate(p, SC).Contains(relaxed) {
		t.Error("SC must forbid the SB relaxation")
	}
}

// TestFencesRestoreSC: SB with fences forbids the relaxation everywhere.
func TestFencesRestoreSC(t *testing.T) {
	p := Program{
		Threads: []isa.Program{
			{isa.StoreImm(x, 1), isa.Fence(), isa.Load(1, y)},
			{isa.StoreImm(y, 1), isa.Fence(), isa.Load(1, x)},
		},
		Init: map[uint64]uint64{x: 0, y: 0},
		Regs: []RegObs{
			{Thread: 0, Reg: 1, Name: "ry"},
			{Thread: 1, Reg: 1, Name: "rx"},
		},
	}
	for _, m := range []Model{X86TSO, TSO370, SC} {
		if Enumerate(p, m).Contains("ry=0 rx=0") {
			t.Errorf("%s: fenced SB must forbid ry=0 rx=0", m)
		}
	}
}

// TestRMWAtomicity: two fetch-and-adds from different threads never lose an
// update in any model.
func TestRMWAtomicity(t *testing.T) {
	p := Program{
		Threads: []isa.Program{
			{isa.RMW(1, x, 1)},
			{isa.RMW(1, x, 1)},
		},
		Init: map[uint64]uint64{x: 0},
		Mem:  []MemObs{{Addr: x, Name: "x"}},
	}
	for _, m := range []Model{X86TSO, TSO370, SC} {
		out := Enumerate(p, m)
		if len(out) != 1 || !out.Contains("[x]=2") {
			t.Errorf("%s: RMW outcomes = %v, want exactly [x]=2", m, out.Sorted())
		}
	}
}

// TestCompareTable drives Compare over the litmus programs of this file:
// the diff must be exactly the set difference of the Enumerate outcome sets,
// sorted, and match the known model gaps (or lack of one) per program pair.
func TestCompareTable(t *testing.T) {
	sb := Program{
		Threads: []isa.Program{
			{isa.StoreImm(x, 1), isa.Load(1, y)},
			{isa.StoreImm(y, 1), isa.Load(1, x)},
		},
		Init: map[uint64]uint64{x: 0, y: 0},
		Regs: []RegObs{
			{Thread: 0, Reg: 1, Name: "ry"},
			{Thread: 1, Reg: 1, Name: "rx"},
		},
	}
	cases := []struct {
		name string
		prog Program
		a, b Model
		// wantGap: outcomes that must be in Compare(prog, a, b);
		// wantEmpty asserts there is no gap at all.
		wantGap   []Outcome
		wantEmpty bool
	}{
		{name: "mp x86-vs-370 has no gap", prog: mp(), a: X86TSO, b: TSO370, wantEmpty: true},
		{name: "mp 370-vs-sc has no gap", prog: mp(), a: TSO370, b: SC, wantEmpty: true},
		{name: "n6 x86-vs-370 is the signature", prog: n6(), a: X86TSO, b: TSO370,
			wantGap: []Outcome{"rx=1 ry=0 [x]=1 [y]=2"}},
		{name: "n6 370-vs-x86 is empty (MCA subset)", prog: n6(), a: TSO370, b: X86TSO, wantEmpty: true},
		{name: "sb x86-vs-370 has no gap", prog: sb, a: X86TSO, b: TSO370, wantEmpty: true},
		{name: "sb x86-vs-sc is the relaxation", prog: sb, a: X86TSO, b: SC,
			wantGap: []Outcome{"ry=0 rx=0"}},
		{name: "iriw x86-vs-370 has no gap", prog: iriw(), a: X86TSO, b: TSO370, wantEmpty: true},
		{name: "identical models always empty", prog: n6(), a: X86TSO, b: X86TSO, wantEmpty: true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			diff := Compare(c.prog, c.a, c.b)
			if c.wantEmpty {
				if len(diff) != 0 {
					t.Fatalf("Compare(%s, %s) = %v, want empty", c.a, c.b, diff)
				}
				return
			}
			if len(diff) == 0 {
				t.Fatalf("Compare(%s, %s) is empty, want a gap", c.a, c.b)
			}
			for _, want := range c.wantGap {
				found := false
				for _, o := range diff {
					if o == want {
						found = true
					}
				}
				if !found {
					t.Errorf("Compare(%s, %s) = %v, missing %q", c.a, c.b, diff, want)
				}
			}
			// Exactness: the diff is precisely allowed(a) minus allowed(b),
			// and comes back sorted and duplicate-free.
			oa, ob := Enumerate(c.prog, c.a), Enumerate(c.prog, c.b)
			seen := map[Outcome]bool{}
			for i, o := range diff {
				if !oa.Contains(o) || ob.Contains(o) {
					t.Errorf("diff outcome %q is not in allowed(%s)-allowed(%s)", o, c.a, c.b)
				}
				if seen[o] {
					t.Errorf("duplicate outcome %q", o)
				}
				seen[o] = true
				if i > 0 && !(diff[i-1] < o) {
					t.Errorf("diff not sorted at %d: %q >= %q", i, diff[i-1], o)
				}
			}
			for o := range oa {
				if !ob.Contains(o) && !seen[o] {
					t.Errorf("Compare missed gap outcome %q", o)
				}
			}
		})
	}
}

// TestTaxonomy pins Table I: 370 is store-atomic (MCA): every 370 outcome
// set is a subset of the x86 set, and SC sets are subsets of both, on the
// suite of programs in this file.
func TestTaxonomy(t *testing.T) {
	progs := []Program{mp(), n6(), iriw(), fig5()}
	for i, p := range progs {
		oSC := Enumerate(p, SC)
		o370 := Enumerate(p, TSO370)
		oX86 := Enumerate(p, X86TSO)
		for o := range oSC {
			if !o370.Contains(o) {
				t.Errorf("prog %d: SC outcome %q not in 370", i, o)
			}
		}
		for o := range o370 {
			if !oX86.Contains(o) {
				t.Errorf("prog %d: 370 outcome %q not in x86 (370 must be stronger)", i, o)
			}
		}
	}
}

// TestEnumerateDeterministic: the same program yields the same set.
func TestEnumerateDeterministic(t *testing.T) {
	a := Enumerate(fig5(), X86TSO).Sorted()
	b := Enumerate(fig5(), X86TSO).Sorted()
	if len(a) != len(b) {
		t.Fatalf("set sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("outcome %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestDependentValueFlow: a stored register value flows through the SB,
// and an observed location no instruction accesses keeps its initial value.
func TestDependentValueFlow(t *testing.T) {
	const z = uint64(0x180)
	p := Program{
		Threads: []isa.Program{
			{isa.Load(1, x), isa.ALUImm(2, 1, 10, 0), isa.StoreReg(y, 2)},
		},
		Init: map[uint64]uint64{x: 5, y: 0, z: 7},
		Mem:  []MemObs{{Addr: y, Name: "y"}, {Addr: z, Name: "z"}},
	}
	for _, m := range []Model{X86TSO, TSO370, SC} {
		out := Enumerate(p, m)
		if len(out) != 1 || !out.Contains("[y]=15 [z]=7") {
			t.Errorf("%s: outcomes = %v, want exactly [y]=15 [z]=7", m, out.Sorted())
		}
	}
}

// TestEnumerateAllocBudget pins what enumerating iriw allocates under each
// model. The search changes one machine state in place and takes its memo,
// the visited-state set and the key buffer, from a pool that the previous
// enumeration returned it to, emptied, so it allocates the machine, the
// recorder's growth and one rendering per outcome (15): 60 allocations
// under each model, the program's 8 included. A new memo per enumeration
// cost 87 under both TSO flavours and 84 under SC; a string key per state
// in a map, as the memo once kept, 386, 386 and 317; copying the state on
// every transition as well, 2,206, 2,206 and 1,063. Under the race
// detector, sync.Pool drops a random quarter of what it is given, so the
// count varies and the bound stays at the 120 it had before the pool.
func TestEnumerateAllocBudget(t *testing.T) {
	budget := 60.0
	if raceEnabled {
		budget = 120
	}
	for _, m := range []Model{X86TSO, TSO370, SC} {
		allocs := testing.AllocsPerRun(10, func() { Enumerate(iriw(), m) })
		if allocs > budget {
			t.Errorf("%s: enumerating iriw allocated %.0f times, budget %.0f", m, allocs, budget)
		}
	}
}
