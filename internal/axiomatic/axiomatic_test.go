package axiomatic

import (
	"strings"
	"testing"

	"sesa/internal/checker"
	"sesa/internal/isa"
	"sesa/internal/litmus"
)

// opModel maps an axiomatic model to its operational twin.
func opModel(m Model) checker.Model {
	switch m {
	case X86TSO:
		return checker.X86TSO
	case TSO370:
		return checker.TSO370
	default:
		return checker.SC
	}
}

// TestAgreesWithOperationalChecker is the headline cross-validation: the
// axiomatic and operational formulations must produce identical outcome
// sets on the whole litmus suite, for all three models.
func TestAgreesWithOperationalChecker(t *testing.T) {
	for _, lt := range litmus.Tests() {
		for _, m := range []Model{X86TSO, TSO370, SC} {
			ax, err := Enumerate(lt.Prog, m)
			if err != nil {
				t.Fatalf("%s under %s: %v", lt.Name, m, err)
			}
			op := checker.Enumerate(lt.Prog, opModel(m))
			for o := range op {
				if !ax.Contains(o) {
					t.Errorf("%s under %s: operational outcome %q missing axiomatically",
						lt.Name, m, o)
				}
			}
			for o := range ax {
				if !op.Contains(o) {
					t.Errorf("%s under %s: axiomatic outcome %q not operationally reachable",
						lt.Name, m, o)
				}
			}
		}
	}
}

// TestN6CycleArgument pins the paper's Figure 2 reasoning directly: the n6
// signature outcome is reachable under x86 (rfi is not a global edge) and
// becomes a ghb cycle the moment rfi is made global (370).
func TestN6CycleArgument(t *testing.T) {
	n6 := litmus.N6()
	sig := n6.Interesting
	x86, err := Enumerate(n6.Prog, X86TSO)
	if err != nil {
		t.Fatal(err)
	}
	if !x86.Contains(sig) {
		t.Error("x86 axiomatic model must admit the n6 signature")
	}
	atom, err := Enumerate(n6.Prog, TSO370)
	if err != nil {
		t.Fatal(err)
	}
	if atom.Contains(sig) {
		t.Error("making rfi global must forbid the n6 signature (the Figure 2 cycle)")
	}
}

// TestSCIsStrongest: SC outcome sets are subsets of 370's, which are
// subsets of x86's, on the whole suite (Table I, axiomatically).
func TestSCIsStrongest(t *testing.T) {
	for _, lt := range litmus.Tests() {
		sc, err := Enumerate(lt.Prog, SC)
		if err != nil {
			t.Fatal(err)
		}
		atom, err := Enumerate(lt.Prog, TSO370)
		if err != nil {
			t.Fatal(err)
		}
		x86, err := Enumerate(lt.Prog, X86TSO)
		if err != nil {
			t.Fatal(err)
		}
		for o := range sc {
			if !atom.Contains(o) {
				t.Errorf("%s: SC outcome %q not in 370", lt.Name, o)
			}
		}
		for o := range atom {
			if !x86.Contains(o) {
				t.Errorf("%s: 370 outcome %q not in x86", lt.Name, o)
			}
		}
	}
}

// TestRMWAtomicityAxiom: concurrent fetch-and-adds never lose updates.
func TestRMWAtomicityAxiom(t *testing.T) {
	prog := checker.Program{
		Threads: []isa.Program{
			{isa.RMW(1, 0x100, 1)},
			{isa.RMW(1, 0x100, 1)},
		},
		Init: map[uint64]uint64{0x100: 0},
		Mem:  []checker.MemObs{{Addr: 0x100, Name: "x"}},
	}
	for _, m := range []Model{X86TSO, TSO370, SC} {
		out, err := Enumerate(prog, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || !out.Contains("[x]=2") {
			t.Errorf("%s: RMW outcomes = %v, want exactly [x]=2", m, out.Sorted())
		}
	}
}

// TestEventLimit: a program of MaxEvents memory events enumerates, and one
// more makes Enumerate return an error rather than wrap a row's bits.
func TestEventLimit(t *testing.T) {
	stores := func(n int) checker.Program {
		var th isa.Program
		for i := 0; i < n; i++ {
			th = append(th, isa.StoreImm(0x100, uint64(i+1)))
		}
		return checker.Program{
			Threads: []isa.Program{th},
			Init:    map[uint64]uint64{0x100: 0},
			Mem:     []checker.MemObs{{Addr: 0x100, Name: "x"}},
		}
	}
	for _, m := range []Model{X86TSO, TSO370, SC} {
		out, err := Enumerate(stores(MaxEvents), m)
		if err != nil {
			t.Fatalf("%s: %d events: %v", m, MaxEvents, err)
		}
		if len(out) != 1 || !out.Contains("[x]=64") {
			t.Errorf("%s: %d events: outcomes %v, want exactly [x]=64", m, MaxEvents, out.Sorted())
		}
		if _, err := Enumerate(stores(MaxEvents+1), m); err == nil ||
			!strings.Contains(err.Error(), "64") {
			t.Errorf("%s: %d events: err = %v, want one naming the limit of 64", m, MaxEvents+1, err)
		}
	}
}
